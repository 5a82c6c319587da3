"""Generated configs and argv through `cli.main`, and text through the
expression compiler: bad input ends as a verdict or a config error, never as
a traceback.

Every example ends in one of three ways: exit 0 with a report; exit 1 with a
report and a violation record (a refused certificate records its refusal in
the report); or exit 2 with one `config error:` line or one argparse error,
writing nothing.  The suite turns a RuntimeWarning into an error, so a
warning that escapes a command fails the example too.  Examples are
derandomized and capped: grids of at most 41 nodes, budgets of at most 400.
"""
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from monofix import catalog
from monofix.cli import COUPLED_TABLE, FREDHOLM_TABLE, main
from monofix.engine import CLI_DRIVER_NAMES
from monofix.expr import ExpressionError, compile_expression


def fuzz(examples: int):
    return settings(
        derandomize=True,
        max_examples=examples,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


# small counts and the edges of each range; 16385 and up pass every cap
COUNTS = st.one_of(
    st.integers(-2, 41).map(str),
    st.sampled_from(["16385", str(10**9), str(10**30), "", "many", "1.5", "1_0", "0x10"]),
)
NUMBERS = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from([
        "0", "-0.0", "1", "nan", "inf", "-inf", "1e999", "1e308", "-1e308", "5e-324", "1e-320",
        "1.0000000000000002", "", "x", "1,5",
    ]),
)
BOOLEANS = st.sampled_from(["true", "False", "yes", "NO", "1", "0", "maybe", ""])


def expressions(names: tuple) -> st.SearchStrategy:
    leaves = st.sampled_from(names + ("0", "1", "0.5", "2", "1e308", "10**400", "pi", "e", "q"))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner).map(lambda p: f"({p[0]}{p[1]}{p[2]})"),
            inner.map(lambda a: f"-{a}"),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs", "log", "tan"]), inner).map(
                lambda p: f"{p[0]}({p[1]})"
            ),
        )

    return st.recursive(leaves, extend, max_leaves=6) | st.sampled_from(["", "t +", "1 if t else 0", "u[0]"])


KERNELS = st.one_of(
    st.sampled_from(["product_ts", "constant", "constant 1.1", "constant -1", "constant nan", "mystery", ""]),
    NUMBERS.map(lambda c: f"constant {c}"),
    expressions(("t", "s", "x")).map(lambda e: f"expr {e}"),
)
FREDHOLM_VALUES = {
    "interval_a": NUMBERS, "interval_b": NUMBERS, "nodes": COUNTS, "kernel": KERNELS,
    "majorant": expressions(("t", "s")), "f": expressions(("t",)), "ladder_depth": COUNTS,
    "budget": COUNTS, "certificate_budget": COUNTS, "seed": COUNTS, "force": BOOLEANS,
}
COUPLED_VALUES = {
    "f": expressions(("u", "v")), "x0": NUMBERS, "y0": NUMBERS,
    "lam_u": NUMBERS, "lam_v": NUMBERS, "budget": COUNTS,
}
assert list(FREDHOLM_VALUES) == [row[0] for row in FREDHOLM_TABLE]
assert list(COUPLED_VALUES) == [row[0] for row in COUPLED_TABLE]
JUNK_LINES = st.sampled_from(["nodse = 41", "no equals sign", "= 1", "# a comment", "", "budget = 1"])


def config_texts(values: dict, base: dict) -> st.SearchStrategy:
    """A config starting from `base`: some keys replaced, some dropped, and
    now and then a junk line (an unknown key, a syntax error, a duplicate)."""
    keys = list(values)

    @st.composite
    def text(draw):
        cfg = dict(base)
        for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
            cfg[key] = draw(values[key])
        for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
            cfg.pop(key, None)
        lines = [f"{k} = {v}" for k, v in cfg.items()]
        lines += draw(st.lists(JUNK_LINES, max_size=1))
        return "\n".join(draw(st.permutations(lines))) + "\n"

    return text()


FREDHOLM_BASE = {"nodes": "11", "kernel": "product_ts", "f": "t", "certificate_budget": "100", "budget": "50"}
COUPLED_BASE = {"f": "0.3*u - 0.2*v + 1", "x0": "-10", "y0": "10", "lam_u": "0.3", "lam_v": "0.2", "budget": "100"}


def assert_clean_outcome(argv: list) -> None:
    """Run `main(argv + ["--out", <fresh dir>])` and check how it ended."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err, printed = io.StringIO(), io.StringIO()
        with redirect_stderr(err), redirect_stdout(printed):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse
                assert exc.code == 2
                last = err.getvalue().splitlines()[-1]
                assert last.startswith("monofix ") and ": error: " in last, last
                assert not out.exists()
                return
        stderr = err.getvalue()
        if code == 2:
            assert stderr.startswith("config error: ") and stderr.count("\n") == 1, stderr
            assert not out.exists()
            return
        assert stderr == ""
        assert code in (0, 1)
        report = (out / "report.txt").read_text()
        if code == 1 and "\nrefused=" not in report:
            assert (out / "violation.txt").read_text().startswith("status=")


@fuzz(60)
@given(config_texts(FREDHOLM_VALUES, FREDHOLM_BASE), st.booleans())
def test_fuzz_solve_fredholm_config(text, force):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        assert_clean_outcome(["solve-fredholm", str(cfg), *(["--force"] if force else [])])


@fuzz(60)
@given(config_texts(COUPLED_VALUES, COUPLED_BASE))
def test_fuzz_solve_coupled_config(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        assert_clean_outcome(["solve-coupled", str(cfg)])


@fuzz(60)
@given(
    st.sampled_from(catalog.MAP_NAMES + ("nomap",)),
    st.sampled_from(CLI_DRIVER_NAMES + ("newton",)),
    st.none() | NUMBERS,
    st.none() | COUNTS,
)
def test_fuzz_solve_map_argv(name, driver, x0, budget):
    argv = ["solve-map", "--map", name, "--driver", driver]
    argv += [] if x0 is None else [f"--x0={x0}"]
    argv += [] if budget is None else [f"--budget={budget}"]
    assert_clean_outcome(argv)


@fuzz(100)
@given(st.one_of(
    st.text(max_size=40),
    expressions(("t", "s", "x")),
    st.sampled_from(["-" * 300 + "t", "+".join(["t"] * 300), "1" * 400, "(" * 250 + "t" + ")" * 250, "\x00"]),
))
def test_fuzz_compile_expression_raises_only_expression_error(text):
    try:
        compile_expression(text, ("t", "s", "x"))
    except ExpressionError:
        pass
