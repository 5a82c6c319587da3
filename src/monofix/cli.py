"""Batch front-end: run solvers and falsifiers from configs, write artifacts.

Exit codes: 0 for certified / passing / not-falsified outcomes, 1 when a
hypothesis is violated or a counterexample is found (artifacts are still
written), 2 for configuration errors.  All artifacts are plain text or CSV
and contain no timestamps, so identical configs and seeds reproduce
byte-identical files.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import operator
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import catalog
from ._util import ATOL, format_value
from .engine import (
    CLI_DRIVER_NAMES,
    IterationTrace,
    MapSpec,
    SolveReport,
    SolveStatus,
    lambda_product_trace,
    LambdaSequence,
    solve_with_driver,
)
from .expr import ExpressionError, compile_expression
from .fredholm import (
    MAX_CERTIFICATE_TERMS,
    MAX_NODES,
    CertificateNotConvergent,
    ConvergenceCertificate,
    Grid,
    InvalidKernel,
    KernelSpec,
    grid_ladder,
    solve_fredholm,
)
from .monoid import cauchy_series_check, dyadic_ladder, is_null_trace
from .multifix import coupled_fixed_point
from .reporting import Decision
from .spaces import (
    PointTrace,
    converges_to,
    falsify_frechet_wilson,
    is_cauchy_sequence,
    is_cw_sequence,
    validate_space,
)


class ConfigError(Exception):
    """A bad config value or argument: `line N: field 'key': message`."""

    def __init__(self, message: str, line: Optional[int] = None, field: Optional[str] = None):
        where = [f"line {line}"] * (line is not None) + [f"field {field!r}"] * (field is not None)
        super().__init__(": ".join([*where, message]))


def parse_config(text: str) -> dict[str, tuple[int, str]]:
    """Parse `key = value` lines; '#' starts a comment."""
    out: dict[str, tuple[int, str]] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=i)
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError("empty key", line=i)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=i, field=key)
        out[key] = (i, value)
    return out


REQUIRED = object()  # the default of a key that has none


def finite_float(text: str) -> float:
    """A float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def boolean(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(text)


_NOT_A = {
    float: "not a number", finite_float: "not a finite number",
    int: "not an integer", boolean: "not a boolean",
}


def parse_value(kind: Callable[[str], Any], raw: str, minimum: Any = None, maximum: Any = None):
    """`raw` read as `kind` (str or a key of `_NOT_A`) and checked against
    the range; a ValueError says what is wrong with it."""
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"{_NOT_A[kind]}: {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"must be at least {minimum}: {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"must be at most {maximum}: {value}")
    return value


def read_config(text: str, table: tuple) -> tuple[dict, dict]:
    """Read a config against a command's table of (key, type, default,
    minimum, maximum) rows.  Rejects the first unknown key in line order,
    then the first missing, unparsable or out-of-range key in table order.
    Returns each key's typed value (its default when absent; a default of
    None leaves it None) and its line (None when absent)."""
    cfg = parse_config(text)
    keys = [row[0] for row in table]
    for key, (line, _) in cfg.items():
        if key not in keys:
            raise ConfigError(f"unknown key; the keys are {', '.join(keys)}", line=line, field=key)
    values, lines = {}, {}
    for key, kind, default, minimum, maximum in table:
        line, raw = cfg.get(key, (None, None))
        lines[key] = line
        if raw is None:
            if default is REQUIRED:
                raise ConfigError("missing required key", field=key)
            values[key] = default
            continue
        try:
            values[key] = parse_value(kind, raw, minimum, maximum)
        except ValueError as exc:
            raise ConfigError(str(exc), line=line, field=key)
    return values, lines


# ---------------------------------------------------------------------------
# Artifact writers


def _write(out_dir: Path, name: str, content: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(content)


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def trace_csv(trace: IterationTrace) -> str:
    consec, flags = trace.consec.elements, trace.flags
    rows = []
    for i, p in enumerate(trace.points):
        c = format_value(consec[i]) if i < len(consec) else ""
        fl = flags[i] if i < len(flags) else ""
        rows.append(f'{i},"{format_value(p)}","{c}","{fl}"')
    return _csv("step,point,consec,flags", rows)


def solution_csv(grid: Grid, x: np.ndarray) -> str:
    return _csv("node,value", (f"{float(t)!r},{float(v)!r}" for t, v in zip(grid.nodes, x)))


def certificate_csv(cert: ConvergenceCertificate) -> str:
    # A converging series repeats its partial sums, so each distinct one is
    # formatted once.  They are sup norms, never -0.0, the one float whose
    # repr differs from that of an equal dict key.
    partials = {part: repr(part) for part in set(cert.sup_partials)}
    rows = enumerate(zip(cert.sup_increments, cert.sup_partials), start=1)
    return _csv("n,sup_increment,sup_partial", (f"{i},{d!r},{partials[p]}" for i, (d, p) in rows))


def certificate_text(cert: ConvergenceCertificate) -> str:
    return (
        f"verdict={cert.verdict.value}\n"
        f"spectral_bracket={cert.spectral_bracket[0]!r},{cert.spectral_bracket[1]!r}\n"
        f"spectral_bracket_pairs={cert.spectral_bracket_pairs}\n"
        f"tail_window_max={cert.tail_window_max!r}\n"
        f"witness_index={cert.witness_index}\n"
        f"overflow={cert.overflow}\n"
        f"terms_examined={len(cert.sup_increments)}\n"
    )


def _finish_solve(out: Path, report: SolveReport, header: str, summary: str) -> int:
    """Write report.txt, print the summary line and return the exit code of a
    solve, writing the violation record on failure."""
    _write(out, "report.txt", header + report.to_text() + "\n")
    print(f"{summary}: {report.status.value}; artifacts in {out}")
    if report.status is SolveStatus.CERTIFIED:
        return 0
    lines = [f"status={report.status.value}"]
    if report.violation is not None:
        v = report.violation
        lines += [
            f"step={v.step}",
            f"condition={v.condition}",
            f"witness={v.witness}",
        ]
    lines += [f"note={d}" for d in report.diagnostics]
    _write(out, "violation.txt", "\n".join(lines) + "\n")
    return 1


# ---------------------------------------------------------------------------
# Subcommands


def _expression(text: str, variables: tuple, line: Optional[int], field: str) -> Callable:
    """Compile a config expression into a function that reads a value that
    raises ArithmeticError (a float 1/0 or 10**400) as NaN, which the solve
    reports."""
    try:
        fn = compile_expression(text, variables)
    except ExpressionError as exc:
        raise ConfigError(str(exc), line=line, field=field)

    def total(*args):
        try:
            return fn(*args)
        except ArithmeticError:
            return math.nan

    return total


# A λ-series that its tail bound cannot settle is traced to 2·budget terms.
MAX_BUDGET = MAX_CERTIFICATE_TERMS // 2
# The validators draw all trials at once, and the falsifier keeps each distinct draw.
MAX_TRIALS = 1_000_000
# The deepest dyadic ladder whose bottom rung 2**-depth is above ATOL (39): no
# nonnegative sum is strictly below a deeper one, so its solve never certifies.
MAX_SOLVE_LADDER_DEPTH = -math.frexp(ATOL)[1]

# One row per config key: (key, type, default, minimum, maximum).
FREDHOLM_TABLE = (
    ("interval_a", float, 0.0, None, None),
    ("interval_b", float, 1.0, None, None),
    ("nodes", int, 101, 2, MAX_NODES),
    ("kernel", str, REQUIRED, None, None),
    ("majorant", str, None, None, None),  # required for expr kernels, refused for others
    ("f", str, "0", None, None),
    ("ladder_depth", int, 20, 1, MAX_SOLVE_LADDER_DEPTH),
    ("budget", int, 200, 1, MAX_BUDGET),
    ("certificate_budget", int, 800, 1, MAX_CERTIFICATE_TERMS),
    ("seed", int, 0, None, None),
    ("force", boolean, False, None, None),
)
COUPLED_TABLE = (
    ("f", str, REQUIRED, None, None),
    ("x0", finite_float, REQUIRED, None, None),
    ("y0", finite_float, REQUIRED, None, None),
    ("lam_u", finite_float, REQUIRED, 0.0, None),
    ("lam_v", finite_float, REQUIRED, 0.0, None),
    ("budget", int, 200, 1, MAX_BUDGET),
)


def cmd_solve_fredholm(args: argparse.Namespace) -> int:
    cfg, lines = read_config(Path(args.config).read_text(), FREDHOLM_TABLE)
    a, b, m = cfg["interval_a"], cfg["interval_b"], cfg["nodes"]
    grid = None
    with contextlib.suppress(ValueError), np.errstate(all="ignore"):  # b - a may overflow
        if math.isfinite(a) and math.isfinite(b) and a < b:
            grid = Grid.trapezoid(a, b, m)
    if grid is None:
        raise ConfigError(
            f"need a finite interval_a < interval_b with {m} distinct nodes, not [{a!r}, {b!r}]",
            line=lines["interval_b"],
            field="interval_b",
        )

    kline, kraw = lines["kernel"], cfg["kernel"]
    parts = kraw.split(None, 1)
    kname = parts[0] if parts else ""
    qline, qfield = kline, "kernel"
    if kname == "constant":
        if len(parts) != 2:
            raise ConfigError("usage: kernel = constant <c>", line=kline, field="kernel")
        try:
            c = float(parts[1])
        except ValueError:
            raise ConfigError(f"not a number: {parts[1]!r}", line=kline, field="kernel")
        q = lambda t, s: c + 0.0 * t * s
        g = lambda t, s, x: c * x + 0.0 * t * s
        qdescr = f"constant {c}"
    elif kname == "product_ts":
        q = lambda t, s: t * s
        g = lambda t, s, x: t * s * x
        qdescr = "t*s*x"
    elif kname == "expr":
        if len(parts) != 2:
            raise ConfigError("usage: kernel = expr <expression over t,s,x>", line=kline, field="kernel")
        g = _expression(parts[1], ("t", "s", "x"), kline, "kernel")
        qline, qraw, qfield = lines["majorant"], cfg["majorant"], "majorant"
        if qraw is None:
            raise ConfigError("missing required key", field="majorant")
        q = _expression(qraw, ("t", "s"), qline, "majorant")
        qdescr = f"expr {parts[1]}"
    else:
        raise ConfigError(f"unknown kernel {kname!r}", line=kline, field="kernel")
    if kname != "expr" and cfg["majorant"] is not None:
        message = f"only an expr kernel takes a majorant, not {kname}"
        raise ConfigError(message, line=lines["majorant"], field="majorant")

    fline = lines["f"]
    f_expr = _expression(cfg["f"], ("t",), fline, "f")

    kernel = KernelSpec(Q=q, g=g, f=lambda t: f_expr(t) * np.ones_like(np.asarray(t, dtype=float)))
    ladder = grid_ladder(m, cfg["ladder_depth"])
    out = Path(args.out)

    try:
        with np.errstate(all="ignore"):
            x, report, cert = solve_fredholm(
                kernel,
                grid,
                ladder=ladder,
                budget=cfg["budget"],
                certificate_budget=cfg["certificate_budget"],
                force=args.force or cfg["force"],
                seed=cfg["seed"],
            )
    except InvalidKernel as exc:
        line, field = {"f": (fline, "f"), "g": (kline, "kernel")}.get(exc.part, (qline, qfield))
        raise ConfigError(str(exc), line=line, field=field)
    except CertificateNotConvergent as exc:
        cert = exc.certificate
        _write(out, "certificate.csv", certificate_csv(cert))
        _write(
            out,
            "report.txt",
            f"command=solve-fredholm kernel=({qdescr})\nrefused={exc}\n" + certificate_text(cert),
        )
        print(f"refused: {exc}")
        return 1

    _write(out, "certificate.csv", certificate_csv(cert))
    if x is not None:
        _write(out, "solution.csv", solution_csv(grid, x))
        if report.trace is not None:
            _write(out, "trace.csv", trace_csv(report.trace))
    header = f"command=solve-fredholm kernel=({qdescr})\n" + certificate_text(cert)
    return _finish_solve(out, report, header, "solve-fredholm")


def _solve_catalog_map(entry: catalog.MapEntry, driver: str, x0: float, budget: int) -> SolveReport:
    """Run a catalog map through the named driver, on its space and with its own data."""
    return solve_with_driver(
        driver,
        entry.space,
        MapSpec(apply=entry.fn, order_leq=operator.le),
        x0,
        budget,
        lam=entry.lam,
        caristi=entry.caristi,
        meir_keeler=entry.meir_keeler,
        sample_pairs=entry.sample_pairs,
    )


def cmd_solve_map(args: argparse.Namespace) -> int:
    entry = catalog.get_map(args.map)  # argparse takes only catalog names
    x0 = args.x0 if args.x0 is not None else entry.x0_for(args.driver)
    out = Path(args.out)
    with np.errstate(all="ignore"):
        report = _solve_catalog_map(entry, args.driver, x0, args.budget)

    if report.trace is not None:
        _write(out, "trace.csv", trace_csv(report.trace))
    header = f"command=solve-map map={entry.name} ({entry.descr}) driver={args.driver} x0={x0!r}\n"
    return _finish_solve(out, report, header, f"solve-map {entry.name} [{args.driver}]")


def cmd_solve_coupled(args: argparse.Namespace) -> int:
    cfg, lines = read_config(Path(args.config).read_text(), COUPLED_TABLE)
    f2 = _expression(cfg["f"], ("u", "v"), lines["f"], "f")
    lu, lv = cfg["lam_u"], cfg["lam_v"]
    # the table keeps the coefficients finite and nonnegative: the step
    # operator is this matrix on the positive cone
    lam = LambdaSequence.constant(
        lambda d: (lu * d[0] + lv * d[1], lu * d[1] + lv * d[0]),
        matrix=np.array([[lu, lv], [lv, lu]]),
    )
    space = catalog.get_space("real_abs").space
    with np.errstate(all="ignore"):
        report = coupled_fixed_point(
            space, lambda u, v: float(f2(u, v)), cfg["x0"], cfg["y0"], lam, cfg["budget"]
        )
    out = Path(args.out)
    if report.trace is not None:
        steps = enumerate(report.trace.points)
        rows = (f"{i},{j},{format_value(v)}" for i, p in steps for j, v in enumerate(p.values, 1))
        _write(out, "trace.csv", _csv("step,index,value", rows))
    if report.fixed_point is not None:
        rows = (f"{j},{format_value(v)}" for j, v in enumerate(report.fixed_point.values, 1))
        _write(out, "profile.csv", _csv("index,value", rows))
    return _finish_solve(out, report, f"command=solve-coupled f=({cfg['f']})\n", "solve-coupled")


def cmd_check_space(args: argparse.Namespace) -> int:
    try:
        entry = catalog.get_space(args.name)
    except KeyError as exc:
        raise ConfigError(exc.args[0], field="name")
    if args.fw is not None and entry.fw_sampler is None:
        raise ConfigError(f"space {args.name!r} has no falsification sampler", field="fw")
    out = Path(args.out)
    failed = False
    lines = [f"command=check-space name={args.name} seed={args.seed}"]

    do_axioms = args.axioms or args.fw is None
    if do_axioms:
        rep = validate_space(entry.space, entry.samples, args.trials, seed=args.seed)
        lines.append(rep.render())
        if not rep.ok:
            failed = True
            _write(
                out,
                "counterexample.txt",
                "\n".join(c.render() for c in rep.failures) + "\n",
            )

    if args.fw is not None:
        cex = falsify_frechet_wilson(
            entry.space, args.fw, entry.fw_sampler(args.fw), args.trials, seed=args.seed
        )
        if cex is None:
            lines.append(
                f"frechet-wilson[{args.fw}]: NOT FALSIFIED after {args.trials} trials"
            )
        else:
            failed = True
            lines.append(f"frechet-wilson[{args.fw}]: FALSIFIED")
            _write(out, "counterexample.txt", cex.to_text() + "\n")

    _write(out, "report.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 1 if failed else 0


def cmd_demo(args: argparse.Namespace) -> int:
    try:
        name, _ = catalog._parse_name(args.name, ("lambda_discrimination", "driver_agreement"))
        space = catalog.get_space(args.name).space if name == "omega_counterexample" else None
    except KeyError as exc:
        raise ConfigError(exc.args[0], field="name")
    verdicts = ("expected pattern reproduced", "UNEXPECTED pattern")
    if name == "omega_counterexample":
        # evidence runs twice as far as the witness cutoff, so a quiet end of
        # the prefix cannot fake convergence
        prefix = catalog.interleaved_sequence(240)
        trace = PointTrace.from_points(space, prefix, budget=120)
        cw = is_cw_sequence(space, trace)
        cauchy = is_cauchy_sequence(space, trace)
        conv = converges_to(space, trace, ("inf",))
        lines = [
            "demo=omega_counterexample prefix=240 witness_budget=120",
            f"consecutive_distance_series_cauchy={cw is Decision.NULL}",
            f"cauchy_sequence={cauchy is Decision.NULL}",
            f"converges_to_infinity={conv is Decision.NULL}",
        ]
        ok = (
            cw is Decision.NULL
            and cauchy is Decision.NOT_NULL_WITHIN
            and conv is Decision.NULL
        )
    elif name == "lambda_discrimination":
        ladder = dyadic_ladder(4)
        monoid = catalog.real_nonneg_monoid()
        budget = 10_000
        lam1 = LambdaSequence(
            op_at=lambda n: (lambda t, n=n: (n / (n + 1)) * t), commuting=True
        )
        lam2 = LambdaSequence(
            op_at=lambda n: (lambda t, n=n: (n / (n + 1)) ** 2 * t), commuting=True
        )
        t1 = lambda_product_trace(lam1, 1.0, 2 * budget, budget=budget)
        t2 = lambda_product_trace(lam2, 1.0, 2 * budget, budget=budget)
        null1, null2 = (is_null_trace(t, ladder, monoid) for t in (t1, t2))
        series1, series2 = (cauchy_series_check(t, ladder, monoid) for t in (t1, t2))
        lines = [
            "demo=lambda_discrimination",
            f"linear_rate: null={null1.value} series={series1.value}",
            f"squared_rate: null={null2.value} series={series2.value}",
        ]
        ok = (
            null1 is Decision.NULL
            and series1 is Decision.NOT_NULL_WITHIN
            and series2 is Decision.NULL
        )
    elif name == "driver_agreement":
        entry = catalog.get_map("halving")
        space = entry.space
        reports = {
            driver: _solve_catalog_map(entry, driver, entry.x0_for(driver), 200)
            for driver in ("sequential", "caristi", "meir-keeler", "monotone")
        }
        lines = [f"demo=driver_agreement map={entry.descr}"]
        for dname, rep in reports.items():
            lines.append(
                f"{dname}: {rep.status.value} fixed_point={format_value(rep.fixed_point)}"
            )
        ok = all(r.status is SolveStatus.CERTIFIED for r in reports.values())
        pts = [r.fixed_point for r in reports.values()]
        bottom = space.ladder.bottom
        ok = ok and all(
            space.monoid.strictly_below(space.distance(p, q), bottom)
            for p in pts
            for q in pts
        )
        verdicts = ("all drivers agree", "drivers DISAGREE")
    else:
        raise ConfigError(f"unknown demo {args.name!r}", field="name")
    lines.append(verdicts[0] if ok else verdicts[1])
    _write(Path(args.out), "report.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def argument(kind: Callable[[str], Any], minimum: Any = None, maximum: Any = None) -> Callable:
    """An argparse type: `parse_value` with this kind and range."""

    def convert(text: str) -> Any:
        try:
            return parse_value(kind, text, minimum, maximum)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process and shared: do not change it."""
    parser = argparse.ArgumentParser(
        prog="monofix",
        description="solvers and falsifiers for monoid-valued distance spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-fredholm", help="solve an integral equation from a config file")
    p.add_argument("config")
    p.add_argument("--out", default="monofix-out")
    p.add_argument("--force", action="store_true", help="iterate past a failing certificate")

    p = sub.add_parser("solve-map", help="run one named map through one driver")
    p.add_argument("--map", required=True, choices=catalog.MAP_NAMES)
    p.add_argument("--driver", required=True, choices=CLI_DRIVER_NAMES)
    p.add_argument("--x0", type=argument(finite_float), default=None)
    p.add_argument("--budget", type=argument(int, 1, MAX_BUDGET), default=200)
    p.add_argument("--out", default="monofix-out")

    p = sub.add_parser("solve-coupled", help="solve a coupled fixed point from a config file")
    p.add_argument("config")
    p.add_argument("--out", default="monofix-out")

    p = sub.add_parser("check-space", help="validate axioms or falsify chain properties")
    p.add_argument("name")
    p.add_argument("--axioms", action="store_true")
    p.add_argument("--fw", choices=("weak", "standard", "strong"), default=None)
    p.add_argument("--trials", type=argument(int, 1, MAX_TRIALS), default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="monofix-out")

    p = sub.add_parser("demo", help="run a canned demonstration")
    p.add_argument("name")
    p.add_argument("--out", default="monofix-out")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # a command runs `cmd_<command>`, looked up at call time: the parser is
    # built once and holds no function of this module
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
