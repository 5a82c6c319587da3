"""CLI exit codes, artifacts, config diagnostics, and determinism."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monofix
from monofix import Grid, InvalidKernel, KernelSpec, certify_convergence, grid_ladder
from monofix.catalog import MAP_NAMES, SPACE_NAMES
from monofix.cli import certificate_csv, main, parse_config, ConfigError
from monofix.engine import CLI_DRIVER_NAMES

TS_CONFIG = """\
# ts-kernel problem
interval_a = 0
interval_b = 1
nodes = 201
kernel = product_ts
f = t
budget = 100
seed = 7
"""

DIVERGENT_CONFIG = """\
nodes = 41
kernel = constant 1.1
f = 1
seed = 7
"""

COUPLED_CONFIG = """\
f = 0.3*u - 0.2*v + 1
x0 = -10
y0 = 10
lam_u = 0.3
lam_v = 0.2
budget = 400
"""


def run(argv):
    return main([str(a) for a in argv])


def test_parse_config_errors_carry_line_and_field():
    with pytest.raises(ConfigError) as err:
        parse_config("a = 1\nnot a pair\n")
    assert "line 2" in str(err.value)
    cfg = parse_config("a = 1\n# comment\nb = x y\n")
    assert cfg == {"a": (1, "1"), "b": (3, "x y")}
    with pytest.raises(ConfigError):
        parse_config("a = 1\na = 2\n")


def test_solve_fredholm_ts(tmp_path):
    cfg = tmp_path / "ts.cfg"
    cfg.write_text(TS_CONFIG)
    out = tmp_path / "out"
    assert run(["solve-fredholm", cfg, "--out", out]) == 0
    solution = (out / "solution.csv").read_text().splitlines()
    assert solution[0] == "node,value"
    rows = [line.split(",") for line in solution[1:]]
    nodes = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(values - 1.5 * nodes)) < 1e-4
    assert (out / "certificate.csv").exists()
    assert "status=certified" in (out / "report.txt").read_text()


def test_solve_fredholm_refuses_divergent(tmp_path):
    cfg = tmp_path / "div.cfg"
    cfg.write_text(DIVERGENT_CONFIG)
    out = tmp_path / "out"
    assert run(["solve-fredholm", cfg, "--out", out]) == 1
    # the certificate artifact is still written on refusal
    assert (out / "certificate.csv").exists()
    assert "refused" in (out / "report.txt").read_text()


def test_solve_fredholm_malformed_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nodes = many\nkernel = product_ts\n")
    assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    cfg.write_text("nodes = 41\nkernel = mystery\n")
    assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    assert run(["solve-fredholm", tmp_path / "missing.cfg"]) == 2


@pytest.mark.parametrize(
    "lines, error",
    [
        ("kernel = expr 0.1*x/t\nmajorant = 0.1/t\nf = t\n", "field 'majorant'"),  # infinite at t = 0
        ("kernel = expr 0.1*(t-0.5)*x\nmajorant = 0.1*(t-0.5)\nf = t\n", "field 'majorant'"),  # negative
        ("kernel = constant -0.5\nf = 1\n", "field 'kernel'"),
        ("kernel = product_ts\nf = 1/t\n", "field 'f'"),
        ("kernel = constant 0.5\nmajorant = 1\nf = t\n", "field 'majorant'"),  # a built-in kernel has its own
        ("kernel = product_ts 3\nf = 1\n", "line 2: field 'kernel': usage: kernel = product_ts\n"),
        ("kernel = constant\nf = 1\n", "line 2: field 'kernel': usage: kernel = constant <c>\n"),
        ("kernel = constant abc\nf = 1\n", "line 2: field 'kernel': not a number: 'abc'\n"),
        ("kernel = expr\nf = 1\n", "line 2: field 'kernel': usage: kernel = expr <expression over t,s,x>\n"),
    ],
    ids=[
        "majorant-not-finite", "majorant-negative", "kernel-negative", "f-not-finite", "majorant-not-expr",
        "product-ts-trailing-text", "constant-without-value", "constant-not-a-number", "expr-without-expression",
    ],
)
def test_solve_fredholm_invalid_kernel_data_is_config_error(tmp_path, capsys, lines, error):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nodes = 41\n" + lines)
    with np.errstate(divide="ignore"):
        assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line ") and error in err
    assert not (tmp_path / "o").exists()


def test_solve_fredholm_expr_kernel_needs_a_majorant(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nodes = 41\nkernel = expr 0.5*t*s*x\nf = t\n")
    assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == "config error: field 'majorant': missing required key\n"
    assert not (tmp_path / "o").exists()


def test_solve_fredholm_complex_g_blames_the_kernel_line(tmp_path, capsys, monkeypatch):
    # the expression language cannot make a complex g, so the solve raises
    # the refusal a complex g gets; the majorant is on another line
    message = "g(t, s, x) is not real at t=0.5, s=0.25: 1j"

    def refuse(*args, **kwargs):
        raise InvalidKernel("g", message)

    monkeypatch.setattr(monofix.cli, "solve_fredholm", refuse)
    cfg = tmp_path / "g.cfg"
    cfg.write_text("nodes = 41\nkernel = expr 0.5*t*s*x\nmajorant = 0.5*t*s\nf = t\n")
    assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"config error: line 2: field 'kernel': {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "lines, field",
    [
        ("budget = -1\n", "budget"),
        ("certificate_budget = 0\n", "certificate_budget"),
        ("ladder_depth = 0\n", "ladder_depth"),
        ("interval_a = 1\ninterval_b = 0\n", "interval_b"),
        # intervals with no grid of that many strictly increasing nodes
        ("interval_a = -1e308\ninterval_b = 1e308\n", "interval_b"),
        ("interval_a = 1\ninterval_b = 1.0000000000000002\nnodes = 3\n", "interval_b"),
        ("interval_a = 0\ninterval_b = 1e-320\nnodes = 8192\n", "interval_b"),
    ],
    ids=[
        "budget-negative",
        "certificate-budget-zero",
        "ladder-depth-zero",
        "interval-reversed",
        "interval-length-overflows",
        "interval-one-ulp",
        "interval-subnormal",
    ],
)
def test_solve_fredholm_out_of_range_number_is_config_error(tmp_path, capsys, lines, field):
    cfg = tmp_path / "bad.cfg"
    nodes = "" if "nodes = " in lines else "nodes = 41\n"
    cfg.write_text(nodes + "kernel = product_ts\nf = t\n" + lines)
    assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line ") and f"field {field!r}" in err
    assert not (tmp_path / "o").exists()


def test_solve_fredholm_nan_iterate_is_a_recorded_violation(tmp_path):
    # g is 0/0 at the node t = 0, which the majorant audit never samples
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("nodes = 41\nkernel = expr 0.5*t*s*x*(t/t)\nmajorant = 0.5*t*s\nf = t\n")
    out = tmp_path / "o"
    with np.errstate(invalid="ignore"):
        assert run(["solve-fredholm", cfg, "--out", out]) == 1
    record = (out / "violation.txt").read_text()
    assert "status=hypothesis_violated" in record
    assert "step=0\ncondition=non_finite_iterate\n" in record
    assert not (out / "solution.csv").exists()


def test_solve_fredholm_expression_kernel(tmp_path):
    cfg = tmp_path / "expr.cfg"
    cfg.write_text(
        "nodes = 41\nkernel = expr 0.25*x + 0.0*t*s\nmajorant = 0.25 + 0.0*t*s\nf = 1\nseed = 1\n"
    )
    out = tmp_path / "out"
    assert run(["solve-fredholm", cfg, "--out", out]) == 0
    rows = (out / "solution.csv").read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(values - 4.0 / 3.0)) < 1e-6


def test_solve_map_exit_codes(tmp_path):
    assert run(["solve-map", "--map", "halving", "--driver", "sequential", "--out", tmp_path / "a"]) == 0
    assert run(["solve-map", "--map", "increment", "--driver", "meir-keeler", "--out", tmp_path / "b"]) == 1
    trace = (tmp_path / "a" / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,point,consec,flags"
    assert len(trace) > 2


@pytest.mark.parametrize(
    "argv, rows",
    [
        # a step check fails on step 0: its flag names the condition
        (
            ["--map", "increment", "--driver", "caristi"],
            ['0,"0.0","1.0","violated:potential_descent"', '1,"1.0","",""'],
        ),
        # a step check fails on step 1, after one passing step
        (
            ["--map", "increment", "--driver", "sequential"],
            [
                '0,"0.0","1.0","ok"',
                '1,"1.0","1.0","violated:graduated_contraction"',
                '2,"2.0","",""',
            ],
        ),
        # the seed order fails before the orbit: no step is checked, no flag
        (
            ["--map", "halving", "--driver", "monotone", "--x0", "8"],
            ['0,"8.0","4.0",""', '1,"4.0","",""'],
        ),
    ],
    ids=["caristi-step-0", "sequential-step-1", "monotone-seed-order"],
)
def test_solve_map_trace_flags(tmp_path, argv, rows):
    assert run(["solve-map", *argv, "--out", tmp_path]) == 1
    expected = "\n".join(["step,point,consec,flags", *rows]) + "\n"
    assert (tmp_path / "trace.csv").read_text() == expected


def test_solve_coupled(tmp_path):
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text(COUPLED_CONFIG)
    out = tmp_path / "out"
    assert run(["solve-coupled", cfg, "--out", out]) == 0
    profile = (out / "profile.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in profile[1:]]
    assert all(abs(v - 10.0 / 9.0) < 1e-6 for v in values)


@pytest.mark.parametrize("f", ["u/(v-v)", "u**1000", "exp(1000*u*u)"])
def test_solve_coupled_non_finite_step_is_a_violation(tmp_path, f):
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text(COUPLED_CONFIG.replace("0.3*u - 0.2*v + 1", f))
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert run(["solve-coupled", cfg, "--out", out]) == 1
    assert "status=hypothesis_violated" in (out / "report.txt").read_text()
    violation = (out / "violation.txt").read_text().splitlines()
    assert violation[:3] == ["status=hypothesis_violated", "step=0", "condition=non_finite_iterate"]
    assert not (out / "profile.csv").exists()


@pytest.mark.parametrize(
    "lam_u, lam_v, matrix",
    [("0.3", "0.2", [[0.3, 0.2], [0.2, 0.3]]), ("0.7", "0.5", [[0.7, 0.5], [0.5, 0.7]]),
     ("-0.1", "0.2", None), ("nan", "0.2", None), ("0.3", "inf", None)],
)
def test_solve_coupled_marks_only_nonnegative_finite_coefficients(
    tmp_path, monkeypatch, capsys, lam_u, lam_v, matrix
):
    # a coefficient that is negative or not finite is a config error: no
    # solve starts, so every solve that does start gets the matrix
    seen = []

    def capture(space, f, x0, y0, lam, budget):
        seen.append(lam.matrix)
        return monofix.SolveReport(status=monofix.SolveStatus.BUDGET_EXHAUSTED)

    monkeypatch.setattr(monofix.cli, "coupled_fixed_point", capture)
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text(COUPLED_CONFIG.replace("lam_u = 0.3", f"lam_u = {lam_u}").replace("lam_v = 0.2", f"lam_v = {lam_v}"))
    code = run(["solve-coupled", cfg, "--out", tmp_path / "out"])
    if matrix is None:
        field, line = ("lam_u", 4) if lam_u != "0.3" else ("lam_v", 5)
        assert code == 2 and seen == []
        assert capsys.readouterr().err.startswith(f"config error: line {line}: field {field!r}: ")
    else:
        assert code == 1 and np.array_equal(seen[0], matrix)


def test_solve_coupled_builds_no_literal_series(tmp_path, monkeypatch):
    calls = []
    for name in ("lambda_product_trace", "cauchy_series_window_report"):
        original = getattr(monofix.engine, name)
        monkeypatch.setattr(
            monofix.engine, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text(COUPLED_CONFIG)
    assert run(["solve-coupled", cfg, "--out", tmp_path / "out"]) == 0
    assert "witness N=24" in (tmp_path / "out" / "report.txt").read_text()
    assert calls == []


def test_check_space_axioms_pass(tmp_path):
    assert run(
        ["check-space", "real_abs", "--axioms", "--trials", "2000", "--seed", "5", "--out", tmp_path / "o"]
    ) == 0


def test_check_space_broken_fails_with_artifact(tmp_path):
    out = tmp_path / "o"
    code = run(
        ["check-space", "broken_pseudo_as_distance", "--trials", "1000", "--seed", "5", "--out", out]
    )
    assert code == 1
    assert (out / "counterexample.txt").exists()


def test_check_space_fw_strong_squared_falsified(tmp_path):
    out = tmp_path / "o"
    code = run(
        ["check-space", "squared", "--fw", "strong", "--trials", "5000", "--seed", "5", "--out", out]
    )
    assert code == 1
    record = (out / "counterexample.txt").read_text()
    assert "fw-strong" in record and "point[0]" in record


def test_check_space_fw_snowflake_not_falsified(tmp_path):
    code = run(
        ["check-space", "snowflake", "--fw", "strong", "--trials", "3000", "--seed", "5", "--out", tmp_path / "o"]
    )
    assert code == 0


def test_demo_omega(tmp_path):
    out = tmp_path / "o"
    assert run(["demo", "omega_counterexample", "--out", out]) == 0
    report = (out / "report.txt").read_text()
    assert "cauchy_sequence=False" in report
    assert "consecutive_distance_series_cauchy=True" in report
    assert "converges_to_infinity=True" in report


def test_demo_driver_agreement(tmp_path):
    assert run(["demo", "driver_agreement", "--out", tmp_path / "o"]) == 0


def test_demo_lambda_discrimination(tmp_path):
    assert run(["demo", "lambda_discrimination", "--out", tmp_path / "o"]) == 0


@pytest.mark.parametrize(
    "name",
    [
        "omega_counterexample{0}",
        "omega_counterexample{2000000}",
        "omega_counterexample{}",
        "omega_counterexamplexyz",
        "driver_agreement{3}",
        "no_such_demo",
    ],
)
def test_demo_bad_name_is_config_error(tmp_path, capsys, name):
    assert run(["demo", name, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'name': ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_demo_omega_takes_its_parameter(tmp_path):
    assert run(["demo", "omega_counterexample{3}", "--out", tmp_path / "three"]) == 0
    assert run(["demo", "omega_counterexample{128}", "--out", tmp_path / "explicit"]) == 0
    assert run(["demo", "omega_counterexample", "--out", tmp_path / "default"]) == 0
    report = (tmp_path / "default" / "report.txt").read_bytes()
    assert (tmp_path / "explicit" / "report.txt").read_bytes() == report


# Every `solve-map` map x driver run, at the defaults and at a far seed with
# a short budget, the three demos and the criterion-8 `solve-coupled` config.
# `solve-fredholm` is left out: its solution bytes follow the BLAS thread count.
GOLDEN_RUNS = {
    " ".join(["solve-map", name, driver, *extra]): [
        "solve-map", "--map", name, "--driver", driver, *extra
    ]
    for extra in ([], ["--x0", "8", "--budget", "20"])
    for name in MAP_NAMES
    for driver in CLI_DRIVER_NAMES
}
GOLDEN_RUNS.update(
    {f"demo {name}": ["demo", name] for name in ("omega_counterexample", "lambda_discrimination", "driver_agreement")}
)
GOLDEN_RUNS["solve-coupled criterion 8"] = ["solve-coupled", "coupled.cfg"]
# the axiom audits at a trial count that the benchmark does not run and at
# one far past it
GOLDEN_RUNS.update(
    {
        f"check-space {name} axioms trials={trials}": [
            "check-space", name, "--axioms", "--trials", str(trials), "--seed", "11"
        ]
        for name in SPACE_NAMES
        for trials in (37, 5000)
    }
)
GOLDEN_PATH = Path(__file__).with_name("golden_artifacts.json")


def golden_record(argv: list, tmp_path: Path) -> dict:
    """The exit code of one CLI run and the sha256 of each file it writes."""
    (tmp_path / "coupled.cfg").write_text(COUPLED_CONFIG)
    argv = [tmp_path / a if a == "coupled.cfg" else a for a in argv]
    out = tmp_path / "out"
    record = {"exit": run([*argv, "--out", out])}
    for path in sorted(out.iterdir()):
        record[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return record


@pytest.mark.parametrize("key", sorted(GOLDEN_RUNS))
def test_artifacts_match_golden_hashes(tmp_path, key):
    """Each run's exit code and artifact bytes, against the hashes recorded
    with `python3 tests/test_cli.py` at commit 019448c."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden_record(GOLDEN_RUNS[key], tmp_path) == golden[key]


def test_determinism_byte_identical_artifacts(tmp_path):
    cfg = tmp_path / "ts.cfg"
    cfg.write_text(TS_CONFIG)
    for cmd in (
        ["solve-fredholm", cfg],
        ["check-space", "snowflake", "--fw", "strong", "--trials", "2000", "--seed", "11"],
        ["solve-map", "--map", "halving", "--driver", "monotone"],
    ):
        a, b = tmp_path / "run_a", tmp_path / "run_b"
        assert run(cmd + ["--out", a]) == run(cmd + ["--out", b])
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes(), f"{cmd}: {f} differs"
        for p in (*a.iterdir(), *b.iterdir()):
            p.unlink()


def test_exit_one_solve_writes_violation_record(tmp_path):
    out = tmp_path / "o"
    assert run(["solve-map", "--map", "increment", "--driver", "meir-keeler", "--out", out]) == 1
    record = (out / "violation.txt").read_text()
    assert "status=hypothesis_violated" in record
    assert "condition=epsilon_delta_contraction" in record


@pytest.mark.parametrize(
    "argv",
    [
        ["check-space", "real_abs", "--fw", "weak", "--trials", "-5", "--seed", "0"],
        ["check-space", "real_abs", "--axioms", "--trials", "0", "--seed", "0"],
        ["check-space", "real_abs", "--axioms", "--trials", "many", "--seed", "0"],
        ["solve-map", "--map", "halving", "--driver", "sequential", "--budget", "0"],
    ],
    ids=["trials-negative", "trials-zero", "trials-not-int", "budget-zero"],
)
def test_counts_below_one_exit_two(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exited:
        run(argv + ["--out", tmp_path / "o"])
    assert exited.value.code == 2
    assert "error: argument --" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name",
    [
        "gauge{0}",
        "gauge{6}",
        "omega_counterexample{-3}",
        "uniform_pseudometric{x}",
        "real_abs{3}",
        "product{real_abs,real_abs,zzz}",
        "product{real_abs,uniform_pseudometric{8},sigma}",
        "product{}",
    ],
)
def test_check_space_bad_name_parameter_is_config_error(tmp_path, capsys, name):
    code = run(["check-space", name, "--axioms", "--trials", "10", "--seed", "0", "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'name': '") and '"' not in err
    assert not (tmp_path / "o").exists()


def test_check_space_fw_without_a_sampler_exits_two_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(monofix.cli, "validate_space", lambda *a, **k: pytest.fail("ran the axioms"))
    argv = ["check-space", "broken_pseudo_as_distance", "--axioms", "--fw", "weak", "--trials", "50"]
    assert run([*argv, "--seed", "0", "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == (
        "config error: field 'fw': space 'broken_pseudo_as_distance' has no falsification sampler\n"
    )
    assert not (tmp_path / "o").exists()


def test_unknown_name_error_is_the_message_itself(tmp_path, capsys):
    assert run(["check-space", "gauge{0}", "--seed", "0", "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == (
        "config error: field 'name': 'gauge{0}': the parameter must be an integer from 1 to 5\n"
    )


@pytest.mark.parametrize(
    "command, text, line, field",
    [
        ("solve-fredholm", "kernel = product_ts\nf = t\nnodse = 401\nbogus = 1\n", 3, "nodse"),
        ("solve-coupled", COUPLED_CONFIG.replace("budget = 400", "budgte = 400"), 6, "budgte"),
    ],
    ids=["solve-fredholm", "solve-coupled"],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, command, text, line, field):
    # a typo must not fall back to a default silently
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    assert run([command, cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: field {field!r}: unknown key")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("nodes", [8193, 10**10])
def test_nodes_above_the_cap_is_config_error(tmp_path, capsys, nodes):
    # two m x m arrays at the cap of 8192 nodes take 1 GiB
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"kernel = product_ts\nnodes = {nodes}\n")
    assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: line 2: field 'nodes': must be at most 8192: {nodes}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value, cap",
    [("certificate_budget", 10**10, 16384), ("ladder_depth", 40, 39), ("ladder_depth", 1075, 39)],
)
def test_solve_fredholm_count_above_its_cap_is_config_error(tmp_path, capsys, key, value, cap):
    # 16384 terms at 8192 nodes make a 1 GiB certificate block; a ladder one
    # rung deeper than 39 has the bottom rung 2**-40 below ATOL, so no
    # nonnegative sum is strictly below it, and 2**-1075 == 0.0
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"nodes = 11\nkernel = product_ts\n{key} = {value}\n")
    assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: line 3: field {key!r}: must be at most {cap}: {value}\n"
    assert not (tmp_path / "o").exists()


def test_deepest_ladder_ends_with_a_record(tmp_path, capsys):
    # 2**-39 is the smallest dyadic rung above ATOL: the bottom rung of the
    # deepest ladder a solve accepts, and still one that a sum can be below
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("nodes = 11\nkernel = product_ts\nf = t\nladder_depth = 39\n")
    out = tmp_path / "o"
    assert run(["solve-fredholm", cfg, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert "status=certified" in (out / "report.txt").read_text().splitlines()
    assert (out / "certificate.csv").exists()


@pytest.mark.parametrize("module", ["monofix", "monofix.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("kernel = product_ts\nnodes = 8193\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(monofix.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    argv = [sys.executable, "-m", module, "solve-fredholm", str(cfg), "--out", str(tmp_path / "o")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "config error: line 2: field 'nodes': must be at most 8192: 8193\n"
    assert not (tmp_path / "o").exists()


def reference_certificate_csv(cert):
    """`certificate_csv` formatting every partial sum anew."""
    lines = ["n,sup_increment,sup_partial"]
    for i, (inc, part) in enumerate(zip(cert.sup_increments, cert.sup_partials), start=1):
        lines.append(f"{i},{inc!r},{part!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kernel", ["product_ts", "constant 0.3", "constant 0.9", "constant 1.1"])
def test_certificate_csv_matches_row_by_row_writer(kernel):
    if kernel == "product_ts":
        k = KernelSpec(Q=lambda t, s: t * s, g=lambda t, s, x: t * s * x, f=lambda t: t)
    else:
        c = float(kernel.split()[1])
        k = KernelSpec(
            Q=lambda t, s: c + 0.0 * t * s, g=lambda t, s, x: c * x + 0.0 * t * s, f=lambda t: 1.0 + 0.0 * t
        )
    cert = certify_convergence(k, Grid.trapezoid(0.0, 1.0, 101), grid_ladder(101), 800)
    assert certificate_csv(cert).encode() == reference_certificate_csv(cert).encode()
    if kernel != "constant 1.1":  # converged: the partial sums repeat
        assert len(set(cert.sup_partials)) < len(cert.sup_partials)


@pytest.mark.parametrize(
    "key, value, line, message",
    [
        ("lam_u", "-0.1", 4, "must be at least 0.0: -0.1"),
        ("lam_u", "nan", 4, "not a finite number: 'nan'"),
        ("lam_u", "inf", 4, "not a finite number: 'inf'"),
        ("lam_v", "-inf", 5, "not a finite number: '-inf'"),
        ("budget", "0", 6, "must be at least 1: 0"),
        ("budget", "-5", 6, "must be at least 1: -5"),
        ("budget", "8193", 6, "must be at most 8192: 8193"),
        ("budget", str(10**9), 6, f"must be at most 8192: {10**9}"),
        *[(key, value, line, f"not a finite number: {value!r}")
          for key, line in (("x0", 2), ("y0", 3)) for value in ("nan", "inf", "-inf", "1e999")],
    ],
)
def test_solve_coupled_bad_coefficient_or_budget_is_config_error(tmp_path, capsys, key, value, line, message):
    # the step operator must map the positive cone into itself, a series its
    # tail bound cannot settle is traced to 2*budget terms, and a seed that is
    # not finite would be reported as a violation of f
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text("".join(
        f"{key} = {value}\n" if row.startswith(f"{key} =") else row + "\n"
        for row in COUPLED_CONFIG.splitlines()
    ))
    assert run(["solve-coupled", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"config error: line {line}: field {key!r}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value, bound", [(0, "at least 1"), (8193, "at most 8192"), (10**9, "at most 8192")])
def test_solve_fredholm_budget_out_of_range_is_config_error(tmp_path, capsys, value, bound):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"nodes = 11\nkernel = product_ts\nbudget = {value}\n")
    assert run(["solve-fredholm", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"config error: line 3: field 'budget': must be {bound}: {value}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("driver", ["sequential", "caristi", "meir-keeler", "monotone"])
@pytest.mark.parametrize("x0", ["nan", "inf", "-inf", "1e999"])
def test_solve_map_non_finite_x0_exits_two(tmp_path, capsys, driver, x0):
    with pytest.raises(SystemExit) as exited:
        run(["solve-map", "--map", "halving", "--driver", driver, f"--x0={x0}", "--out", tmp_path / "o"])
    assert exited.value.code == 2
    assert f"error: argument --x0: not a finite number: '{x0}'\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["8193", str(10**9)])
def test_solve_map_budget_above_the_cap_exits_two(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exited:
        run(["solve-map", "--map", "halving", "--driver", "sequential", "--budget", value, "--out", tmp_path / "o"])
    assert exited.value.code == 2
    assert f"error: argument --budget: must be at most 8192: {value}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_solve_map_budget_at_the_cap_runs(tmp_path):
    assert run(["solve-map", "--map", "halving", "--driver", "sequential", "--budget", "8192", "--out", tmp_path]) == 0


@pytest.mark.parametrize("value", ["1000001", "50000000"])
@pytest.mark.parametrize("mode", [["--axioms"], ["--fw", "weak"]])
def test_check_space_trials_above_the_cap_exits_two(tmp_path, capsys, monkeypatch, value, mode):
    # refused by the parser, before any trial is drawn
    for name in ("validate_space", "falsify_frechet_wilson"):
        monkeypatch.setattr(monofix.cli, name, lambda *a, **k: pytest.fail("drew trials"))
    with pytest.raises(SystemExit) as exited:
        run(["check-space", "real_abs", *mode, "--trials", value, "--seed", "0", "--out", tmp_path / "o"])
    assert exited.value.code == 2
    assert f"error: argument --trials: must be at most 1000000: {value}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_check_space_trials_at_the_cap_parse():
    args = monofix.cli.build_parser().parse_args(["check-space", "real_abs", "--trials", "1000000", "--seed", "0"])
    assert args.trials == monofix.cli.MAX_TRIALS == 1_000_000


@pytest.mark.parametrize(
    "command, text",
    [
        ("solve-fredholm", "nodes = 41\nkernel = expr 0.5*t*s*x*(t/t)\nmajorant = 0.5*t*s\nf = t\n"),
        ("solve-coupled", COUPLED_CONFIG.replace("0.3*u - 0.2*v + 1", "exp(1000*u*u)")),
    ],
    ids=["fredholm-zero-by-zero", "coupled-overflow"],
)
def test_non_finite_solve_is_a_verdict_not_a_warning(tmp_path, capsys, command, text):
    # no errstate here: under the suite's error::RuntimeWarning filter a
    # warning that escapes the command fails the run
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run([command, cfg, "--out", out]) == 1
    assert capsys.readouterr().err == ""
    assert "status=hypothesis_violated" in (out / "report.txt").read_text()
    assert "condition=non_finite_iterate\n" in (out / "violation.txt").read_text()


@pytest.mark.parametrize(
    "command, text, term, artifacts",
    [
        (
            "solve-fredholm",
            "nodes = 21\nkernel = expr 1e6*s*x\nmajorant = 1e6*s\nf = 1\nforce = true\n",
            54,
            ["certificate.csv", "report.txt", "violation.txt"],
        ),
        (
            "solve-coupled",
            "f = 0.3*u - 0.2*v + 1.0\nx0 = -10\ny0 = 10\nlam_u = 0\nlam_v = 1e300\n",
            2,
            ["report.txt", "violation.txt"],
        ),
        (
            "solve-coupled",
            "f = 0.3*u - 0.2*v + 1.0\nx0 = -10\ny0 = 10\nlam_u = 1e300\nlam_v = 1e300\n",
            2,
            ["report.txt", "violation.txt"],
        ),
    ],
    ids=["fredholm-forced-overflow", "coupled-overflow", "coupled-overflow-to-inf-only"],
)
def test_series_term_that_is_not_finite_ends_the_check(tmp_path, capsys, command, text, term, artifacts):
    # a series term overflows to inf and, but for the last case, the next
    # is 0*inf = nan: the check stops at the first such term, before the
    # window check would refuse the nan as not positive
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run([command, cfg, "--out", out]) == 1
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == artifacts
    report = (out / "report.txt").read_text()
    assert "status=budget_exhausted\n" in report
    assert f"note: window [{term},{term}] of the composed-product series sums to " in report
    assert "status=budget_exhausted\n" in (out / "violation.txt").read_text()


def _readme_key_blocks() -> dict[str, list[str]]:
    """The keys of each `<command>` key table in the README's config format."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks: dict[str, list[str]] = {}
    command = None
    for line in text.splitlines():
        if line.startswith("`solve-") and line.endswith("` keys:"):
            command = line[1:-len("` keys:")]
            blocks[command] = []
        elif command is not None and line.startswith("| `"):
            blocks[command].append(line.split("`")[1])
        elif command is not None and blocks[command] and not line.startswith("|"):
            command = None
    return blocks


def test_readme_lists_each_config_table():
    from monofix.cli import COUPLED_TABLE, FREDHOLM_TABLE

    blocks = _readme_key_blocks()
    assert blocks == {
        "solve-fredholm": [row[0] for row in FREDHOLM_TABLE],
        "solve-coupled": [row[0] for row in COUPLED_TABLE],
    }


if __name__ == "__main__":  # record the golden hashes of the current code
    import tempfile

    found = {}
    for key, argv in sorted(GOLDEN_RUNS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            found[key] = golden_record(argv, Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
