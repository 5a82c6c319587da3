"""Batch front-end: run solvers and falsifiers from configs, write artifacts.

Exit codes: 0 for certified / passing / not-falsified outcomes, 1 when a
hypothesis is violated or a counterexample is found (artifacts are still
written), 2 for configuration errors.  All artifacts are plain text or CSV
and contain no timestamps, so identical configs and seeds reproduce
byte-identical files.
"""
from __future__ import annotations

import argparse
import functools
import math
import operator
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import catalog
from ._util import format_value
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
from .monoid import MAX_LADDER_DEPTH, cauchy_series_check, dyadic_ladder, is_null_trace
from .multifix import coupled_fixed_point
from .reporting import Decision
from .spaces import (
    DistanceSpaceSpec,
    PointTrace,
    converges_to,
    falsify_frechet_wilson,
    is_cauchy_sequence,
    is_cw_sequence,
    validate_space,
)


class ConfigError(Exception):
    def __init__(self, message: str, line: Optional[int] = None, field: Optional[str] = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        prefix = ": ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.field = field


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


def _check_keys(cfg: dict, keys: tuple[str, ...]) -> None:
    """Reject the first key, in line order, that the command does not read."""
    for key, (line, _) in cfg.items():
        if key not in keys:
            raise ConfigError(f"unknown key; the keys are {', '.join(keys)}", line=line, field=key)


def _get(cfg: dict, key: str, default: Optional[str] = None) -> tuple[Optional[int], str]:
    if key in cfg:
        return cfg[key]
    if default is not None:
        return None, default
    raise ConfigError("missing required key", field=key)


def _get_float(cfg: dict, key: str, default: Optional[str] = None) -> float:
    line, raw = _get(cfg, key, default)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"not a number: {raw!r}", line=line, field=key)


def _get_int(
    cfg: dict, key: str, default: Optional[str] = None,
    minimum: Optional[int] = None, maximum: Optional[int] = None,
) -> int:
    line, raw = _get(cfg, key, default)
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"not an integer: {raw!r}", line=line, field=key)
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be at least {minimum}: {value}", line=line, field=key)
    if maximum is not None and value > maximum:
        raise ConfigError(f"must be at most {maximum}: {value}", line=line, field=key)
    return value


def _get_bool(cfg: dict, key: str, default: str = "false") -> bool:
    line, raw = _get(cfg, key, default)
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}", line=line, field=key)


# ---------------------------------------------------------------------------
# Artifact writers


def _write(out_dir: Path, name: str, content: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(content)
    return path


def trace_csv(trace: IterationTrace) -> str:
    lines = ["step,point,consec,flags"]
    pts = trace.points
    consec = trace.consec.elements
    flags = trace.flags
    for i, p in enumerate(pts):
        c = format_value(consec[i]) if i < len(consec) else ""
        fl = flags[i] if i < len(flags) else ""
        lines.append(f'{i},"{format_value(p)}","{c}","{fl}"')
    return "\n".join(lines) + "\n"


def solution_csv(grid: Grid, x: np.ndarray) -> str:
    lines = ["node,value"]
    for t, v in zip(grid.nodes, x):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def certificate_csv(cert: ConvergenceCertificate) -> str:
    # A converging series repeats its partial sums, so each distinct one is
    # formatted once.  They are sup norms, never -0.0, the one float whose
    # repr differs from that of an equal dict key.
    partials = {part: repr(part) for part in set(cert.sup_partials)}
    lines = ["n,sup_increment,sup_partial"]
    for i, (inc, part) in enumerate(zip(cert.sup_increments, cert.sup_partials), start=1):
        lines.append(f"{i},{inc!r},{partials[part]}")
    return "\n".join(lines) + "\n"


def certificate_text(cert: ConvergenceCertificate) -> str:
    return (
        f"verdict={cert.verdict.value}\n"
        f"spectral_radius_oracle={cert.spectral_radius!r}\n"
        f"spectral_bracket={cert.spectral_bracket[0]!r},{cert.spectral_bracket[1]!r}\n"
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


FREDHOLM_KEYS = (
    "interval_a", "interval_b", "nodes", "kernel", "majorant", "f",
    "ladder_depth", "budget", "certificate_budget", "seed", "force",
)
COUPLED_KEYS = ("f", "x0", "y0", "lam_u", "lam_v", "budget")


def cmd_solve_fredholm(args: argparse.Namespace) -> int:
    cfg = parse_config(Path(args.config).read_text())
    _check_keys(cfg, FREDHOLM_KEYS)
    a = _get_float(cfg, "interval_a", "0")
    b = _get_float(cfg, "interval_b", "1")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ConfigError(
            f"the interval must be finite with interval_a < interval_b, not [{a!r}, {b!r}]",
            line=_get(cfg, "interval_b", "1")[0],
            field="interval_b",
        )
    m = _get_int(cfg, "nodes", "101", minimum=2, maximum=MAX_NODES)
    budget = _get_int(cfg, "budget", "200", minimum=1)
    cert_budget = _get_int(
        cfg, "certificate_budget", "800", minimum=1, maximum=MAX_CERTIFICATE_TERMS
    )
    seed = _get_int(cfg, "seed", "0")
    force = args.force or _get_bool(cfg, "force")
    depth = _get_int(cfg, "ladder_depth", "20", minimum=1, maximum=MAX_LADDER_DEPTH)

    kline, kraw = _get(cfg, "kernel")
    parts = kraw.split(None, 1)
    kname = parts[0]
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
        try:
            g = compile_expression(parts[1], ("t", "s", "x"))
        except ExpressionError as exc:
            raise ConfigError(str(exc), line=kline, field="kernel")
        qline, qraw = _get(cfg, "majorant")
        qfield = "majorant"
        try:
            q = compile_expression(qraw, ("t", "s"))
        except ExpressionError as exc:
            raise ConfigError(str(exc), line=qline, field="majorant")
        qdescr = f"expr {parts[1]}"
    else:
        raise ConfigError(f"unknown kernel {kname!r}", line=kline, field="kernel")

    fline, fraw = _get(cfg, "f", "0")
    try:
        f_expr = compile_expression(fraw, ("t",))
    except ExpressionError as exc:
        raise ConfigError(str(exc), line=fline, field="f")

    grid = Grid.trapezoid(a, b, m)
    kernel = KernelSpec(Q=q, g=g, f=lambda t: f_expr(t) * np.ones_like(np.asarray(t, dtype=float)))
    ladder = grid_ladder(m, depth)
    out = Path(args.out)

    try:
        x, report, cert = solve_fredholm(
            kernel,
            grid,
            ladder=ladder,
            budget=budget,
            certificate_budget=cert_budget,
            force=force,
            seed=seed,
        )
    except InvalidKernel as exc:
        if exc.part == "f":
            raise ConfigError(str(exc), line=fline, field="f")
        raise ConfigError(str(exc), line=qline, field=qfield)
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


def _solve_catalog_map(
    entry: catalog.MapEntry, space: DistanceSpaceSpec, driver: str, x0: float, budget: int
) -> SolveReport:
    """Run a catalog map through the named driver, with the map's own data."""
    return solve_with_driver(
        driver,
        space,
        MapSpec(apply=entry.fn, order_leq=operator.le),
        x0,
        budget,
        lam=entry.lam,
        caristi=entry.caristi,
        meir_keeler=entry.meir_keeler,
        sample_pairs=entry.sample_pairs,
    )


def cmd_solve_map(args: argparse.Namespace) -> int:
    try:
        entry = catalog.get_map(args.map)
    except KeyError as exc:
        raise ConfigError(exc.args[0], field="map")
    space = catalog.get_space(entry.space_name).space
    x0 = args.x0 if args.x0 is not None else entry.x0_for(args.driver)
    out = Path(args.out)
    report = _solve_catalog_map(entry, space, args.driver, x0, args.budget)

    if report.trace is not None:
        _write(out, "trace.csv", trace_csv(report.trace))
    header = f"command=solve-map map={entry.name} ({entry.descr}) driver={args.driver} x0={x0!r}\n"
    return _finish_solve(out, report, header, f"solve-map {entry.name} [{args.driver}]")


def cmd_solve_coupled(args: argparse.Namespace) -> int:
    cfg = parse_config(Path(args.config).read_text())
    _check_keys(cfg, COUPLED_KEYS)
    fline, fraw = _get(cfg, "f")
    try:
        f2 = compile_expression(fraw, ("u", "v"))
    except ExpressionError as exc:
        raise ConfigError(str(exc), line=fline, field="f")
    x0 = _get_float(cfg, "x0")
    y0 = _get_float(cfg, "y0")
    lu = _get_float(cfg, "lam_u")
    lv = _get_float(cfg, "lam_v")
    budget = _get_int(cfg, "budget", "200")
    space = catalog.get_space("real_abs").space
    # nonnegative finite coefficients make the step operator the matrix below
    nonneg = all(math.isfinite(c) and c >= 0.0 for c in (lu, lv))
    lam = LambdaSequence.constant(
        lambda d: (lu * d[0] + lv * d[1], lu * d[1] + lv * d[0]),
        description=f"coupled coefficients ({lu}, {lv})",
        matrix=np.array([[lu, lv], [lv, lu]]) if nonneg else None,
    )
    report = coupled_fixed_point(
        space, lambda u, v: float(f2(u, v)), x0, y0, lam, budget
    )
    out = Path(args.out)
    if report.trace is not None:
        lines = ["step,index,value"]
        for i, prof in enumerate(report.trace.points):
            for j, v in enumerate(prof.values, start=1):
                lines.append(f"{i},{j},{format_value(v)}")
        _write(out, "trace.csv", "\n".join(lines) + "\n")
    if report.fixed_point is not None:
        lines = ["index,value"]
        for j, v in enumerate(report.fixed_point.values, start=1):
            lines.append(f"{j},{format_value(v)}")
        _write(out, "profile.csv", "\n".join(lines) + "\n")
    return _finish_solve(out, report, f"command=solve-coupled f=({fraw})\n", "solve-coupled")


def cmd_check_space(args: argparse.Namespace) -> int:
    try:
        entry = catalog.get_space(args.name)
    except KeyError as exc:
        raise ConfigError(exc.args[0], field="name")
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
        if entry.fw_sampler is None:
            raise ConfigError(f"space {args.name!r} has no falsification sampler", field="fw")
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
    name = args.name
    verdicts = ("expected pattern reproduced", "UNEXPECTED pattern")
    if name.startswith("omega_counterexample"):
        space = catalog.get_space(name if "{" in name else "omega_counterexample{128}").space
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
        space = catalog.get_space(entry.space_name).space
        reports = {
            driver: _solve_catalog_map(entry, space, driver, entry.x0_for(driver), 200)
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
        raise ConfigError(f"unknown demo {name!r}", field="name")
    lines.append(verdicts[0] if ok else verdicts[1])
    _write(Path(args.out), "report.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


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
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--budget", type=positive_int, default=200)
    p.add_argument("--out", default="monofix-out")

    p = sub.add_parser("solve-coupled", help="solve a coupled fixed point from a config file")
    p.add_argument("config")
    p.add_argument("--out", default="monofix-out")

    p = sub.add_parser("check-space", help="validate axioms or falsify chain properties")
    p.add_argument("name")
    p.add_argument("--axioms", action="store_true")
    p.add_argument("--fw", choices=("weak", "standard", "strong"), default=None)
    p.add_argument("--trials", type=positive_int, default=10_000)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
