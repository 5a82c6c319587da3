"""Workloads: seeded op streams, their input files, execution and outcomes.

An op is one call a desk user would make: an in-process `monofix.cli.main`
call, or a library validator call.  Every op has a reference key that names
what determines its outcome; `reference.json` maps each key to the outcome
recorded from the reference commit.  The seed of a run decides the order of the
ops, the seeds passed to the checks and the `seed` key of each
`solve-fredholm` config.  That key only seeds the majorant audit, which
every kernel used here passes, so it does not enter the reference key;
`record_reference.py` checks this by solving each config under two seeds.
"""
from __future__ import annotations

import hashlib
import itertools
import random
import re
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

WORKLOADS = ("fredholm-1601", "cli-mix", "audit-trials")

# Kernel label -> (kernel line, majorant line or None).  `constant 1.1` is
# refused by the certificate (exit 1, overflow break).
KERNELS = {
    "product_ts": ("product_ts", None),
    "constant-0.3": ("constant 0.3", None),
    "constant-0.5": ("constant 0.5", None),
    "constant-0.9": ("constant 0.9", None),
    "constant-1.1": ("constant 1.1", None),
    "expr-sin": ("expr 0.5*t*s*sin(x)", "0.5*t*s"),
}
MAPS = ("halving", "affine_to_two", "increment", "identity")
DRIVERS = ("meir-keeler", "caristi", "sequential", "monotone")
# The criterion-8 system: u = 0.3u - 0.2v + 1, v = 0.3v - 0.2u + 1.
COUPLED_CONFIG = "f = 0.3*u - 0.2*v + 1.0\nx0 = -10\ny0 = 10\nlam_u = 0.3\nlam_v = 0.2\nbudget = 400\n"

SPACES = (
    "real_abs",
    "snowflake",
    "squared",
    "dislocated_max",
    "omega_counterexample{128}",
    "uniform_pseudometric{8}",
    "gauge{3}",
    "product{real_abs,real_abs,sigma}",
    "broken_pseudo_as_distance",
)
MONOIDS = (
    "real_nonneg",
    "real_vector{3}",
    "grid_function{8}",
    "relation{8}",
    "product{real_nonneg,real_nonneg}",
    "broken_subtraction",
)
FW_CHECKS = (
    ("strong", "snowflake"),
    ("strong", "real_abs"),
    ("strong", "squared"),
    ("weak", "real_abs"),
    ("standard", "real_abs"),
    ("weak", "omega_counterexample{128}"),
    ("standard", "omega_counterexample{128}"),
    ("weak", "uniform_pseudometric{8}"),
    ("standard", "uniform_pseudometric{8}"),
)
AUDIT_TRIALS = 1000
AUDIT_SEEDS = tuple(range(8))
TRIANGLE_SPACE = "uniform_pseudometric{8}"

# cli-mix draws its ops from a shuffled block of 20: 8 solve-fredholm (40 %),
# 9 solve-map (45 %) and 3 solve-coupled (15 %), so every run has the same mix.
MIX_BLOCK = ("solve-fredholm",) * 8 + ("solve-map",) * 9 + ("solve-coupled",) * 3


class Op(NamedTuple):
    kind: str  # cli | validate-monoid | check-triangle
    key: str  # reference key: everything the outcome depends on
    argv: tuple = ()  # cli arguments before --out
    name: str = ""
    seed: int = 0


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the config files of a run; returns config label -> path."""
    rng = random.Random(f"{workload}/{seed}/configs")
    directory.mkdir(parents=True, exist_ok=True)
    configs: dict[str, Path] = {}
    if workload == "fredholm-1601":
        labels, nodes = ("product_ts",), 1601
    elif workload == "cli-mix":
        labels, nodes = tuple(KERNELS), 101
    else:
        return configs
    for label in labels:
        kernel, majorant = KERNELS[label]
        lines = [f"nodes = {nodes}", f"kernel = {kernel}"]
        if majorant is not None:
            lines.append(f"majorant = {majorant}")
        lines += ["f = t", f"seed = {rng.randrange(1_000_000)}"]
        path = directory / f"{label}.cfg"
        path.write_text("\n".join(lines) + "\n")
        configs[label] = path
    if workload == "cli-mix":
        path = directory / "coupled.cfg"
        path.write_text(COUPLED_CONFIG)
        configs["coupled"] = path
    return configs


def _fredholm_op(label: str, configs: dict[str, Path], nodes: int) -> Op:
    return Op("cli", f"solve-fredholm {label} nodes={nodes}", ("solve-fredholm", str(configs[label])))


def _map_op(map_name: str, driver: str) -> Op:
    return Op("cli", f"solve-map {map_name} {driver}", ("solve-map", "--map", map_name, "--driver", driver))


def _coupled_op(configs: dict[str, Path]) -> Op:
    return Op("cli", "solve-coupled criterion-8", ("solve-coupled", str(configs["coupled"])))


def _audit_kinds() -> list[tuple]:
    kinds: list[tuple] = [("axioms", name) for name in SPACES]
    kinds += [(f"fw-{level}", name) for level, name in FW_CHECKS]
    kinds += [("validate-monoid", name) for name in MONOIDS]
    kinds.append(("check-triangle", TRIANGLE_SPACE))
    return kinds


def _audit_op(kind: str, name: str, seed: int) -> Op:
    if kind == "check-triangle":
        return Op("check-triangle", f"check-triangle {name}", name=name)
    key = f"{kind} {name} trials={AUDIT_TRIALS} seed={seed}"
    if kind == "validate-monoid":
        return Op("validate-monoid", key, name=name, seed=seed)
    mode = ("--axioms",) if kind == "axioms" else ("--fw", kind.removeprefix("fw-"))
    argv = ("check-space", name, *mode, "--trials", str(AUDIT_TRIALS), "--seed", str(seed))
    return Op("cli", key, argv)


def op_stream(workload: str, seed: int, configs: dict[str, Path]) -> Iterator[Op]:
    """The endless, seeded sequence of ops a run issues one after another."""
    rng = random.Random(f"{workload}/{seed}/ops")
    if workload == "fredholm-1601":
        op = _fredholm_op("product_ts", configs, 1601)
        while True:
            yield op
    elif workload == "cli-mix":
        kernels = _deck(rng, list(KERNELS))
        maps = _deck(rng, list(itertools.product(MAPS, DRIVERS)))
        for kind in _deck(rng, list(MIX_BLOCK)):
            if kind == "solve-fredholm":
                yield _fredholm_op(next(kernels), configs, 101)
            elif kind == "solve-map":
                yield _map_op(*next(maps))
            else:
                yield _coupled_op(configs)
    elif workload == "audit-trials":
        for kind, name in _deck(rng, _audit_kinds()):
            yield _audit_op(kind, name, rng.choice(AUDIT_SEEDS))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str, configs: dict[str, Path]) -> Op:
    """The untimed op that ends set-up; the same for every seed, so that
    `setup_s` does not depend on which op the seed happens to put first."""
    if workload == "fredholm-1601":
        return _fredholm_op("product_ts", configs, 1601)
    if workload == "cli-mix":
        return _fredholm_op("product_ts", configs, 101)
    return _audit_op("axioms", "real_abs", AUDIT_SEEDS[0])


def _deck(rng: random.Random, cards: list) -> Iterator:
    """Deal the cards in a fresh shuffled order, again and again."""
    while True:
        hand = list(cards)
        rng.shuffle(hand)
        yield from hand


def every_op(workload: str, configs: dict[str, Path]) -> list[Op]:
    """One op per reference key the workload can issue."""
    if workload == "fredholm-1601":
        return [_fredholm_op("product_ts", configs, 1601)]
    if workload == "cli-mix":
        ops = [_fredholm_op(label, configs, 101) for label in KERNELS]
        ops += [_map_op(m, d) for m, d in itertools.product(MAPS, DRIVERS)]
        return ops + [_coupled_op(configs)]
    if workload == "audit-trials":
        return [
            _audit_op(kind, name, seed)
            for kind, name in _audit_kinds()
            for seed in (AUDIT_SEEDS if kind != "check-triangle" else (0,))
        ]
    raise ValueError(f"unknown workload {workload!r}")


def execute(op: Op, out: Path):
    """Run one op; returns the CLI exit code or the validator reports.

    Functions are looked up on their modules at call time, so the wrappers a
    traced run installs are the ones called.
    """
    import monofix
    from monofix import catalog, cli

    if op.kind == "cli":
        return cli.main([*op.argv, "--out", str(out)])
    if op.kind == "validate-monoid":
        entry = catalog.get_monoid(op.name)
        return (
            monofix.monoid.validate_monoid(entry.spec, entry.samples, AUDIT_TRIALS, seed=op.seed),
            monofix.monoid.validate_ladder(entry.spec, entry.ladder),
        )
    if op.kind == "check-triangle":
        entry = catalog.get_space(op.name)
        return monofix.spaces.check_triangle(
            entry.space, itertools.product(entry.finite_carrier, repeat=3)
        )
    raise ValueError(f"unknown op kind {op.kind!r}")


# report.txt fields and artifacts that make up the outcome of each command
_REPORT_FIELDS = {
    "solve-fredholm": ("refused", "verdict", "witness_index", "terms_examined", "status", "iterations"),
    "solve-map": ("status", "iterations", "fixed_point", "residual_below_bottom_rung"),
    "solve-coupled": ("status", "iterations", "fixed_point", "residual_below_bottom_rung"),
}
_HASHED = {
    "solve-fredholm": ("solution.csv", "certificate.csv"),
    "solve-map": ("trace.csv", "violation.txt"),
    "solve-coupled": ("trace.csv", "profile.csv", "violation.txt"),
}
_TRIAL = re.compile(r"found on trial (\d+)")


def outcome(op: Op, out: Path, result) -> dict:
    """The verdict-bearing part of an op's result, comparable across commits."""
    if op.kind == "validate-monoid":
        monoid_report, ladder_report = result
        return {
            "monoid": [c.render() for c in monoid_report.checks],
            "ladder": [c.render() for c in ladder_report.checks],
        }
    if op.kind == "check-triangle":
        return {"checks": [c.render() for c in result.checks]}
    command = op.argv[0]
    report = _read(out / "report.txt")
    found = {"exit": result}
    if command == "check-space":
        lines = [line.strip() for line in report.splitlines()]
        found["checks"] = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        found["frechet_wilson"] = next((line for line in lines if line.startswith("frechet-wilson")), None)
        trial = _TRIAL.search(_read(out / "counterexample.txt"))
        found["falsified_on_trial"] = int(trial.group(1)) if trial else None
        return found
    fields = {}
    for line in report.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in _REPORT_FIELDS[command] and key not in fields:
            fields[key] = value
        elif line.startswith("violation "):
            fields.setdefault("violation", line)
    found["report"] = fields
    found["sha256"] = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in _HASHED[command]
        if (out / name).exists()
    }
    return found


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def analytic_error(op: Op, out: Path) -> Optional[float]:
    """Sup-norm distance of a product_ts solution from the exact 1.5*t.

    For x(t) = t + integral_0^1 t*s*x(s) ds, x = c*t with c = 1 + c/3.
    None for ops without such an oracle or without a solution.
    """
    if not op.key.startswith("solve-fredholm product_ts"):
        return None
    path = out / "solution.csv"
    if not path.exists():
        return None
    worst = 0.0
    for line in path.read_text().splitlines()[1:]:
        node, value = (float(v) for v in line.split(","))
        worst = max(worst, abs(value - 1.5 * node))
    return worst
