"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 tools/bench_pairs.py --parent REV --pairs 10 --first-seed 7301 \\
        --seconds 30 --workload audit-trials --out BENCH_N.json

Run from the root of a monofix checkout.  Both sides run from plain copies
of committed files, unpacked by `git archive` into sibling directories of a
temporary directory, `parent` and `change`, so that the two trees differ
only in their files and not in where they sit; the temporary directory is
removed at the end.  The parent side is REV.  The change side is the working
tree of tracked files (a `git stash create` commit, which leaves the working
tree and the stash list as they are), or HEAD when that tree is clean: add
untracked files with `git add` first, or the change side runs without them.
Pair i runs both sides with seed first-seed + i: the parent first on even
pairs, the change first on odd ones, so that a drift of the machine's speed
favours neither side.  Each run is

    python3 -m perfbench.run --workload W --seed S --seconds T --trace 0

The summary holds, per workload and end-to-end metric, each side's values,
median and quartiles (`statistics.quantiles(values, n=4)`), the pairs the
change wins (better in the direction `BENCHMARK.json` gives; a tie is no
win), the relative change of the median and the parent's interquartile
range relative to its median.  It also records the seeds, the revisions and
the environment that the runs report, each tree's `wc -l src/monofix/*.py`
total (`src_lines`) and its settable values (`src_options`, see
`src_options`), which it prints.  After a workload's pairs, it times each
reference key in `OP_PASSES` passes per side, in `OP_ROUNDS` rounds of
consecutive passes.  Each round starts a fresh pair of `tools/op_times.py`
servers, one per side, that take turns op by op (the parent first on even
passes), so that a drift of the machine's speed reaches both sides alike
even when it is faster than a pass, and so that no one pair of processes
sets a kind's ratio.  The summary records those numbers (`op_passes`,
`op_rounds`), each reference key's median, quartiles, median in each round
and traced counts per side (`op_times`, over that fixed op sequence), each
op kind's mean median per side (`op_kinds`), each side's sum of those, the
time of one op of every kind (`op_rotation_s`), with change / parent
(`op_rotation_ratio`), each op kind's change / parent ratio in every round
(`op_kind_ratios`) and the median of those (`op_kind_ratio_medians`).  It
then prints a line per op kind, slowest parent first: both sides' mean
medians, the median of the rounds' ratios and their range; and a line with
both sides' rotation and their ratio.
"""
from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from op_times import PASSES, Server, kinds, summary

# op_times' default number of timed passes, in 4 rounds of a fresh server pair each
OP_PASSES, OP_ROUNDS = PASSES, 4


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run from `root`; its info line and result line."""
    argv = [sys.executable, "-m", "perfbench.run", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True).stdout
    info, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{root}: {workload} seed {seed}: {result['failed']} failed ops")
    return {"info": info, "result": result}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs: dict, better: dict) -> dict:
    """Per metric: both sides' spread, the change's wins and median change."""
    out = {}
    for name, direction in better.items():
        sides = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]] for side in runs}
        parent, change = spread(sides["parent"]), spread(sides["change"])
        sign = 1 if direction == "higher" else -1
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"])),
            "pairs": len(sides["parent"]),
            "median_change_rel": change["median"] / parent["median"] - 1.0,
            "parent_iqr_rel": (parent["q3"] - parent["q1"]) / parent["median"],
        }
    return out


def interleaved_op_times(roots: dict, workload: str, passes: int, rounds: int) -> dict:
    """Per side, each key's wall times over `passes` passes and its traced
    counts.  The passes run in `rounds` rounds of consecutive passes, each
    through a fresh pair of servers, one per side, that take turns op by
    op, the parent first on even passes and the change first on odd ones;
    the counts come from the last round's pair."""
    size = passes // rounds
    times: dict = {}
    for r in range(rounds):
        with Server(roots["parent"], workload) as parent, Server(roots["change"], workload) as change:
            servers = {"parent": parent, "change": change}
            if parent.keys != change.keys:
                raise SystemExit(f"{workload}: the two sides issue different op sequences")
            for side in servers:
                times.setdefault(side, [[] for _ in parent.keys])
            for k in range(r * size, (r + 1) * size):
                for i in range(len(parent.keys)):
                    for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                        times[side][i].append(servers[side].run(i))
            counts = {side: server.traced_counts() for side, server in servers.items()}
    return {
        side: {key: (times[side][i], counts[side][i]) for i, key in enumerate(parent.keys)}
        for side in servers
    }


def rounds_of(times: list, rounds: int) -> list:
    """The times split into `rounds` blocks of consecutive passes."""
    size = len(times) // rounds
    return [times[r * size : (r + 1) * size] for r in range(rounds)]


def merge(found: dict, rounds: int) -> dict:
    """Each key's median and quartiles, its median in each round, and its
    counts."""
    out = {}
    for key, (times, counts) in found.items():
        out[key] = summary(times, counts)
        out[key]["round_medians_s"] = [statistics.median(r) for r in rounds_of(times, rounds)]
    return out


def kind_ratios(merged: dict, rounds: int) -> dict:
    """Each op kind's change / parent ratio of mean medians, round by round."""
    per_round = [
        tuple(kinds({key: {"median_s": m["round_medians_s"][r]} for key, m in merged[side].items()})
              for side in ("parent", "change"))
        for r in range(rounds)
    ]
    return {kind: [c[kind] / p[kind] for p, c in per_round] for kind in per_round[0][0]}


def print_kinds(workload: str, per_kind: dict, ratios: dict) -> None:
    """A line per op kind, slowest parent first: both sides' times, the
    median of the rounds' change / parent ratios and their range."""
    parent, change = per_kind["parent"], per_kind["change"]
    for kind in sorted(parent, key=parent.get, reverse=True):
        times = f"parent {parent[kind] * 1e3:.3f} ms change {change[kind] * 1e3:.3f} ms"
        ratio = f"ratio {statistics.median(ratios[kind]):.3f}"
        spread = f"rounds {min(ratios[kind]):.3f}-{max(ratios[kind]):.3f}"
        print(f"{workload} {kind}: {times} {ratio} {spread}", flush=True)


def src_lines(root: Path) -> int:
    """The total of `wc -l src/monofix/*.py` under `root`: its newlines."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "monofix").glob("*.py"))


def _optional(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _public(node: ast.stmt, kind: type) -> bool:
    return isinstance(node, kind) and not node.name.startswith("_")


def src_options(root: Path) -> int:
    """The optional parameters of the public functions and methods of
    `src/monofix/*.py`, plus the defaulted fields of its public
    `@dataclass` classes."""
    count = 0
    for path in (root / "src" / "monofix").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if _public(node, ast.FunctionDef):
                count += _optional(node)
            elif _public(node, ast.ClassDef):
                decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
                dataclass = any(getattr(d, "id", None) == "dataclass" for d in decorators)
                for item in node.body:
                    if _public(item, ast.FunctionDef):
                        count += _optional(item)
                    elif dataclass and isinstance(item, ast.AnnAssign) and item.value is not None:
                        count += 1
    return count


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--out", required=True, help="the summary JSON to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    declared = json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    dirty = git("status", "--porcelain", "--untracked-files=no")
    change = git("stash", "create") or "HEAD"
    summary: dict = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD") + (" with uncommitted changes" if dirty else ""),
        "command": "python3 -m perfbench.run --workload W --seed S --seconds T --trace 0",
        "seconds": args.seconds,
        "seeds": seeds,
        "order": "parent first on even pairs (0-based), change first on odd pairs",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, rev in (("parent", args.parent), ("change", change)):
            roots[side].mkdir()
            git("archive", "--format=tar", "-o", f"{tmp}/{side}.tar", rev)
            subprocess.run(["tar", "-xf", f"{tmp}/{side}.tar", "-C", str(roots[side])], check=True)
        for name, measure in (("src_lines", src_lines), ("src_options", src_options)):
            summary[name] = sides = {side: measure(root) for side, root in roots.items()}
            print(f"{name}: parent {sides['parent']} change {sides['change']}", flush=True)
        for workload in args.workload:
            runs: dict = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run(roots[side], workload, seed, args.seconds))
                    got = runs[side][-1]["result"]["metrics"]
                    values = " ".join(f"{k}={v['value']:.4g}" for k, v in got.items())
                    print(f"{workload} pair {i} seed {seed} {side}: {values}", flush=True)
            summary["workloads"][workload] = summarise(runs, better)
            found = interleaved_op_times(roots, workload, OP_PASSES, OP_ROUNDS)
            merged = {side: merge(ops, OP_ROUNDS) for side, ops in found.items()}
            per_kind = {side: kinds(ops) for side, ops in merged.items()}
            ratios = kind_ratios(merged, OP_ROUNDS)
            rotation = {side: sum(times.values()) for side, times in per_kind.items()}
            summary["workloads"][workload].update(
                op_rounds=OP_ROUNDS, op_passes=OP_PASSES, op_times=merged,
                op_kinds=per_kind, op_rotation_s=rotation,
                op_rotation_ratio=rotation["change"] / rotation["parent"], op_kind_ratios=ratios,
                op_kind_ratio_medians={kind: statistics.median(r) for kind, r in ratios.items()},
            )
            print_kinds(workload, per_kind, ratios)
            print(
                f"{workload} rotation: parent {rotation['parent'] * 1e3:.3f} ms "
                f"change {rotation['change'] * 1e3:.3f} ms ratio {rotation['change'] / rotation['parent']:.3f}",
                flush=True,
            )
            summary.setdefault("environment", runs["change"][0]["info"]["environment"])
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
