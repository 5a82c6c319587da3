"""The per-metric verdicts of `tools/bench_pairs.py`, on synthetic runs."""
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))  # the tools import each other as top-level modules

from bench_pairs import summarise  # noqa: E402

DECLARED = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]
STEADY = [100.0 + i for i in range(10)]  # median 104.5, IQR about 5 %
BIMODAL = [1.0, 2.0] * 5  # median 1.5, IQR 1.0: about 67 %, wider than the bound


def verdicts(parent: dict, change: dict) -> dict:
    """Each metric's verdict on runs whose values are `parent` and `change`,
    pair by pair, per metric."""
    runs = {
        side: [{"result": {"metrics": {k: {"value": v[i]} for k, v in values.items()}}} for i in range(10)]
        for side, values in (("parent", parent), ("change", change))
    }
    return {name: metric["verdict"] for name, metric in summarise(runs, DECLARED).items()}


@pytest.mark.parametrize(
    "ops, setup, want",
    [
        # 10/10 wins, median 10 % better against an IQR of 5 %; setup held
        ([v * 1.1 for v in STEADY], STEADY, ("gain", "held")),
        # 8/10 wins do not make a gain, however far the median moves
        ([v * (1.2 if i < 8 else 0.9) for i, v in enumerate(STEADY)], STEADY, ("held", "held")),
        # 10/10 wins, but the median moves by less than the parent's IQR
        ([v * 1.01 for v in STEADY], STEADY, ("held", "held")),
        # worse by more than the bound, in either direction of better
        ([v * 0.7 for v in STEADY], [v * 1.3 for v in STEADY], ("regression", "regression")),
        # worse by less than the bound: held
        ([v * 0.8 for v in STEADY], [v * 1.2 for v in STEADY], ("held", "held")),
    ],
)
def test_verdicts_on_steady_runs(ops, setup, want):
    assert verdicts({"ops_per_s": STEADY, "setup_s": STEADY}, {"ops_per_s": ops, "setup_s": setup}) == dict(
        zip(("ops_per_s", "setup_s"), want)
    )


@pytest.mark.parametrize(
    "setup, want",
    [
        # the same two modes: the parent's IQR exceeds the bound
        (BIMODAL[::-1], "unresolved"),
        # every change run beats every parent run: no gain (the median moves
        # by less than the IQR), but nothing is left to tell
        ([0.95] * 10, "held"),
        # and far enough to be a gain
        ([0.4] * 10, "gain"),
        # one change run in the parent's range leaves it unresolved
        ([0.95] * 9 + [1.0], "unresolved"),
        # a median worse by more than the bound is a regression, spread or not
        ([2.0] * 10, "regression"),
    ],
)
def test_verdicts_on_a_bimodal_parent(setup, want):
    got = verdicts({"ops_per_s": STEADY, "setup_s": BIMODAL}, {"ops_per_s": STEADY, "setup_s": setup})
    assert got == {"ops_per_s": "held", "setup_s": want}
