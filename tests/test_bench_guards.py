"""Guards on what the benchmark harness in `perfbench/` relies on.

The tracer must not turn off a fast path it times, and every recorded
outcome of `perfbench/reference.json` that does not depend on the BLAS
thread count must replay unchanged.
"""
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import monofix.monoid
from monofix import catalog

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # perfbench sits beside src/, not inside it

from perfbench import tracing  # noqa: E402
from perfbench.ops import every_op, execute, outcome, write_inputs  # noqa: E402
from perfbench.workload import REFERENCE  # noqa: E402


def test_tracer_leaves_the_fast_paths_on(monkeypatch):
    stacked = []
    real = monofix.monoid._stacked_axioms
    monkeypatch.setattr(monofix.monoid, "_stacked_axioms", lambda *args: stacked.append(args) or real(*args))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        relations = catalog.get_monoid("relation{8}")
        assert relations.spec.relational
        for name in ("real_nonneg", "grid_function{8}", "product{real_nonneg,real_nonneg}"):
            assert catalog.get_monoid(name).spec.elementwise, name
        report = monofix.monoid.validate_monoid(relations.spec, relations.samples, trials=50)
        assert report.ok and len(stacked) == 1
    finally:
        tracer.uninstall()


def replayed_ops(tmp_path: Path):
    """Every audit-trials op and the cli-mix solve-map and solve-coupled ops.
    solve-fredholm is left out: its bytes follow the BLAS thread count."""
    for workload in ("audit-trials", "cli-mix"):
        configs = write_inputs(workload, 0, tmp_path / workload)
        yield from (op for op in every_op(workload, configs) if not op.key.startswith("solve-fredholm"))


def test_replayed_outcomes_equal_the_reference(tmp_path):
    reference = json.loads(REFERENCE.read_text())
    ops = list(replayed_ops(tmp_path))
    assert len(ops) == 210
    for index, op in enumerate(ops):
        out = tmp_path / str(index)
        with redirect_stdout(StringIO()):
            found = json.loads(json.dumps(outcome(op, out, execute(op, out))))
        assert found == reference[op.key], op.key
