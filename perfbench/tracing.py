"""Spans and work counts recorded from outside the program.

`Tracer.install` replaces the public functions of each monofix layer module
with wrappers that record one span per call.  A function imported into
another module (say `cauchy_series_window_report` into `fredholm` and
`engine`) is wrapped in every namespace that holds it, under the label of the
module that defines it, so calls are caught whichever name they go through.
`numpy.linalg.eigvals`, which only the certificate calls, is wrapped as
`fredholm.spectral`.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("fredholm", "monoid", "engine", "multifix", "spaces", "catalog", "cli", "expr")

# Per-element callbacks run once per distance evaluation or relation product,
# millions of times in the trial loops; a span each would cost more than the
# work it times and would not fit in memory.
UNTRACED = frozenset(
    {
        "catalog.hierarchical_rho",
        "catalog.snowflake_distance",
        "catalog.omega_point",
        "catalog.omega_distance",
        "spaces.relation_compose",
        "spaces.entourage_distance",
    }
)


def _certificate_counts(args: dict, cert) -> dict:
    terms = len(cert.sup_increments)
    m = len(args["grid"])
    # one dense m x m matrix-vector product per term, counted in float64 bytes
    return {"fredholm.certificate.terms": terms, "fredholm.certificate.bytes_computed": terms * m * m * 8}


def _trace_elements(key: str) -> Callable[[dict, object], dict]:
    return lambda args, _result: {key: len(args["trace"].elements)}


def _trials(key: str) -> Callable[[dict, object], dict]:
    return lambda args, _result: {key: args["trials"]}


# Work counts taken from the arguments and results of a traced call, keyed by
# the label of the call they belong to.
COUNTERS: dict[str, Callable[[dict, object], dict]] = {
    "fredholm.certify_convergence": _certificate_counts,
    "monoid.cauchy_series_window_report": _trace_elements("monoid.cauchy_series_window_report.elements"),
    "monoid.is_null_trace": _trace_elements("monoid.is_null_trace.elements"),
    "engine.picard_iterate": lambda _args, trace: {"engine.picard.steps": len(trace.points) - 1},
    "engine.lambda_product_trace": lambda _args, trace: {
        "engine.lambda_product_trace.terms": len(trace.elements)
    },
    "spaces.falsify_frechet_wilson": _trials("spaces.falsify_frechet_wilson.trials"),
    "spaces.validate_space": _trials("spaces.validate_space.trials"),
    "monoid.validate_monoid": _trials("monoid.validate_monoid.trials"),
}


class Tracer:
    """Records a span (request, label, start, end, parent index) per wrapped call.

    `request` is set by the caller to the index of the op in flight, so the
    spans of one op share it.  `counts` maps (request, counter name) to the
    work counted in that op.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, label: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.request, label, start, end, parent)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, value in counter(bound.arguments, result).items():
                    counts[(self.request, name)] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every public monofix layer function in every layer namespace."""
        import numpy

        wrappers: dict[int, Callable] = {}
        namespaces = [importlib.import_module(f"monofix.{layer}") for layer in LAYERS]
        namespaces.append(importlib.import_module("monofix"))
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                label = _layer_label(attr, obj)
                if label is None or label in UNTRACED:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(label, obj, COUNTERS.get(label))
                self._patch(module, attr, wrappers[id(obj)])
        self._patch(numpy.linalg, "eigvals", self.wrap("fredholm.spectral", numpy.linalg.eigvals))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)


def _layer_label(attr: str, obj: object) -> Optional[str]:
    if attr.startswith("_") or not isinstance(obj, types.FunctionType):
        return None
    package, _, module = obj.__module__.partition(".")
    if package != "monofix" or module not in LAYERS:
        return None
    return f"{module}.{obj.__name__}"


def layer_times(spans: list) -> dict[str, dict]:
    """Calls, total and self time per label.

    Self time is a span's duration minus the durations of its direct child
    spans; calls nest, so the children never overlap.  Total time counts only
    the outermost span of a label, so a recursive call is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for _request, _label, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (_request, label, start, end, parent) in enumerate(spans):
        entry = out[label]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][1] != label:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            entry["total_s"] += end - start
    return dict(out)


def counts_by_name(counts: dict) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for (_request, name), value in counts.items():
        out[name] += value
    return dict(out)


def per_request(spans: list, counts: dict) -> dict[int, dict[str, int]]:
    """Calls per label and work counts, grouped by the op they belong to."""
    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        out[span[0]][f"{span[1]}.calls"] += 1
    for (request, name), value in counts.items():
        out[request][name] += value
    return out
