"""Shared result types: three-way decisions, axiom reports, counterexamples."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ._util import format_value


class Decision(Enum):
    """Outcome of a budgeted convergence-style check.

    NULL means the property was witnessed within the budget.  NOT_NULL_WITHIN
    means the full budget was examined and no witness exists in the trace.
    INDETERMINATE means the trace ended before the budget and the evidence so
    far is inconclusive.
    """

    NULL = "null"
    NOT_NULL_WITHIN = "not_null_within"
    INDETERMINATE = "indeterminate"

    @property
    def is_null(self) -> bool:
        return self is Decision.NULL


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    trials: int = 0
    counterexample: Optional[str] = None
    detail: str = ""

    def render(self) -> str:
        if self.passed:
            extra = f" ({self.detail})" if self.detail else ""
            return f"PASS {self.name} [{self.trials} trials]{extra}"
        return f"FAIL {self.name}: {self.counterexample or self.detail}"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def render(self) -> str:
        lines = [f"validation of {self.subject}:"]
        lines += ["  " + c.render() for c in self.checks]
        lines.append(f"  => {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Counterexample:
    """A concrete witness that a sampled property fails.

    `points` holds the offending points or sequences, `rung_index` the ladder
    rung the witness was measured against, `distances` the relevant distance
    values, and `detail` a human-readable account.
    """

    kind: str
    points: tuple = ()
    rung_index: Optional[int] = None
    distances: tuple = ()
    detail: str = ""

    def to_text(self) -> str:
        lines = [f"counterexample kind={self.kind}"]
        if self.rung_index is not None:
            lines.append(f"rung_index={self.rung_index}")
        for i, p in enumerate(self.points):
            lines.append(f"point[{i}]={format_value(p)}")
        for i, d in enumerate(self.distances):
            lines.append(f"distance[{i}]={format_value(d)}")
        if self.detail:
            lines.append(f"detail={self.detail}")
        return "\n".join(lines)
