"""Structured pass/fail reports shared by the self-check and ledger suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import rational_str

__all__ = ["CheckEntry", "Report", "render_value"]


def render_value(value) -> str:
    """Deterministic string form of a check value: bools, rationals as ``p/q``,
    str, and tuples, lists and weights as ``[a, b]``; other types raise."""
    kind = type(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is Fraction or kind is int:
        return rational_str(value)
    if kind is str:
        return value
    if kind is tuple or kind is list:
        return "[" + ", ".join(map(render_value, value)) + "]"
    from .catalog import Weight  # catalog imports this module
    if kind is Weight:
        return render_value(value.coords)
    raise TypeError(f"a check value is never a {kind.__name__}")


@dataclass(frozen=True)
class CheckEntry:
    check_id: str
    algebra: str
    k: str
    formula: str
    expected: str
    computed: str
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        where = self.algebra + (f" k={self.k}" if self.k else "")
        tail = "" if self.passed else f"  expected {self.expected}, got {self.computed}"
        return f"[{status}] {self.check_id} ({where}) {self.formula}{tail}"


@dataclass
class Report:
    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, check_id: str, *, algebra: str = "", k=None, formula: str = "",
            expected, computed) -> bool:
        passed = expected == computed
        self.entries.append(CheckEntry(
            check_id=check_id,
            algebra=algebra,
            k="" if k is None else rational_str(k),
            formula=formula,
            expected=render_value(expected),
            computed=render_value(computed),
            passed=passed,
        ))
        return passed

    def extend(self, other: "Report") -> "Report":
        self.entries.extend(other.entries)
        return self

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def to_json(self) -> list[dict]:
        return [
            {
                "check_id": e.check_id,
                "algebra": e.algebra,
                "k": e.k,
                "formula": e.formula,
                "expected": e.expected,
                "computed": e.computed,
                "pass": e.passed,
            }
            for e in self.entries
        ]
