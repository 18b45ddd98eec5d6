"""Pass/fail reporting for axiom and identity checkers.

Failures carry a witness naming the smallest basis input where the two sides
of an identity disagree, so a red line can be reproduced by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    witness: str | None = None
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.passed or self.skipped

    def line(self) -> str:
        if self.skipped:
            return f"SKIP {self.label}: {self.witness or ''}".rstrip()
        if self.passed:
            return f"PASS {self.label}"
        return f"FAIL {self.label}" + (f": {self.witness}" if self.witness else "")


@dataclass
class Report:
    title: str
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    def extend(self, other: "Report", prefix: str = "") -> None:
        for r in other.results:
            self.results.append(
                CheckResult(prefix + r.label, r.passed, r.witness, r.skipped)
            )

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def result(self, label: str) -> CheckResult:
        for r in self.results:
            if r.label == label:
                return r
        raise KeyError(label)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def format_text(self) -> str:
        head = f"== {self.title}: {'OK' if self.ok else 'FAILED'}"
        return "\n".join([head] + self.lines())

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "results": [
                {
                    "label": r.label,
                    "passed": r.passed,
                    "skipped": r.skipped,
                    "witness": r.witness,
                }
                for r in self.results
            ],
        }


def first_failure(label: str, cases: Iterable, where: Callable) -> CheckResult:
    """The first failing case of a lazy scan, reported under ``label``, or a
    pass when every case holds.

    ``cases`` yields ``(case, outcome)`` pairs, the outcome a CheckResult or
    a bool.  The witness of the first failure is ``where(case)`` followed by
    the outcome's own witness, so a case's context is formatted only if the
    case fails."""
    for case, outcome in cases:
        if outcome is False:
            return CheckResult(label, False, where(case))
        if outcome is not True and not outcome.passed:
            return CheckResult(label, False, where(case) + (outcome.witness or ""))
    return CheckResult(label, True)


def _first_difference(a: dict, b: dict, zero):
    """The smallest index where two sparse coordinate dicts differ, with the
    two values there, or None if they are equal."""
    if a == b:
        return None
    i = min(k for k in a.keys() | b.keys() if a.get(k, zero) != b.get(k, zero))
    return i, a.get(i, zero), b.get(i, zero)


def compare_maps(label: str, lhs, rhs, where=None) -> CheckResult:
    """Exact equality of two LinMaps, or with ``where = (field, name)`` of two
    lazily produced column sequences; the witness is the first basis input
    (scanning domain basis vectors in order, then outputs in order) where
    they disagree, labelled ``name(j, i)`` only then."""
    if where is None:
        if lhs.domain != rhs.domain or lhs.codomain != rhs.codomain:
            return CheckResult(label, False, "shape mismatch between the two sides")
        dom, cod = lhs.domain.labels, lhs.codomain.labels
        where = (lhs.field, lambda j, i: (dom[j], cod[i]))
        lhs, rhs = lhs.cols, rhs.cols
    field, name = where
    zero = field.zero()
    for j, (ca, cb) in enumerate(zip(lhs, rhs)):
        diff = _first_difference(ca, cb, zero)
        if diff is not None:
            i, a, b = diff
            x, y = name(j, i)
            return CheckResult(label, False,
                               f"input {x}, output {y}: {field.fmt(a)} ≠ {field.fmt(b)}")
    return CheckResult(label, True)


def compare_vectors(label: str, lhs, rhs, where=None) -> CheckResult:
    """Exact equality of two Vectors, or with ``where = (field, name)`` of two
    sparse coordinate dicts, coordinate i labelled ``name(i)`` on failure."""
    if where is None:
        if lhs.space != rhs.space:
            return CheckResult(label, False, "the two sides live in different spaces")
        where = (lhs.space.field, lhs.space.labels.__getitem__)
        lhs, rhs = lhs.terms, rhs.terms
    field, name = where
    diff = _first_difference(lhs, rhs, field.zero())
    if diff is not None:
        i, a, b = diff
        return CheckResult(label, False, f"coefficient of {name(i)}: "
                                         f"{field.fmt(a)} ≠ {field.fmt(b)}")
    return CheckResult(label, True)


def compare_scalars(label: str, field_obj, lhs, rhs, context: str = "") -> CheckResult:
    if lhs != rhs:
        prefix = f"{context}: " if context else ""
        return CheckResult(
            label, False, f"{prefix}{field_obj.fmt(lhs)} ≠ {field_obj.fmt(rhs)}"
        )
    return CheckResult(label, True)
