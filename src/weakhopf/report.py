"""Pass/fail reporting for axiom and identity checkers.

Failures carry a witness naming the smallest basis input where the two sides
of an identity disagree, so a red line can be reproduced by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


def _first_difference(a: dict, b: dict, zero):
    """The smallest index where two sparse coordinate dicts differ, with the
    two values there, or None if they are equal."""
    if a == b:
        return None
    i = min(k for k in a.keys() | b.keys() if a.get(k, zero) != b.get(k, zero))
    return i, a.get(i, zero), b.get(i, zero)


def compare_maps(label: str, lhs, rhs) -> CheckResult:
    """Exact equality of two LinMaps; the witness is the first basis input
    (scanning domain basis vectors in order, then outputs in order) where
    they disagree."""
    if lhs.domain != rhs.domain or lhs.codomain != rhs.codomain:
        return CheckResult(label, False, "shape mismatch between the two sides")
    field = lhs.domain.field
    for j, (ca, cb) in enumerate(zip(lhs.cols, rhs.cols)):
        diff = _first_difference(ca, cb, field.zero())
        if diff is not None:
            i, a, b = diff
            witness = (
                f"input {lhs.domain.labels[j]}, output {lhs.codomain.labels[i]}: "
                f"{field.fmt(a)} ≠ {field.fmt(b)}"
            )
            return CheckResult(label, False, witness)
    return CheckResult(label, True)


def compare_vectors(label: str, lhs, rhs, context: str = "") -> CheckResult:
    if lhs.space != rhs.space:
        return CheckResult(label, False, "the two sides live in different spaces")
    field = lhs.space.field
    diff = _first_difference(lhs.terms, rhs.terms, field.zero())
    if diff is not None:
        i, a, b = diff
        prefix = f"{context}: " if context else ""
        return CheckResult(label, False, f"{prefix}coefficient of {lhs.space.labels[i]}: "
                                         f"{field.fmt(a)} ≠ {field.fmt(b)}")
    return CheckResult(label, True)


def compare_scalars(label: str, field_obj, lhs, rhs, context: str = "") -> CheckResult:
    if lhs != rhs:
        prefix = f"{context}: " if context else ""
        return CheckResult(
            label, False, f"{prefix}{field_obj.fmt(lhs)} ≠ {field_obj.fmt(rhs)}"
        )
    return CheckResult(label, True)
