"""Pass/fail reporting for axiom and identity checkers.

Failures carry a witness naming the smallest basis input where the two sides
of an identity disagree, so a red line can be reproduced by hand.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .errors import Frozen, same_fields


class CheckResult(Frozen):
    def __init__(self, label: str, passed: bool, witness: str | None = None,
                 skipped: bool = False):
        self.__dict__.update(label=label, passed=passed, witness=witness, skipped=skipped)

    __eq__ = same_fields

    @property
    def ok(self) -> bool:
        return self.passed or self.skipped

    def line(self) -> str:
        if self.skipped:
            return f"SKIP {self.label}: {self.witness or ''}".rstrip()
        if self.passed:
            return f"PASS {self.label}"
        return f"FAIL {self.label}" + (f": {self.witness}" if self.witness else "")


class Report:
    def __init__(self, title: str, results: list[CheckResult] | None = None):
        self.title = title
        self.results = [] if results is None else results

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

    def format_text(self) -> str:
        head = f"== {self.title}: {'OK' if self.ok else 'FAILED'}"
        return "\n".join([head] + [r.line() for r in self.results])

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


class PartialActionVerdict:
    """Outcome of the partial module-coalgebra (or -algebra) checks, or of the
    λ conditions; ``report`` holds the required axioms.  The global λ verdict
    has no ``symmetric`` variant, so it is never symmetric."""

    def __init__(self, report: Report, symmetric: CheckResult | None, globality: CheckResult,
                 consistency: CheckResult | None = None):
        self.report = report
        self.symmetric = symmetric
        self.globality = globality
        self.consistency = consistency

    @property
    def is_partial(self) -> bool:
        return self.report.ok

    @property
    def is_symmetric(self) -> bool:
        return self.is_partial and self.symmetric is not None and self.symmetric.passed

    def full_report(self) -> Report:
        rep = Report(self.report.title)
        rep.results = list(self.report.results)
        rep.add(CheckResult("symmetric [info]", True,
                            f"holds={self.symmetric.passed}"))
        rep.add(CheckResult("globality [info]", True,
                            f"holds={self.globality.passed}"))
        if self.consistency is not None:
            rep.add(self.consistency)
        return rep


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
    two values there, or None if they are equal (at once if they are one dict)."""
    if a is b or a == b:
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
    """Exact equality of two scalars, compared (and printed) as reduced into
    the field, so a GF(p) side computed outside the sparse kernels may be an
    unreduced int."""
    if lhs != rhs and field_obj.coerce(lhs) != field_obj.coerce(rhs):
        prefix = f"{context}: " if context else ""
        return CheckResult(
            label, False, f"{prefix}{field_obj.fmt(lhs)} ≠ {field_obj.fmt(rhs)}"
        )
    return CheckResult(label, True)
