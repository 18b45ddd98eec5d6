"""The shared witness scan: first failure, lazily formatted context; and the
record classes' constructors, equality and read-only fields."""

import pytest

from weakhopf import (QQ, FinVec, LambdaFunctional, Vector, groupoid_algebra, lambda_action,
                      two_object_iso_groupoid)
from weakhopf.report import CheckResult, Report, compare_vectors, first_failure

V = FinVec(QQ, ("x", "y"))


def test_first_failure_passes_when_every_case_holds():
    assert first_failure("L", [], str) == CheckResult("L", True)
    cases = [(0, CheckResult("", True)), (1, True)]
    assert first_failure("L", cases, str) == CheckResult("L", True)


def test_first_failure_reports_the_first_failing_case_under_its_label():
    ok, bad = Vector.basis(V, 0), Vector.basis(V, 1)
    cases = [(i, compare_vectors("inner", ok, w)) for i, w in enumerate([ok, bad, ok + bad])]
    r = first_failure("outer", cases, lambda i: f"case {i}; ")
    assert r == CheckResult("outer", False, "case 1; coefficient of x: 1 ≠ 0")


def test_first_failure_takes_a_bool_witness_from_the_context_alone():
    r = first_failure("B", [("p", True), ("q", False)], lambda c: f"{c} escapes")
    assert r == CheckResult("B", False, "q escapes")


def test_first_failure_is_lazy():
    formatted, evaluated = [], []

    def cases():
        for i in range(10):
            evaluated.append(i)
            yield i, i != 3

    def where(i):
        formatted.append(i)
        return f"at {i}"

    assert first_failure("L", cases(), where).witness == "at 3"
    assert evaluated == [0, 1, 2, 3] and formatted == [3]


# -- the record classes ------------------------------------------------------------

H = groupoid_algebra(two_object_iso_groupoid(), QQ)
READ_ONLY = {
    "CheckResult": (CheckResult("x", True), "passed"),
    "FinVec": (V, "labels"),
    "WeakHopfData": (H, "antipode"),
    "ActionTensor": (lambda_action(LambdaFunctional.indicator(H, ["e"]), H.coalg), "side"),
}


@pytest.mark.parametrize("record,name", READ_ONLY.values(), ids=list(READ_ONLY))
def test_record_fields_cannot_be_assigned_or_deleted(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError, match=name):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=name):
        delattr(record, name)
    assert getattr(record, name) is before


def test_cached_tables_are_kept_on_a_read_only_record():
    assert H.Ht is H.Ht and "Ht" in vars(H)


def test_check_result_equality_compares_every_field():
    r = CheckResult("x", True)
    assert r == CheckResult(label="x", passed=True, witness=None, skipped=False)
    assert r.witness is None and r.skipped is False
    assert r != CheckResult("x", True, skipped=True)
    assert r != CheckResult("x", False) and r != CheckResult("y", True)
    assert r != CheckResult("x", True, "w") and r != ("x", True, None, False)


def test_report_gets_a_fresh_result_list():
    a, b = Report("t"), Report(title="t")
    a.add(CheckResult("x", True))
    assert a.results == [CheckResult("x", True)] and b.results == []
    assert Report("t", [CheckResult("y", False)]).results == [CheckResult("y", False)]
