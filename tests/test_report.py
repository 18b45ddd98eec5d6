"""The shared witness scan: first failure, lazily formatted context."""

from weakhopf import QQ, FinVec, Vector
from weakhopf.report import CheckResult, compare_vectors, first_failure

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
