"""Hopf detection, whose five conditions ``whw check hopf`` decides, and the
dual weak Hopf algebra, which no command builds: neither is compiled by a
check of the axioms or of the identity catalogue."""

from __future__ import annotations

from .elimination import Subspace
from .report import CheckResult, Report
from .structures import WeakHopfData, _assemble, dual_convolution_algebra
from .tensor_space import LinMap, _combine
from .weak_hopf import _mul_with


def is_hopf(H: WeakHopfData) -> Report:
    """The "Hopf detection" report: the five equivalent Hopf conditions (i)-(v),
    each evaluated on its own, and whether they agree; ``.ok`` iff H is Hopf."""
    space, n, A, C, f = H.space, H.space.dim, H.alg, H.coalg, H.field

    cond1 = H.wb.delta_one == A.unit.tensor(A.unit)

    cond2 = all(H.wb.eps_form[i].get(j, 0) == f.coerce(C.eps_coeff(i) * C.eps_coeff(j))
                for i in range(n) for j in range(n))

    eps_times_one = LinMap.from_function(space, space, lambda j: A.unit.scale(C.eps_coeff(j)))
    cond3, cond4 = (LinMap(space, space, [
        _combine(mul_s, col.items(), f.characteristic) for col in C.comul.cols]) == eps_times_one
        for mul_s in (_mul_with(A, H.antipode.cols, 1), _mul_with(A, H.antipode.cols, 0)))

    span_one = Subspace.from_vectors(space, [A.unit])
    cond5 = H.Ht == span_one and H.Hs == span_one

    conditions = (cond1, cond2, cond3, cond4, cond5)
    agree = len(set(conditions)) == 1
    labels = ("(i) Δ(1)=1⊗1", "(ii) ε multiplicative", "(iii) h₁S(h₂)=ε(h)1",
              "(iv) S(h₁)h₂=ε(h)1", "(v) Ht=Hs=k·1")
    return Report("Hopf detection", [
        *map(CheckResult, labels, conditions),
        CheckResult("conditions agree", agree, None if agree else "the five conditions disagree")])


def dualize(H: WeakHopfData) -> WeakHopfData:
    """The dual weak Hopf algebra on the coordinate dual basis.

    Product is convolution (the transpose of Δ), coproduct is the transpose
    of the multiplication, unit is ε, counit is evaluation at 1, and the
    antipode is precomposition with S (the transpose of S's matrix).
    """
    dual_alg = dual_convolution_algebra(H.coalg)
    return _assemble(dual_alg.space, dual_alg.mul.cols, dual_alg.unit.terms,
                     H.alg.mul.transposed_rows(), H.unit.coords, H.antipode.transposed_rows())
