"""The algebra and coalgebra axioms, which the weak bialgebra check and the
globalization check run on their records, and the labels of their witnesses.
"""

from __future__ import annotations

from .report import Report, compare_maps, compare_vectors, first_failure
from .structures import AlgebraData, CoalgebraData
from .tensor_space import FinVec, LinMap, Vector, _accumulate, _combine


def _where(space: FinVec, p: int, q: int | None = None) -> tuple:
    """``(field, name)`` labelling, only when called and as ``tensor_product``
    prints them, input j and output i of H^⊗p → H^⊗q, or (q None) i of H^⊗p."""
    labels, n = space.labels, space.dim

    def label(idx: int, power: int) -> str:
        return "⊗".join(labels[idx // n ** s % n] for s in range(power - 1, -1, -1))

    return space.field, ((lambda i: label(i, p)) if q is None
                         else (lambda j, i: (label(j, p), label(i, q))))


def check_algebra(A: AlgebraData) -> Report:
    """The algebra axioms: associativity and the two unit laws."""
    rep = Report(f"algebra axioms on {A.space.dim}-dim space")
    n, m, p = A.space.dim, A.mul.cols, A.field.characteristic
    # assoc per basis pair x = h·n + k, comparing l ↦ (hk)l with l ↦ h(kl) as dicts keyed
    # l·n + output; left_by[t] is l ↦ e_t·e_l in that form
    left_by = [{l * n + o: c for l in range(n) for o, c in m[t * n + l].items()}
               for t in range(n)]
    field, name = _where(A.space, 3, 1)
    rep.add(compare_maps("assoc", (_combine(left_by, col.items(), p) if col else {} for col in m), (
        _accumulate((({key - key % n + o: v for o, v in m[x - x % n + key % n].items()}, c)
                     for key, c in left_by[x % n].items()), p) for x in range(n * n)),
        (field, lambda x, key: name(x * n + key // n, key % n))))
    u, labels, e = A.unit.terms, A.space.labels, LinMap.identity(A.space).cols
    for label, left in (("unit-left", True), ("unit-right", False)):
        rep.add(first_failure(label, (
            (i, compare_vectors("", Vector(A.space, A.times(u, x) if left
                                           else A.times(x, u)), Vector(A.space, x)))
            for i, x in enumerate(e)), lambda i: f"{labels[i]}: "))
    return rep


def check_coalgebra(C: CoalgebraData) -> Report:
    """The coalgebra axioms: coassociativity and the two counit laws."""
    rep = Report(f"coalgebra axioms on {C.space.dim}-dim space")
    ident = LinMap.identity(C.space)
    n, cols, p = C.space.dim, C.comul.cols, C.field.characteristic
    rep.add(compare_maps("coassoc", C.delta2, (
        _accumulate((({a * n * n + y: v for y, v in cols[b].items()}, c)
                     for a, b, c in terms), p)
        for terms in C._delta_terms), _where(C.space, 1, 3)))
    # counit laws, checked as maps C → C: ε on the first leg, then the second
    for leg, label in enumerate(("counit-left", "counit-right")):
        contracted = LinMap(C.space, C.space, [
            _accumulate((({t[1 - leg]: t[2]}, C.eps_coeff(t[leg]))
                         for t in C.delta_pairs(j)), p)
            for j in range(C.space.dim)])
        rep.add(compare_maps(label, contracted, ident))
    return rep
