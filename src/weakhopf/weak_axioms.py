"""The weak bialgebra and weak Hopf axioms (Böhm, Nill and Szlachányi, *Weak
Hopf algebras I*, J. Algebra 221, 1999), which only ``whw check weak-hopf`` and
``check wb`` run; their sparse kernels are in :mod:`weak_hopf`."""

from __future__ import annotations

from .axioms import _where, check_algebra, check_coalgebra
from .elimination import Subspace
from .report import (CheckResult, Report, _first_difference, compare_maps, compare_scalars,
                     compare_vectors, first_failure)
from .structures import WeakBialgebraData, WeakHopfData
from .tensor_space import LinMap, Vector, _combine, _kron
from .weak_hopf import _mul_with, _on_image, _sweedler, pointwise_product


def check_weak_bialgebra(wb: WeakBialgebraData) -> Report:
    """Algebra axioms, coalgebra axioms, and the three compatibility axioms
    (multiplicativity of Δ, weak multiplicativity of ε, the Δ²(1) identity)."""
    rep, wb = Report("weak bialgebra axioms"), _on_image(wb, "wb")
    rep.extend(check_algebra(wb.alg))
    rep.extend(check_coalgebra(wb.coalg))
    H, A, C, n = wb.space, wb.alg, wb.coalg, wb.space.dim
    p = wb.field.characteristic

    # (i)  Δ(hk) = Δ(h)Δ(k)
    m, delta = A.mul.cols, C.comul.columns()
    comul = C.comul.cols
    rep.add(compare_maps("(i)", (_combine(comul, col.items(), p) if col else {} for col in m), (
        pointwise_product(A, 2, delta[x // n], delta[x % n]).terms for x in range(n * n)),
        _where(H, 2, 2)))

    # (ii)  ε(hkl) = ε(hk₁)ε(k₂l) = ε(hk₂)ε(k₁l); for each (h, k) the three
    # sides are functionals of l, combined from rows of the counit form.
    # In (ii)a the first leg of Δ(k) meets h and the second meets l.
    form = wb.eps_form
    zero = wb.field.zero()

    def cases(hk: int, kl: int):
        for i in range(n):
            row = form[i]
            for j in range(n):
                full = _combine(form, col.items(), p) if (col := m[i * n + j]) else {}
                side = [(t[kl], t[2] * row[t[hk]]) for t in C.delta_pairs(j) if t[hk] in row]
                diff = _first_difference(full, _combine(form, side, p) if side else {}, zero)
                yield (i, j, diff), diff is None or compare_scalars("", wb.field, *diff[1:])

    for label, hk, kl in (("(ii)a", 0, 1), ("(ii)b", 1, 0)):
        rep.add(first_failure(label, cases(hk, kl), lambda c: (
            f"(h,k,l)=({H.labels[c[0]]},{H.labels[c[1]]},{H.labels[c[2][0]]}): ")))

    # (iii)  (1⊗Δ(1))(Δ(1)⊗1) = Σ u1₁ ⊗ 1′₁1₂ ⊗ 1′₂u and its mirror
    # (Δ(1)⊗1)(1⊗Δ(1)) = Σ 1₁u ⊗ 1₂1′₁ ⊗ u1′₂, both = Δ²(1), with u the stored unit
    u, e = A.unit.terms, LinMap.identity(H).cols
    ue, eu = [A.times(u, x) for x in e], [A.times(x, u) for x in e]
    delta2_one = _combine(C.delta2, u.items(), p)
    d1, where = wb.delta_one_pairs, _where(H, 3)
    for label, first, middle, last in (("(iii)a", ue, (2, 1), eu), ("(iii)b", eu, (1, 2), ue)):
        rep.add(compare_vectors(label, _sweedler(
            [d1], [(0, first, n), (middle, m, n), (3, last, n)], n, p, d1)[0], delta2_one, where))
    return rep


def check_weak_hopf(H: WeakHopfData) -> Report:
    """Weak bialgebra axioms, the three antipode axioms, and the standard
    derived antipode facts."""
    rep, Q, H = Report("weak Hopf axioms"), H, _on_image(H, "weak Hopf")
    rep.extend(check_weak_bialgebra(H.wb))

    space, n, S, Sc = H.space, H.space.dim, H.antipode, H.antipode.cols
    p = H.field.characteristic
    m, comul, terms = H.alg.mul.cols, H.coalg.comul.cols, H.coalg._delta_terms
    # S-(i) h₁S(h₂) = ε_t(h), S-(ii) S(h₁)h₂ = ε_s(h), S-(iii) (S(h₁)h₂)S(h₃) = S(h),
    # the last as m∘(id⊗S) of Σ σ(h₁)⊗h₂ over Δ(h) with σ = S-(ii)'s left side
    mul_id_s, mul_s_id = _mul_with(H.alg, Sc, 1), _mul_with(H.alg, Sc, 0)
    sigma = [_combine(mul_s_id, col.items(), p) for col in comul]
    rep.add(compare_maps("S-(i)", LinMap(space, space, [_combine(mul_id_s, col.items(), p)
                                                         for col in comul]), H.eps_t))
    rep.add(compare_maps("S-(ii)", LinMap(space, space, sigma), H.eps_s))
    s_iii = _sweedler(terms, [(0, sigma, n), (1, None, n)], n, p)
    rep.add(compare_maps("S-(iii)", LinMap(space, space, [_combine(mul_id_s, col.items(), p)
                                                          for col in s_iii]), S))

    rep.add(compare_vectors("S(1)=1", H.S(H.unit), H.unit))
    rep.add(compare_maps("eps∘S=eps", H.coalg.counit @ S, H.coalg.counit))
    # anti-multiplicativity S(hk) = S(k)S(h), anti-comultiplicativity Δ(S(h)) = S(h₂)⊗S(h₁)
    rep.add(compare_maps("S-antimult", (_combine(Sc, col.items(), p) if col else {} for col in m), (
        _combine(m, _kron(Sc[x % n], Sc[x // n], n, p).items(), p) for x in range(n * n)),
        _where(space, 2, 1)))

    # flip∘(S⊗S): Σ c·S(e_b)⊗S(e_a), of Δ(e_h) for each h and of Δ(1) in one call
    *flip, flip_one = _sweedler([*terms, H.wb.delta_one_pairs], [(1, Sc, n), (0, Sc, n)], n, p)
    rep.add(compare_maps("S-anticomult", (_combine(comul, col.items(), p) for col in Sc),
                         flip, _where(space, 1, 2)))
    # S exchanges the target and source subalgebras, decided over ℚ
    for label, sub, image in (("S(Ht)=Hs", Q.Ht, Q.Hs), ("S(Hs)=Ht", Q.Hs, Q.Ht)):
        same = Subspace.from_vectors(Q.space, [Q.S(v) for v in sub.basis_vectors]) == image
        rep.add(CheckResult(label, same, None if same else "images differ"))
    # 1₁⊗1₂ = S(1₂)⊗S(1₁)
    rep.add(compare_vectors("Δ(1)=(S⊗S)flip(Δ(1))", H.wb.delta_one,
                            Vector(H.wb.delta_one.space, flip_one)))
    return rep
