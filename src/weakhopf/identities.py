"""The numbered identity catalog of ε_t, ε_s and the antipode (Eq 4.2-4.43),
which only ``whw check identities`` runs; the axioms are in :mod:`weak_axioms`."""

from __future__ import annotations

from .axioms import _where
from .elimination import Subspace
from .report import CheckResult, Report, compare_maps, compare_vectors, first_failure
from .structures import WeakHopfData, _eps_contraction
from .tensor_space import LinMap, Vector, _combine, _kron, tensor_product
from .weak_hopf import Table, _mul_with, _on_image, _sweedler, pointwise_product


def check_identities(H: WeakHopfData) -> Report:
    """The numbered identity catalog for target/source maps and the antipode.

    Identities restricted to the target (source) subalgebra are evaluated on
    the cached canonical basis of that subalgebra.  The three identities that
    involve the inverse antipode are skipped, not failed, when S is singular.
    """
    rep, Q, H = Report("identity catalog"), H, _on_image(H, "identities")
    space, n, A, C = H.space, H.space.dim, H.alg, H.coalg
    p = H.field.characteristic
    S, Sinv, et, es = H.antipode, H.antipode_inverse, H.eps_t, H.eps_s
    comul, counit, HH = C.comul, C.counit, tensor_product(space, space)

    # 4.2  h₁⊗h₂ = h₁1₁⊗h₂1₂ = 1₁h₁⊗1₂h₂
    d1, d1p, deltas = H.wb.delta_one, H.wb.delta_one_pairs, comul.columns()
    one_two = _where(space, 1, 2)
    rep.add(compare_maps("Eq 4.2a", comul.cols, (pointwise_product(A, 2, h, d1).terms
                                                  for h in deltas), one_two))
    rep.add(compare_maps("Eq 4.2b", comul.cols, (pointwise_product(A, 2, d1, h).terms
                                                  for h in deltas), one_two))

    rep.add(compare_maps("Eq 4.3", et @ et, et))
    rep.add(compare_maps("Eq 4.4", es @ es, es))
    # 4.5  ε(hε_t(k)) = ε(hk), 4.6  ε(ε_s(h)k) = ε(hk): one block per h, keyed k
    form, etc, esc, m = H.wb.eps_form, et.cols, es.cols, A.mul.cols
    pair, ground_label = _where(space, 2)[1], counit.codomain.labels[0]
    by_h = (H.field, lambda h, k: (pair(h * n + k), ground_label))
    et_rows = et.transposed_rows()
    rep.add(compare_maps("Eq 4.5", (_combine(et_rows, row.items(), p) if row else {}
                                    for row in form), form, by_h))
    rep.add(compare_maps("Eq 4.6", (_combine(form, col.items(), p) if col else {}
                                    for col in esc), form, by_h))

    # 4.7  Δ(1) ∈ Hs⊗Ht, decided over ℚ
    hs_ht = Subspace.from_vectors(tensor_product(Q.space, Q.space), [
        s.tensor(t) for s in Q.Hs.basis_vectors for t in Q.Ht.basis_vectors])
    inside = hs_ht.contains(Q.wb.delta_one)
    rep.add(CheckResult("Eq 4.7", inside, None if inside else "Δ(1) ∉ Hs⊗Ht"))

    # products with ε_t or ε_s on one side: h·ε_t(k), ε_t(h)·k, ε_s(h)·k, h·ε_s(k)
    h_et, et_h = _mul_with(A, etc, 1), _mul_with(A, etc, 0)
    es_h, h_es = _mul_with(A, esc, 0), _mul_with(A, esc, 1)
    hk, by_hk = range(n * n), _where(space, 2, 1)
    rep.add(compare_maps("Eq 4.8", (_combine(etc, col.items(), p) if col else {} for col in h_et),
                         (_combine(etc, col.items(), p) if col else {} for col in m), by_hk))
    rep.add(compare_maps("Eq 4.9", (_combine(esc, col.items(), p) if col else {} for col in es_h),
                         (_combine(esc, col.items(), p) if col else {} for col in m), by_hk))

    # h ↦ Σ over Δ(1) of factors on the legs (h, 1₁, 1₂), for 4.10-4.13 and 4.30-4.43
    basis, Sc, dt = [[(j, H.field.one())] for j in range(n)], S.cols, C._delta_terms

    def sandwich(*factors, codomain=HH) -> LinMap:
        return LinMap(space, codomain, _sweedler(basis, factors, n, p, d1p))

    map_1h_1 = sandwich(((1, 0), m, n), (2, None, n))
    map_1_h1 = sandwich((1, None, n), ((0, 2), m, n))

    def restricted(lhs: LinMap, rhs: LinMap, sub: Subspace):
        return ((v, compare_vectors("", lhs.apply(v), rhs.apply(v))) for v in sub.basis_vectors)

    def at_h(v: Vector) -> str:
        return f"h={v.describe()}: "

    rep.add(first_failure("Eq 4.10", restricted(comul, map_1h_1, H.Ht), at_h))
    rep.add(first_failure("Eq 4.11", restricted(comul, map_1_h1, H.Hs), at_h))
    rep.add(compare_maps("Eq 4.12", _sweedler(dt, [(0, None, n), (1, etc, n)], n, p),
                         map_1h_1.cols, one_two))
    rep.add(compare_maps("Eq 4.13", _sweedler(dt, [(0, esc, n), (1, None, n)], n, p),
                         map_1_h1.cols, one_two))

    # 4.14  hε_t(k) = ε(h₁k)h₂ ; 4.15  ε_s(h)k = k₁ε(hk₂)
    rep.add(compare_maps("Eq 4.14", h_et, (
        _eps_contraction(H.wb, C.delta_pairs(x // n), 0, x % n) for x in hk), by_hk))
    rep.add(compare_maps("Eq 4.15", es_h, (
        _eps_contraction(H.wb, C.delta_pairs(x % n), 1, x // n) for x in hk), by_hk))

    # 4.16  hk = kh for h ∈ Ht, k ∈ Hs
    rep.add(first_failure("Eq 4.16", (
        ((t, s), compare_vectors("", A.product(t, s), A.product(s, t)))
        for t in H.Ht.basis_vectors for s in H.Hs.basis_vectors),
        lambda ts: f"h={ts[0].describe()}, k={ts[1].describe()}: "))

    # 4.17 / 4.18: identities of Δ²(1) = (Δ⊗id)Δ(1) in H⊗H⊗H,
    # 1₁⊗ε_t(1₂)⊗1₃ = 1₁1′₁⊗1₂⊗1′₂ and 1₁⊗ε_s(1₂)⊗1₃ = 1₁⊗1′₁⊗1₂1′₂, the left
    # sides as Σ (id⊗f)Δ(1₁)⊗1₂ over Δ(1), from the columns (id⊗f)Δ(h) in H⊗H
    triple = _where(space, 3)
    for label, f, rhs in (("Eq 4.17", etc, [((0, 2), m, n), (1, None, n), (3, None, n)]),
                          ("Eq 4.18", esc, [(0, None, n), (2, None, n), ((1, 3), m, n)])):
        id_f = _sweedler(dt, [(0, None, n), (1, f, n)], n, p)
        rep.add(compare_vectors(label, _sweedler([d1p], [(0, id_f, n * n), (1, None, n)], n, p)[0],
                                _sweedler([d1p], rhs, n, p, d1p)[0], triple))

    for label, f, f_h in (("Eq 4.19", etc, et_h), ("Eq 4.20", esc, h_es)):
        rep.add(compare_maps(label, (_combine(f, col.items(), p) if col else {} for col in f_h), (
            _combine(m, t.items(), p) if (t := _kron(f[x // n], f[x % n], n, p)) else {}
            for x in hk), by_hk))

    # antipode identities 4.30-4.43; eS, Se and ε∘m as functionals at h·n + k:
    # ε(S(e_h)·e_k), ε(e_h·S(e_k)) and ε(e_h·e_k)
    mul_id_s, mul_s_id = _mul_with(A, Sc, 1), _mul_with(A, Sc, 0)
    eS, Se = (Table(n * n, lambda x, t=t: _combine(counit.cols, t[x].items(), p) if t[x] else {})
              for t in (mul_s_id, mul_id_s))
    em = Table(n * n, lambda x: {0: v} if (v := form[x // n].get(x % n)) else {})
    rep.add(compare_maps("Eq 4.30", et, sandwich(((0, 1), eS, 1), (2, None, n), codomain=space)))
    rep.add(compare_maps("Eq 4.31", es, sandwich((1, None, n), ((2, 0), Se, 1), codomain=space)))
    rep.add(compare_maps("Eq 4.32", et, sandwich((1, Sc, n), ((2, 0), em, 1), codomain=space)))
    rep.add(compare_maps("Eq 4.33", es, sandwich(((0, 1), em, 1), (2, Sc, n), codomain=space)))

    rep.add(compare_maps("Eq 4.34a", et @ S, et @ es))
    rep.add(compare_maps("Eq 4.34b", et @ es, S @ es))
    rep.add(compare_maps("Eq 4.35a", es @ S, es @ et))
    rep.add(compare_maps("Eq 4.35b", es @ et, S @ et))

    # h ↦ Σ over Δ²(h) = (Δ⊗id)Δ(h) of factors on its legs, as (p, q, r, c) terms
    d2 = [[(x, y, b, v if c == 1 else c if v == 1 else c * v) for a, b, c in terms
           for x, y, v in dt[a]] for terms in dt]

    def on_delta2(*factors) -> LinMap:
        return LinMap(space, HH, _sweedler(d2, factors, n, p))

    def on_h1(table, flip: bool = False) -> LinMap:
        """Σ f(Δ(h₁))⊗h₂ over Δ(h), for f with the columns ``table`` read at the legs
        (0, 1) of Δ²(h), or (1, 0) when ``flip``."""
        g = [_combine(table, ((i % n * n + i // n if flip else i, c) for i, c in col.items()), p)
             for col in comul.cols]
        return LinMap(space, HH, _sweedler(dt, [(0, g, n), (1, None, n)], n, p))

    rep.add(compare_maps("Eq 4.36", on_delta2((0, None, n), ((1, 2), mul_id_s, n)), map_1h_1))
    rep.add(compare_maps("Eq 4.37", on_h1(mul_s_id), map_1_h1))
    rep.add(compare_maps("Eq 4.38", on_delta2((0, None, n), ((1, 2), mul_s_id, n)),
                         sandwich(((0, 1), m, n), (2, Sc, n))))
    rep.add(compare_maps("Eq 4.39", on_h1(mul_id_s), sandwich((1, Sc, n), ((2, 0), m, n))))

    # 4.41  h₂S⁻¹(h₁)⊗h₃ = S(ε_t(h₁))⊗h₂ = 1₁⊗1₂h
    rhs_441 = sandwich((1, None, n), ((2, 0), m, n))
    rep.add(compare_maps("Eq 4.41b", LinMap(space, HH, _sweedler(
        dt, [(0, (S @ et).cols, n), (1, None, n)], n, p)), rhs_441))
    if Sinv is None:
        for label in ("Eq 4.41a", "Eq 4.42", "Eq 4.43"):
            rep.add(CheckResult(label, False, "antipode not invertible", skipped=True))
    else:   # e_h·S⁻¹(e_k) and S⁻¹(e_h)·e_k at h·n + k
        mul_id_si, mul_si_id = _mul_with(A, Sinv.cols, 1), _mul_with(A, Sinv.cols, 0)
        rep.add(compare_maps("Eq 4.41a", on_h1(mul_id_si, flip=True), rhs_441))
        rep.add(first_failure("Eq 4.42", restricted(
            sandwich(((1, 0), mul_id_si, n), (2, None, n)), rhs_441, H.Ht), at_h))
        rep.add(first_failure("Eq 4.43", restricted(
            sandwich((1, None, n), ((0, 2), mul_si_id, n)),
            sandwich(((0, 1), m, n), (2, None, n)), H.Hs), at_h))
    return rep
