"""The weak bialgebra and weak Hopf axioms, the numbered identity catalog,
the Hopf-detection test and dualization, for the structure records of
:mod:`structures`.

All checkers quantify over basis elements only; by multilinearity this is
sufficient, and it is what makes every verdict exact and reproducible.
"""

from __future__ import annotations

from .errors import Frozen, ShapeMismatch
from .report import (
    CheckResult,
    Report,
    _first_difference,
    compare_maps,
    compare_scalars,
    compare_vectors,
    first_failure,
)
# CoalgebraData, ε_t and ε_s are not used here; they are imported so that this
# module still offers every record and both target/source maps by name
from .structures import (
    AlgebraData,
    CoalgebraData,
    WeakBialgebraData,
    WeakHopfData,
    _assemble,
    _eps_contraction,
    _where,
    dual_convolution_algebra,
    eps_s,
    eps_t,
)
from .tensor_space import LinMap, Subspace, Vector, _accumulate, _combine, _kron, tensor_product


def pointwise_product(alg: AlgebraData, power: int, x: Vector, y: Vector) -> Vector:
    """Componentwise product of two elements of the tensor power H^⊗power,
    (a1⊗...⊗ak)(b1⊗...⊗bk) = a1b1 ⊗ ... ⊗ akbk, extended bilinearly; pairs
    of terms whose first factors multiply to zero are skipped."""
    n, m, top = alg.space.dim, alg.mul.cols, alg.space.dim ** (power - 1)
    p = alg.field.characteristic
    if x.space != y.space or x.space.dim != n ** power:
        raise ShapeMismatch("operands must live in the same tensor power of H")
    by_first = {}
    for j, b in y.terms.items():
        by_first.setdefault(j // top, []).append((j, b))

    def term(i: int, j: int) -> dict:
        out = {0: alg.field.one()}
        for s in range(power - 1, -1, -1):
            out = _kron(out, m[i // n ** s % n * n + j // n ** s % n], n, p)
        return out

    return Vector(x.space, _accumulate(((term(i, j), a * b) for i, a in x.terms.items()
                                        for a2 in alg.nonzero_products[0][i // top]
                                        for j, b in by_first.get(a2, ())), p))


def _joined(alg: AlgebraData, xs, x_leg: int, ys, y_leg: int, right: bool):
    """The pairs of Sweedler terms (a, b, c) of xs and (a′, b′, c′) of ys whose
    legs x = (a, b)[x_leg] and y = (a′, b′)[y_leg] have a nonzero product xy =
    e_x·e_y (``right``) or e_y·e_x, and only those, as (a, b, a′, b′, c·c′, xy)."""
    n, m = alg.space.dim, alg.mul.cols
    partners, group = alg.nonzero_products[0 if right else 1], {}
    for t in ys:
        group.setdefault(t[y_leg], []).append(t)
    for a, b, c in xs:
        x = (a, b)[x_leg]
        for y in partners[x]:
            for a2, b2, c2 in group.get(y, ()):
                yield a, b, a2, b2, c * c2, m[x * n + y] if right else m[y * n + x]


def _sum3(terms, n: int, p: int) -> dict:
    """Σ c·x⊗y⊗z over (x, y, z, c) with sparse dicts x, y, z, in H⊗H⊗H."""
    return _accumulate(((_kron(_kron(x, y, n, p), z, n, p), c) for x, y, z, c in terms), p)


def check_weak_bialgebra(wb: WeakBialgebraData) -> Report:
    """Algebra axioms, coalgebra axioms, and the three compatibility axioms
    (multiplicativity of Δ, weak multiplicativity of ε, the Δ²(1) identity)."""
    rep = Report("weak bialgebra axioms")
    rep.extend(wb.alg.validate())
    rep.extend(wb.coalg.validate())
    H, A, C, n = wb.space, wb.alg, wb.coalg, wb.space.dim
    p = wb.field.characteristic

    # (i)  Δ(hk) = Δ(h)Δ(k)
    m = A.mul.cols
    rep.add(compare_maps("(i)", (_combine(C.comul.cols, m[x].items(), p) for x in range(n * n)), (
        pointwise_product(A, 2, C.comul.column(x // n), C.comul.column(x % n)).terms
        for x in range(n * n)), _where(H, 2, 2)))

    # (ii)  ε(hkl) = ε(hk₁)ε(k₂l) = ε(hk₂)ε(k₁l); for each (h, k) the three
    # sides are functionals of l, combined from rows of the counit form.
    # In (ii)a the first leg of Δ(k) meets h and the second meets l.
    form = wb.eps_form
    zero = wb.field.zero()

    def cases(hk: int, kl: int):
        for i in range(n):
            row = form[i]
            for j in range(n):
                full = _combine(form, A.mul.cols[i * n + j].items(), p)
                side = _combine(form, [(t[kl], t[2] * row[t[hk]])
                                       for t in C.delta_pairs(j) if t[hk] in row], p)
                diff = _first_difference(full, side, zero)
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
    for label, first, last, b_first in (("(iii)a", ue, eu, False), ("(iii)b", eu, ue, True)):
        rep.add(compare_vectors(label, _sum3(((first[a], xy, last[b2], c) for a, b, a2, b2, c, xy
                                              in _joined(A, d1, 1, d1, 0, b_first)), n, p),
                                delta2_one, where))
    return rep


# ---------------------------------------------------------------------------
# weak Hopf checkers
# ---------------------------------------------------------------------------

def check_weak_hopf(H: WeakHopfData) -> Report:
    """Weak bialgebra axioms, the three antipode axioms, and the standard
    derived antipode facts."""
    rep = Report("weak Hopf axioms")
    rep.extend(check_weak_bialgebra(H.wb))

    space, n, S, Sc = H.space, H.space.dim, H.antipode, H.antipode.cols
    p = H.field.characteristic
    m, comul, terms = H.alg.mul.cols, H.coalg.comul.cols, H.coalg._delta_terms
    # S-(i) h₁S(h₂) = ε_t(h), S-(ii) S(h₁)h₂ = ε_s(h), S-(iii) (S(h₁)h₂)S(h₃) = S(h),
    # the last as Σ σ(h₁)S(h₂) over Δ(h) with σ = S-(ii)'s left side
    mul_id_s, mul_s_id = _mul_with(H.alg, Sc, 1), _mul_with(H.alg, Sc, 0)
    sigma = [_combine(mul_s_id, col.items(), p) for col in comul]
    rep.add(compare_maps("S-(i)", LinMap(space, space, [_combine(mul_id_s, col.items(), p)
                                                         for col in comul]), H.eps_t))
    rep.add(compare_maps("S-(ii)", LinMap(space, space, sigma), H.eps_s))
    rep.add(compare_maps("S-(iii)", LinMap(space, space, [_combine(mul_id_s, _accumulate((
        ({t * n + b: v for t, v in sigma[a].items()}, c) for a, b, c in t3), p).items(), p)
        for t3 in terms]), S))

    rep.add(compare_vectors("S(1)=1", H.S(H.unit), H.unit))
    rep.add(compare_maps("eps∘S=eps", H.coalg.counit @ S, H.coalg.counit))
    # anti-multiplicativity S(hk) = S(k)S(h), anti-comultiplicativity Δ(S(h)) = S(h₂)⊗S(h₁)
    rep.add(compare_maps("S-antimult", (_combine(Sc, col.items(), p) for col in m), (
        _combine(m, _kron(Sc[x % n], Sc[x // n], n, p).items(), p) for x in range(n * n)),
        _where(space, 2, 1)))

    def flip_s(t) -> dict:   # flip∘(S⊗S) on Sweedler terms: Σ c·S(e_b)⊗S(e_a)
        return _accumulate(((_kron(Sc[b], Sc[a], n, p), c) for a, b, c in t), p)

    rep.add(compare_maps("S-anticomult", (_combine(comul, col.items(), p) for col in Sc),
                         map(flip_s, terms), _where(space, 1, 2)))
    # S exchanges the target and source subalgebras
    for label, sub, image in (("S(Ht)=Hs", H.Ht, H.Hs), ("S(Hs)=Ht", H.Hs, H.Ht)):
        same = Subspace.from_vectors(space, [H.S(v) for v in sub.basis_vectors]) == image
        rep.add(CheckResult(label, same, None if same else "images differ"))
    # 1₁⊗1₂ = S(1₂)⊗S(1₁)
    flipped = Vector(H.wb.delta_one.space, flip_s(H.wb.delta_one_pairs))
    rep.add(compare_vectors("Δ(1)=(S⊗S)flip(Δ(1))", H.wb.delta_one, flipped))
    return rep


def _mul_with(A: AlgebraData, f_cols, side: int) -> list[dict]:
    """The columns e_h·f(e_k) of m∘(id⊗f) (``side`` 1) or f(e_h)·e_k of
    m∘(f⊗id) (``side`` 0), f an endomorphism with columns ``f_cols``."""
    n, m, p = A.space.dim, A.mul.cols, A.field.characteristic
    return [_combine(m, [((h * n + t) if side else (t * n + k), c)
                         for t, c in f_cols[k if side else h].items()], p)
            for h in range(n) for k in range(n)]


def _map_h_to_d1_sandwich(H: WeakHopfData, leg: int, moved, fixed) -> LinMap:
    """h_j ↦ Σ x⊗y over Δ(1) = Σ 1₁⊗1₂, x = moved(1₁, j) and y = fixed[1₂] for ``leg`` 0
    (mirrored for 1); Δ(1) is grouped by that leg, so only nonzero moved(t, j) are paired."""
    n, p, rest = H.space.dim, H.field.characteristic, {}
    for pair in H.wb.delta_one_pairs:
        rest.setdefault(pair[leg], []).append((pair[1 - leg], pair[2]))
    rest = [(t, w) for t, terms in rest.items() if (w := _combine(fixed, terms, p))]
    return LinMap(H.space, tensor_product(H.space, H.space), [_accumulate((
        (_kron(x, w, n, p) if leg == 0 else _kron(w, x, n, p), 1)
        for t, w in rest if (x := moved(t, j))), p) for j in range(n)])


def check_identities(H: WeakHopfData) -> Report:
    """The numbered identity catalog for target/source maps and the antipode.

    Identities restricted to the target (source) subalgebra are evaluated on
    the cached canonical basis of that subalgebra.  The three identities that
    involve the inverse antipode are skipped, not failed, when S is singular.
    """
    rep = Report("identity catalog")
    space, n, A, C = H.space, H.space.dim, H.alg, H.coalg
    p = H.field.characteristic
    S, Sinv, et, es = H.antipode, H.antipode_inverse, H.eps_t, H.eps_s
    comul, counit, HH = C.comul, C.counit, tensor_product(space, space)

    # 4.2  h₁⊗h₂ = h₁1₁⊗h₂1₂ = 1₁h₁⊗1₂h₂
    d1, d1p = H.wb.delta_one, H.wb.delta_one_pairs
    one_two = _where(space, 1, 2)
    rep.add(compare_maps("Eq 4.2a", comul.cols, (pointwise_product(A, 2, h, d1).terms
                                                  for h in comul.columns()), one_two))
    rep.add(compare_maps("Eq 4.2b", comul.cols, (pointwise_product(A, 2, d1, h).terms
                                                  for h in comul.columns()), one_two))

    rep.add(compare_maps("Eq 4.3", et @ et, et))
    rep.add(compare_maps("Eq 4.4", es @ es, es))
    # 4.5  ε(hε_t(k)) = ε(hk), 4.6  ε(ε_s(h)k) = ε(hk): one block per h, keyed k
    form, etc, esc, m = H.wb.eps_form, et.cols, es.cols, A.mul.cols
    pair, ground_label = _where(space, 2)[1], counit.codomain.labels[0]
    by_h = (H.field, lambda h, k: (pair(h * n + k), ground_label))
    et_rows = et.transposed_rows()
    rep.add(compare_maps("Eq 4.5", (_combine(et_rows, row.items(), p) for row in form), form, by_h))
    rep.add(compare_maps("Eq 4.6", (_combine(form, col.items(), p) for col in esc), form, by_h))

    # 4.7  Δ(1) ∈ Hs⊗Ht
    hs_ht = Subspace.from_vectors(HH, [s.tensor(t) for s in H.Hs.basis_vectors
                                       for t in H.Ht.basis_vectors])
    inside = hs_ht.contains(d1)
    rep.add(CheckResult("Eq 4.7", inside, None if inside else "Δ(1) ∉ Hs⊗Ht"))

    # products with ε_t or ε_s on one side: h·ε_t(k), ε_t(h)·k, ε_s(h)·k, h·ε_s(k)
    h_et, et_h = _mul_with(A, etc, 1), _mul_with(A, etc, 0)
    es_h, h_es = _mul_with(A, esc, 0), _mul_with(A, esc, 1)
    hk, by_hk = range(n * n), _where(space, 2, 1)
    rep.add(compare_maps("Eq 4.8", (_combine(etc, col.items(), p) for col in h_et),
                         (_combine(etc, col.items(), p) for col in m), by_hk))
    rep.add(compare_maps("Eq 4.9", (_combine(esc, col.items(), p) for col in es_h),
                         (_combine(esc, col.items(), p) for col in m), by_hk))

    # builders shared by 4.10-4.13, 4.36-4.43: sparse dicts of e_i, e_i·e_j, S(e_i)
    e, Sc = LinMap.identity(space).cols, S.cols
    map_1h_1 = _map_h_to_d1_sandwich(H, 0, lambda a, j: m[a * n + j], e)
    map_1_h1 = _map_h_to_d1_sandwich(H, 1, lambda b, j: m[j * n + b], e)

    def restricted(lhs: LinMap, rhs: LinMap, sub: Subspace):
        return ((v, compare_vectors("", lhs.apply(v), rhs.apply(v))) for v in sub.basis_vectors)

    def at_h(v: Vector) -> str:
        return f"h={v.describe()}: "

    rep.add(first_failure("Eq 4.10", restricted(comul, map_1h_1, H.Ht), at_h))
    rep.add(first_failure("Eq 4.11", restricted(comul, map_1_h1, H.Hs), at_h))
    rep.add(compare_maps("Eq 4.12", (
        _accumulate((({a * n + t: v for t, v in etc[b].items()}, c) for a, b, c in terms), p)
        for terms in C._delta_terms), map_1h_1.cols, one_two))
    rep.add(compare_maps("Eq 4.13", (
        _accumulate((({t * n + b: v for t, v in esc[a].items()}, c) for a, b, c in terms), p)
        for terms in C._delta_terms), map_1_h1.cols, one_two))

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

    # 4.17 / 4.18: identities of Δ²(1) in H⊗H⊗H,
    # 1₁⊗ε_t(1₂)⊗1₃ = 1₁1′₁⊗1₂⊗1′₂ and 1₁⊗ε_s(1₂)⊗1₃ = 1₁⊗1′₁⊗1₂1′₂
    delta2_one = _combine(C.delta2, H.unit.terms.items(), p)
    triple = _where(space, 3)
    rep.add(compare_vectors("Eq 4.17", _apply_on_middle_leg(n, etc, delta2_one, p), _sum3(
        ((xy, e[b], e[b2], c) for a, b, a2, b2, c, xy in _joined(A, d1p, 0, d1p, 0, True)),
        n, p), triple))
    rep.add(compare_vectors("Eq 4.18", _apply_on_middle_leg(n, esc, delta2_one, p), _sum3(
        ((e[a], e[a2], xy, c) for a, b, a2, b2, c, xy
         in _joined(A, d1p, 1, d1p, 1, True)), n, p), triple))

    rep.add(compare_maps("Eq 4.19", (_combine(etc, col.items(), p) for col in et_h), (
        _combine(m, _kron(etc[x // n], etc[x % n], n, p).items(), p) for x in hk), by_hk))
    rep.add(compare_maps("Eq 4.20", (_combine(esc, col.items(), p) for col in h_es), (
        _combine(m, _kron(esc[x // n], esc[x % n], n, p).items(), p) for x in hk), by_hk))

    # antipode identities 4.30-4.43
    def d1_functional(term) -> LinMap:
        """h_j ↦ Σ c·s·v over Δ(1) = Σ c·e_a⊗e_b, where (v, s) = term(a, b, j)."""
        return LinMap(space, space, [
            _accumulate(((v, c * s) for a, b, c in d1p for v, s in (term(a, b, j),) if s), p)
            for j in range(n)])

    eS = [_combine(counit.cols, col.items(), p) for col in _mul_with(A, Sc, 0)]
    Se = [_combine(counit.cols, col.items(), p) for col in _mul_with(A, Sc, 1)]
    # eS[j·n + a] = {0: ε(S(e_j)·e_a)}, Se[b·n + j] = {0: ε(e_b·S(e_j))}
    rep.add(compare_maps("Eq 4.30", et, d1_functional(
        lambda a, b, j: (e[b], eS[j * n + a].get(0)))))
    rep.add(compare_maps("Eq 4.31", es, d1_functional(
        lambda a, b, j: (e[a], Se[b * n + j].get(0)))))
    rep.add(compare_maps("Eq 4.32", et, d1_functional(
        lambda a, b, j: (Sc[a], form[b].get(j)))))
    rep.add(compare_maps("Eq 4.33", es, d1_functional(
        lambda a, b, j: (Sc[b], form[j].get(a)))))

    rep.add(compare_maps("Eq 4.34a", et @ S, et @ es))
    rep.add(compare_maps("Eq 4.34b", et @ es, S @ es))
    rep.add(compare_maps("Eq 4.35a", es @ S, es @ et))
    rep.add(compare_maps("Eq 4.35b", es @ et, S @ et))

    # Sweedler-triple identities 4.36-4.39
    def sweedler3(build) -> LinMap:
        """h ↦ Σ x⊗y over Δ²(h) = Σ e_p⊗e_q⊗e_r, with (x, y) = build(p, q, r)."""
        return LinMap(space, HH, [
            _accumulate(((_kron(*build(idx // (n * n), idx // n % n, idx % n), n, p), c)
                         for idx, c in col.items()), p)
            for col in C.delta2])

    times = A.times
    rep.add(compare_maps("Eq 4.36", sweedler3(
        lambda p, q, r: (e[p], times(e[q], Sc[r]))), map_1h_1))
    rep.add(compare_maps("Eq 4.37", sweedler3(
        lambda p, q, r: (times(Sc[p], e[q]), e[r])), map_1_h1))
    rep.add(compare_maps("Eq 4.38", sweedler3(
        lambda p, q, r: (e[p], times(Sc[q], e[r]))),
        _map_h_to_d1_sandwich(H, 0, lambda a, j: m[j * n + a], Sc)))
    rep.add(compare_maps("Eq 4.39", sweedler3(
        lambda p, q, r: (times(e[p], Sc[q]), e[r])),
        _map_h_to_d1_sandwich(H, 1, lambda b, j: m[b * n + j], Sc)))

    # 4.41  h₂S⁻¹(h₁)⊗h₃ = S(ε_t(h₁))⊗h₂ = 1₁⊗1₂h
    rhs_441 = _map_h_to_d1_sandwich(H, 1, lambda b, j: m[b * n + j], e)
    s_et = (S @ et).cols
    rep.add(compare_maps("Eq 4.41b", LinMap(space, HH, [_accumulate((
        (_kron(s_et[a], e[b], n, p), c) for a, b, c in t), p) for t in C._delta_terms]), rhs_441))
    if Sinv is None:
        for label in ("Eq 4.41a", "Eq 4.42", "Eq 4.43"):
            rep.add(CheckResult(label, False, "antipode not invertible", skipped=True))
    else:
        Si = Sinv.cols
        rep.add(compare_maps("Eq 4.41a", sweedler3(
            lambda p, q, r: (times(e[q], Si[p]), e[r])), rhs_441))
        lhs_442 = _map_h_to_d1_sandwich(H, 0, lambda a, j: times(e[a], Si[j]), e)
        rep.add(first_failure("Eq 4.42", restricted(lhs_442, rhs_441, H.Ht), at_h))
        lhs_443 = _map_h_to_d1_sandwich(H, 1, lambda b, j: times(Si[j], e[b]), e)
        rhs_443 = _map_h_to_d1_sandwich(H, 0, lambda a, j: m[j * n + a], e)
        rep.add(first_failure("Eq 4.43", restricted(lhs_443, rhs_443, H.Hs), at_h))
    return rep


def _apply_on_middle_leg(n: int, f_cols, elem: dict, p: int) -> dict:
    """Apply the endomorphism with columns ``f_cols`` to the middle tensor
    factor of an element of H⊗H⊗H, given as a sparse dict."""
    return _accumulate((({(idx // (n * n) * n + i) * n + idx % n: v
                          for i, v in f_cols[idx // n % n].items()}, c)
                        for idx, c in elem.items()), p)


# ---------------------------------------------------------------------------
# Hopf detection
# ---------------------------------------------------------------------------

class HopfVerdict(Frozen):
    """The five equivalent Hopf-ness conditions (i)-(v), evaluated independently."""

    def __init__(self, delta_one_is_one_tensor_one: bool, counit_multiplicative: bool,
                 left_antipode_classical: bool, right_antipode_classical: bool,
                 target_source_trivial: bool):
        self.__dict__.update(delta_one_is_one_tensor_one=delta_one_is_one_tensor_one,
                             counit_multiplicative=counit_multiplicative,
                             left_antipode_classical=left_antipode_classical,
                             right_antipode_classical=right_antipode_classical,
                             target_source_trivial=target_source_trivial)

    @property
    def conditions(self) -> tuple[bool, bool, bool, bool, bool]:
        return (self.delta_one_is_one_tensor_one, self.counit_multiplicative,
                self.left_antipode_classical, self.right_antipode_classical,
                self.target_source_trivial)

    @property
    def consistent(self) -> bool:
        return len(set(self.conditions)) == 1

    @property
    def is_hopf(self) -> bool:
        return all(self.conditions)

    def report(self) -> Report:
        rep = Report("Hopf detection")
        labels = ["(i) Δ(1)=1⊗1", "(ii) ε multiplicative", "(iii) h₁S(h₂)=ε(h)1",
                  "(iv) S(h₁)h₂=ε(h)1", "(v) Ht=Hs=k·1"]
        for lbl, val in zip(labels, self.conditions):
            rep.add(CheckResult(lbl, val))
        rep.add(CheckResult("conditions agree", self.consistent,
                            None if self.consistent else "the five conditions disagree"))
        return rep


def is_hopf(H: WeakHopfData) -> HopfVerdict:
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

    return HopfVerdict(cond1, cond2, cond3, cond4, cond5)


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------

def dualize(H: WeakHopfData) -> WeakHopfData:
    """The dual weak Hopf algebra on the coordinate dual basis.

    Product is convolution (the transpose of Δ), coproduct is the transpose
    of the multiplication, unit is ε, counit is evaluation at 1, and the
    antipode is precomposition with S (the transpose of S's matrix).
    """
    dual_alg = dual_convolution_algebra(H.coalg)
    return _assemble(dual_alg.space, dual_alg.mul.cols, dual_alg.unit.terms,
                     H.alg.mul.transposed_rows(), H.unit.coords, H.antipode.transposed_rows())


def same_structure_constants(a: WeakHopfData, b: WeakHopfData) -> bool:
    """Entrywise equality of all five structure tensors (labels ignored)."""
    if a.space.dim != b.space.dim or a.field != b.field:
        return False
    return (a.alg.mul.cols == b.alg.mul.cols and a.unit.terms == b.unit.terms
            and a.coalg.comul.cols == b.coalg.comul.cols
            and a.coalg.counit.cols == b.coalg.counit.cols and a.antipode.cols == b.antipode.cols)
