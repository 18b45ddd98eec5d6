"""The algebra, weak bialgebra and weak Hopf axioms, the numbered identity catalog,
the Hopf-detection test and dualization, for the structure records of
:mod:`structures`.

All checkers quantify over basis elements only; by multilinearity this is
sufficient, and it is what makes every verdict exact and reproducible.
"""

from __future__ import annotations

from .axioms import _where, check_algebra, check_coalgebra
from .elimination import Subspace
from .errors import ShapeMismatch, forward
from .report import (
    CheckResult,
    Report,
    _first_difference,
    compare_maps,
    compare_scalars,
    compare_vectors,
    first_failure,
)
from .structures import (
    AlgebraData,
    WeakBialgebraData,
    WeakHopfData,
    _assemble,
    _eps_contraction,
    dual_convolution_algebra,
)
from .tensor_space import LinMap, Vector, _combine, _kron, _reduced, tensor_product

# the records and maps that this module still offers by name
__getattr__ = forward(globals(), dict.fromkeys(
    "CoalgebraData eps_s eps_t same_structure_constants".split(), "structures"))


def _classes(v: Vector, top: int) -> tuple:
    """The coefficient values [c₀, c₁, …] and the terms of ``v`` as {i // top:
    [(k, [i % top, …]), …]}, grouped by first leg and then by the class k of
    equal coefficients c_k, built once per ``top`` and kept on ``v``: the
    operand form of a kernel that scales each class once (`pointwise_product`)."""
    hit = (cache := v.__dict__.setdefault("_classes", {})).get(top)
    if hit is None:
        values, index, first = [], {}, {}
        for i, c in v.terms.items():
            if (k := index.get(c)) is None:
                k = index[c] = len(values)
                values.append(c)
            f, t = divmod(i, top)
            first.setdefault(f, {}).setdefault(k, []).append(t)
        hit = cache[top] = values, {f: list(g.items()) for f, g in first.items()}
    return hit


def pointwise_product(alg: AlgebraData, power: int, x: Vector, y: Vector) -> Vector:
    """Componentwise product (a1⊗...⊗ak)(b1⊗...⊗bk) = a1b1 ⊗ ... ⊗ akbk in H^⊗power,
    extended bilinearly as Σ_{c,d} c·d·Σ m(x₁,y₁)⊗...⊗m(x_k,y_k), the inner sum over
    the terms of x with coefficient c and of y with coefficient d: each pair of
    classes that meets sums its products of structure constants (ints for 0/1
    constants) and scales each entry of that sum by c·d once.  Pairs of terms
    whose first factors multiply to zero are skipped."""
    n, m, top = alg.space.dim, alg.mul.cols, alg.space.dim ** (power - 1)
    p, stride = alg.field.characteristic, top // n     # place value of leg 2 in t
    if x.space != y.space or x.space.dim != n ** power:
        raise ShapeMismatch("operands must live in the same tensor power of H")
    (xv, x_first), (yv, y_first) = _classes(x, top), _classes(y, top)
    ny, sums = len(yv), {}   # class pair kx·ny + ky → its sums of structure constants
    for f, xs in x_first.items():
        for f2 in alg.nonzero_products[f]:
            if (ys := y_first.get(f2)) is None:
                continue
            head = m[f * n + f2].items()
            for kx, ts in xs:
                for ky, t2s in ys:
                    if (acc := sums.get(kx * ny + ky)) is None:
                        acc = sums[kx * ny + ky] = {}
                    for t in ts:
                        for t2 in t2s:
                            tail = m[t // stride % n * n + t2 // stride % n]   # legs 2..power
                            for s in range(power - 3, -1, -1):
                                tail = _kron(tail, m[t // n ** s % n * n + t2 // n ** s % n], n, p)
                            for h, u in head:
                                base = h * top
                                for k, v in tail.items():
                                    prev, uv = acc.get(base + k), u * v
                                    acc[base + k] = uv if prev is None else prev + uv
    out = {}
    for key, acc in sums.items():
        if not acc:
            continue
        c, d = xv[key // ny], yv[key % ny]
        cd = d if c == 1 else c if d == 1 else c * d
        if cd == 1 and not out:   # the sums are the entries
            out = acc
            continue
        for k, a in acc.items():
            prev, w = out.get(k), cd if a == 1 else a if cd == 1 else a * cd
            out[k] = w if prev is None else prev + w
    return Vector(x.space, _reduced(out, p) if p else {i: s for i, s in out.items() if s})


def _sweedler(sums, factors, n: int, p: int, fixed=None) -> list[dict]:
    """One sparse column per Sweedler sum of ``sums``, each a list of (leg…, c)
    terms: Σ c·c′·T₁[x₁]⊗…⊗T_r[x_r] over its terms and the (leg…, c′) terms
    of ``fixed`` (one term of coefficient 1 when None), the legs of a sum term
    numbered before those of a ``fixed`` term.  A factor (legs, T, dim) reads
    the column T[x] at one leg x or T[x·n + y] at two, e_x when T is None, as
    an output leg of dimension dim: n, 1 for a functional, or n² for a column
    in H⊗H.  The first factor on legs of both sides is the join: ``fixed`` is
    grouped by its leg once, and a sum term meets only the groups whose column
    there is nonzero.  Every other factor reads the legs of one side.  Table
    entries and partner coefficients are None for 1, and a product whose
    other factor is 1 takes the factor as it is, so no product with 1 is
    formed."""
    k = next((len(terms[0]) - 1 for terms in sums if terms), None)
    if k is None:
        return [{} for _ in sums]
    stride, sides = 1, ([], [], [])   # the factors on legs of the sums, of both, of ``fixed``
    for legs, table, dim in reversed(factors):
        legs = (legs,) if type(legs) is int else legs
        side = sides[(min(legs) >= k) + (max(legs) >= k)]
        # tables first, so that the terms their zero columns drop are not carried further
        side.insert(len(side) if table is None else 0, (legs, table, stride))
        stride *= dim
    own, mixed, rest = sides

    def apply(facs, state, shift: int) -> list:
        """(term, offset, coefficient) for each entry of the product of the columns
        that ``facs`` read off the legs of each term, numbered from ``shift``."""
        for legs, table, s in facs:
            i, j, one_leg = legs[0] - shift, legs[-1] - shift, len(legs) == 1
            if table is None:   # e_x: the leg goes to the output index with no multiply
                state = [(t, b + t[i] * s, c) for t, b, c in state]
                continue
            # each column read once, as (offset, value) pairs
            col = {x: [(o * s, None if v == 1 else v) for o, v in table[x].items()]
                   for x in {t[i] if one_leg else t[i] * n + t[j] for t, _, _ in state}}
            state = [(t, b + o, c if v is None else v if c == 1 else c * v) for t, b, c in state
                     for o, v in col[t[i] if one_leg else t[i] * n + t[j]]]
        return state

    # the sums run as one state, each offset led by the index of its sum
    state = apply(own, [(t, s * stride, t[-1]) for s, terms in enumerate(sums) for t in terms], 0)
    if fixed is not None:
        fixed = apply(rest, [(t, 0, t[-1]) for t in fixed], k)
    if not mixed:   # each term meets every term of ``fixed``, or the one term 1
        fixed = [(0, None)] if fixed is None else [(b, None if c == 1 else c) for _, b, c in fixed]
    else:
        legs, table, s = mixed[0]
        (x_leg, y_leg), x_first = sorted(legs), legs[0] < k
        groups = {}
        for t, b, c in fixed:
            groups.setdefault(t[y_leg - k], []).append((b, c))
        partners = {x: [(o * s + b, None if (w := c if v == 1 else v if c == 1 else v * c) == 1
                         else w) for y, group in groups.items()
                        for o, v in table[x * n + y if x_first else y * n + x].items()
                        for b, c in group] for x in {t[x_leg] for t, _, _ in state}}
    out = {}
    for t, b, c in state:
        for o, v in partners[t[x_leg]] if mixed else fixed:
            prev, w = out.get(b + o), c if v is None else v if c == 1 else c * v
            out[b + o] = w if prev is None else prev + w
    cols = [{} for _ in sums]
    for i, v in (_reduced(out, p) if p else out).items():
        if v:
            cols[i // stride][i % stride] = v
    return cols


def check_weak_bialgebra(wb: WeakBialgebraData) -> Report:
    """Algebra axioms, coalgebra axioms, and the three compatibility axioms
    (multiplicativity of Δ, weak multiplicativity of ε, the Δ²(1) identity)."""
    rep = Report("weak bialgebra axioms")
    rep.extend(check_algebra(wb.alg))
    rep.extend(check_coalgebra(wb.coalg))
    H, A, C, n = wb.space, wb.alg, wb.coalg, wb.space.dim
    p = wb.field.characteristic

    # (i)  Δ(hk) = Δ(h)Δ(k), each Δ(e_b) grouped into coefficient classes once
    m, delta = A.mul.cols, C.comul.columns()
    rep.add(compare_maps("(i)", (_combine(C.comul.cols, m[x].items(), p) for x in range(n * n)), (
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
    for label, first, middle, last in (("(iii)a", ue, (2, 1), eu), ("(iii)b", eu, (1, 2), ue)):
        rep.add(compare_vectors(label, _sweedler(
            [d1], [(0, first, n), (middle, m, n), (3, last, n)], n, p, d1)[0], delta2_one, where))
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
    rep.add(compare_maps("S-antimult", (_combine(Sc, col.items(), p) for col in m), (
        _combine(m, _kron(Sc[x % n], Sc[x // n], n, p).items(), p) for x in range(n * n)),
        _where(space, 2, 1)))

    flip = [(1, Sc, n), (0, Sc, n)]   # flip∘(S⊗S): Σ c·S(e_b)⊗S(e_a)
    rep.add(compare_maps("S-anticomult", (_combine(comul, col.items(), p) for col in Sc),
                         _sweedler(terms, flip, n, p), _where(space, 1, 2)))
    # S exchanges the target and source subalgebras
    for label, sub, image in (("S(Ht)=Hs", H.Ht, H.Hs), ("S(Hs)=Ht", H.Hs, H.Ht)):
        same = Subspace.from_vectors(space, [H.S(v) for v in sub.basis_vectors]) == image
        rep.add(CheckResult(label, same, None if same else "images differ"))
    # 1₁⊗1₂ = S(1₂)⊗S(1₁)
    flipped = Vector(H.wb.delta_one.space, _sweedler([H.wb.delta_one_pairs], flip, n, p)[0])
    rep.add(compare_vectors("Δ(1)=(S⊗S)flip(Δ(1))", H.wb.delta_one, flipped))
    return rep


def _mul_with(A: AlgebraData, f_cols, side: int) -> list[dict]:
    """The columns e_h·f(e_k) of m∘(id⊗f) (``side`` 1) or f(e_h)·e_k of
    m∘(f⊗id) (``side`` 0), f an endomorphism with columns ``f_cols``."""
    n, m, p = A.space.dim, A.mul.cols, A.field.characteristic
    return [_combine(m, [((h * n + t) if side else (t * n + k), c)
                         for t, c in f_cols[k if side else h].items()], p)
            for h in range(n) for k in range(n)]


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

    # 4.2  h₁⊗h₂ = h₁1₁⊗h₂1₂ = 1₁h₁⊗1₂h₂; each Δ(h) is grouped into classes once, for both
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

    rep.add(compare_maps("Eq 4.19", (_combine(etc, col.items(), p) for col in et_h), (
        _combine(m, _kron(etc[x // n], etc[x % n], n, p).items(), p) for x in hk), by_hk))
    rep.add(compare_maps("Eq 4.20", (_combine(esc, col.items(), p) for col in h_es), (
        _combine(m, _kron(esc[x // n], esc[x % n], n, p).items(), p) for x in hk), by_hk))

    # antipode identities 4.30-4.43; eS, Se and ε∘m as functionals at h·n + k:
    # ε(S(e_h)·e_k), ε(e_h·S(e_k)) and ε(e_h·e_k)
    mul_id_s, mul_s_id = _mul_with(A, Sc, 1), _mul_with(A, Sc, 0)
    eS = [_combine(counit.cols, col.items(), p) for col in mul_s_id]
    Se = [_combine(counit.cols, col.items(), p) for col in mul_id_s]
    em = [{0: v} if (v := row.get(k)) else {} for row in form for k in range(n)]
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


# ---------------------------------------------------------------------------
# Hopf detection
# ---------------------------------------------------------------------------

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
