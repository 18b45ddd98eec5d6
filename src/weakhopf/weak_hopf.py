"""The weak bialgebra and weak Hopf axioms, the Hopf-detection test and
dualization, for the structure records of :mod:`structures`, with the sparse
kernels that they share with the identity catalog of :mod:`identities`.

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
    dual_convolution_algebra,
)
from .tensor_space import LinMap, Vector, _combine, _kron, _reduced

# the records, maps and checker that this module still offers by name
__getattr__ = forward(globals(), {**dict.fromkeys(
    "CoalgebraData eps_s eps_t same_structure_constants".split(), "structures"),
    "check_identities": "identities"})


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
