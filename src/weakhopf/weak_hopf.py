"""The sparse Sweedler kernels that the weak bialgebra and weak Hopf axioms
(:mod:`weak_axioms`), the identity catalog (:mod:`identities`) and Hopf
detection (:mod:`hopf`) share, for the records of :mod:`structures`.

All checkers quantify over basis elements only; by multilinearity this is
sufficient, and it is what makes every verdict exact and reproducible.
"""

from __future__ import annotations

from .errors import ShapeMismatch, forward
from .structures import AlgebraData
from .tensor_space import Vector, _combine, _kron, _reduced

# the records, maps and checkers that this module still offers by name
__getattr__ = forward(globals(), {**dict.fromkeys(
    "CoalgebraData WeakBialgebraData WeakHopfData dual_convolution_algebra eps_s eps_t".split(),
    "structures"),
    "check_identities": "identities", "same_structure_constants": "groupoid",
    **dict.fromkeys(("check_weak_bialgebra", "check_weak_hopf"), "weak_axioms"),
    **dict.fromkeys(("is_hopf", "dualize"), "hopf")})


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


def _mul_with(A: AlgebraData, f_cols, side: int) -> list[dict]:
    """The columns e_h·f(e_k) of m∘(id⊗f) (``side`` 1) or f(e_h)·e_k of
    m∘(f⊗id) (``side`` 0), f an endomorphism with columns ``f_cols``."""
    n, m, p = A.space.dim, A.mul.cols, A.field.characteristic
    return [_combine(m, [((h * n + t) if side else (t * n + k), c) for t, c in f.items()], p)
            if (f := f_cols[k if side else h]) else {} for h in range(n) for k in range(n)]
