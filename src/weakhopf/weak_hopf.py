"""The sparse Sweedler kernels that the weak bialgebra and weak Hopf axioms
(:mod:`weak_axioms`), the identity catalog (:mod:`identities`) and Hopf
detection (:mod:`hopf`) share, for the records of :mod:`structures`.

All checkers quantify over basis elements only; by multilinearity this is
sufficient, and it is what makes every verdict exact and reproducible.
"""

from __future__ import annotations

from .errors import ShapeMismatch, forward
from .structures import AlgebraData
from .tensor_space import Vector, _combine, _reduced

# the records, maps and checkers that this module still offers by name
__getattr__ = forward(globals(), {**dict.fromkeys(
    "CoalgebraData WeakBialgebraData WeakHopfData dual_convolution_algebra eps_s eps_t".split(),
    "structures"),
    "check_identities": "identities", "same_structure_constants": "groupoid",
    **dict.fromkeys(("check_weak_bialgebra", "check_weak_hopf"), "weak_axioms"),
    **dict.fromkeys(("is_hopf", "dualize"), "hopf")})


def pointwise_product(alg: AlgebraData, power: int, x: Vector, y: Vector) -> Vector:
    """Componentwise product (a1⊗a2)(b1⊗b2) = a1b1 ⊗ a2b2 in H⊗H, extended
    bilinearly into one accumulator; a pair with a1b1 = 0 is skipped, and one with
    a2b2 = 0 before a1b1 is walked.  ``power`` is the number of legs, which must be 2."""
    n, m, p = alg.space.dim, alg.mul.cols, alg.field.characteristic
    if power != 2 or x.space != y.space or x.space.dim != n * n:
        raise ShapeMismatch("operands must both live in H⊗H")
    by_first, out = {}, {}
    for j, b in y.terms.items():
        by_first.setdefault(j // n, []).append((j % n, b))
    for i, a in x.terms.items():
        f, t = divmod(i, n)
        for f2 in alg.nonzero_products[f]:
            for t2, b in by_first.get(f2, ()):
                if second := m[t * n + t2]:
                    w = a * b
                    for h, u in m[f * n + f2].items():
                        base, uw = h * n, u * w
                        for k, v in second.items():
                            out[base + k] = out.get(base + k, 0) + v * uw
    return Vector(x.space, _reduced(out, p) if p else {i: s for i, s in out.items() if s})


def _sweedler(sums, factors, n: int, p: int, fixed=None) -> list[dict]:
    """One sparse column per Sweedler sum of ``sums``, each a list of (leg…, c)
    terms: Σ c·c′·T₁[x₁]⊗…⊗T_r[x_r] over its terms and the (leg…, c′) terms
    of ``fixed`` (one term 1, with no legs, when None), the legs of a sum term
    numbered before those of a ``fixed`` term.  A factor (legs, T, dim) reads
    the column T[x] at one leg x or T[x·n + y] at two, e_x when T is None, as
    an output leg of dimension dim: n, 1 for a functional, or n² for a column
    in H⊗H.  The first factor on legs of both sides is the join: ``fixed`` is
    grouped by its leg once, and a sum term meets only the groups whose column
    there is nonzero.  Every other factor reads the legs of one side."""
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
            col = {x: [(o * s, v) for o, v in table[x].items()]
                   for x in {t[i] if one_leg else t[i] * n + t[j] for t, _, _ in state}}
            state = [(t, b + o, c * v) for t, b, c in state
                     for o, v in col[t[i] if one_leg else t[i] * n + t[j]]]
        return state

    # the sums run as one state, each offset led by the index of its sum
    state = apply(own, [(t, s * stride, t[-1]) for s, terms in enumerate(sums) for t in terms], 0)
    fixed = apply(rest, [(t, 0, t[-1]) for t in ([(1,)] if fixed is None else fixed)], k)
    if not mixed:   # each term meets every term of ``fixed``
        fixed = [(b, c) for _, b, c in fixed]
    else:
        legs, table, s = mixed[0]
        (x_leg, y_leg), x_first = sorted(legs), legs[0] < k
        groups = {}
        for t, b, c in fixed:
            groups.setdefault(t[y_leg - k], []).append((b, c))
        partners = {x: [(o * s + b, v * c) for y, group in groups.items()
                        for o, v in table[x * n + y if x_first else y * n + x].items()
                        for b, c in group] for x in {t[x_leg] for t, _, _ in state}}
    out = {}
    for t, b, c in state:
        for o, v in partners[t[x_leg]] if mixed else fixed:
            prev, w = out.get(b + o), c * v
            out[b + o] = w if prev is None else prev + w
    cols = [{} for _ in sums]
    for i, v in (_reduced(out, p) if p else out).items():
        if v:
            cols[i // stride][i % stride] = v
    return cols


class Table(dict):
    """The columns ``column(x)`` for x < size, each built on its first read:
    indexing builds one column, iterating builds them all in order."""

    def __init__(self, size: int, column):
        self.size, self.column = size, column

    def __missing__(self, x):
        col = self[x] = self.column(x)
        return col

    def __iter__(self):
        return map(self.__getitem__, range(self.size))

    def __len__(self):
        return self.size


def _mul_with(A: AlgebraData, f_cols, side: int) -> Table:
    """The columns e_h·f(e_k) of m∘(id⊗f) (``side`` 1) or f(e_h)·e_k of
    m∘(f⊗id) (``side`` 0) at h·n + k, f an endomorphism with columns ``f_cols``."""
    n, m, p = A.space.dim, A.mul.cols, A.field.characteristic

    def column(x):
        h, k = divmod(x, n)
        f = f_cols[k if side else h]
        return _combine(m, [((h * n + t) if side else (t * n + k), c) for t, c in f.items()],
                        p) if f else {}
    return Table(n * n, column)


def _on_image(H, family: str):
    """H, or for a ℚ structure with a non-integral entry in a table that
    ``family`` reads (:mod:`modular`) its image in ℤ/M, on which the family's
    sums of products are decided exactly."""
    if H.field.characteristic:
        return H
    wb = H if family == "wb" else H.wb
    tables = {"m": wb.alg.mul.cols, "u": [wb.alg.unit.terms], "Δ": wb.coalg.comul.cols,
              "ε": wb.coalg.counit.cols, "Δ1": [wb.delta_one.terms], "εm": wb.eps_form}
    if family != "wb":
        tables.update({"S": H.antipode.cols, "εt": H.eps_t.cols, "εs": H.eps_s.cols})
    if family == "identities":
        tables.update({"S⁻¹": H.antipode_inverse.cols if H.antipode_inverse else (),
                       "Ht": H.Ht.basis.values(), "Hs": H.Hs.basis.values()})
    if all(c.denominator == 1 for cols in tables.values() for col in cols for c in col.values()):
        return H
    from .modular import image
    return image(H, family, tables)
