"""Algebras, coalgebras, weak bialgebras and weak Hopf algebras as exact
structure-constant data, with the target/source maps ε_t and ε_s and the
convolution dual of a coalgebra.

These are the records every command builds; the axiom and identity
checkers that only some commands run are in :mod:`weak_hopf`.
"""

from __future__ import annotations

from functools import cached_property

from .errors import Frozen, NotSubcoalgebra, ShapeMismatch
from .report import Report, compare_maps, compare_vectors, first_failure
from .scalars import Field
from .tensor_space import (
    ONE_TO_PAIR,
    PAIR_TO_ONE,
    FinVec,
    LinMap,
    Subspace,
    Tensor3,
    Vector,
    _accumulate,
    _combine,
    _kron,
    ground,
    tensor_product,
)


class AlgebraData(Frozen):
    """A unital associative algebra: multiplication tensor plus unit vector."""

    def __init__(self, space: FinVec, mul: LinMap, unit: Vector):
        if mul.domain != tensor_product(space, space) or mul.codomain != space:
            raise ShapeMismatch("multiplication must map H⊗H → H")
        if unit.space != space:
            raise ShapeMismatch("unit must live in the algebra")
        self.__dict__.update(space=space, mul=mul, unit=unit)

    @classmethod
    def from_tensor(cls, space: FinVec, entries, unit_coords) -> "AlgebraData":
        t = Tensor3.from_entries(PAIR_TO_ONE, (space, space, space), entries)
        return cls(space, t.to_linmap(), Vector.from_coords(space, unit_coords))

    @property
    def field(self) -> Field:
        return self.space.field

    def mul_tensor(self) -> Tensor3:
        return Tensor3.from_linmap(PAIR_TO_ONE, (self.space,) * 3, self.mul)

    def product(self, x: Vector, y: Vector) -> Vector:
        return self.mul.apply(x.tensor(y))

    def times(self, x: dict, y: dict) -> dict:
        """x·y for sparse coordinate dicts, read off the multiplication columns."""
        space = self.space
        p = space.field.characteristic
        return _combine(self.mul.cols, _kron(x, y, space.dim, p).items(), p)

    def lmul(self, x: Vector) -> LinMap:
        """Left multiplication operator y ↦ xy."""
        return LinMap(self.space, self.space, [self.times(x.terms, {j: self.field.one()})
                                               for j in range(self.space.dim)])

    def rmul(self, x: Vector) -> LinMap:
        """Right multiplication operator y ↦ yx."""
        return LinMap(self.space, self.space, [self.times({j: self.field.one()}, x.terms)
                                               for j in range(self.space.dim)])

    @cached_property
    def nonzero_products(self) -> tuple[tuple, tuple]:
        """``(right, left)``: ``right[a]`` lists the b with e_a·e_b ≠ 0 and
        ``left[b]`` the a with e_a·e_b ≠ 0, so Sweedler sums skip zero products."""
        n, m = self.space.dim, self.mul.cols
        return (tuple([b for b in range(n) if m[a * n + b]] for a in range(n)),
                tuple([a for a in range(n) if m[a * n + b]] for b in range(n)))

    def validate(self) -> Report:
        rep = Report(f"algebra axioms on {self.space.dim}-dim space")
        n, m, p = self.space.dim, self.mul.cols, self.field.characteristic
        # assoc per basis pair x = h·n + k, comparing l ↦ (hk)l with l ↦ h(kl) as dicts keyed
        # l·n + output; left_by[t] is l ↦ e_t·e_l in that form
        left_by = [{l * n + o: c for l in range(n) for o, c in m[t * n + l].items()}
                   for t in range(n)]
        field, name = _where(self.space, 3, 1)
        rep.add(compare_maps("assoc", (_combine(left_by, col.items(), p) for col in m), (
            _accumulate((({key - key % n + o: v for o, v in m[x - x % n + key % n].items()}, c)
                         for key, c in left_by[x % n].items()), p) for x in range(n * n)),
            (field, lambda x, key: name(x * n + key // n, key % n))))
        u, labels, e = self.unit.terms, self.space.labels, LinMap.identity(self.space).cols
        for label, left in (("unit-left", True), ("unit-right", False)):
            rep.add(first_failure(label, (
                (i, compare_vectors("", Vector(self.space, self.times(u, x) if left
                                               else self.times(x, u)), Vector(self.space, x)))
                for i, x in enumerate(e)), lambda i: f"{labels[i]}: "))
        return rep


class CoalgebraData(Frozen):
    """A coassociative counital coalgebra: comultiplication tensor plus counit."""

    def __init__(self, space: FinVec, comul: LinMap, counit: LinMap):
        if comul.domain != space or comul.codomain != tensor_product(space, space):
            raise ShapeMismatch("comultiplication must map C → C⊗C")
        if counit.domain != space or counit.codomain.dim != 1:
            raise ShapeMismatch("counit must map C → k")
        self.__dict__.update(space=space, comul=comul, counit=counit)

    @classmethod
    def from_tensor(cls, space: FinVec, entries, counit_coords) -> "CoalgebraData":
        t = Tensor3.from_entries(ONE_TO_PAIR, (space, space, space), entries)
        counit = LinMap.from_rows(space, ground(space.field), [list(counit_coords)])
        return cls(space, t.to_linmap(), counit)

    @property
    def field(self) -> Field:
        return self.space.field

    def comul_tensor(self) -> Tensor3:
        return Tensor3.from_linmap(ONE_TO_PAIR, (self.space,) * 3, self.comul)

    def delta(self, x: Vector) -> Vector:
        return self.comul.apply(x)

    def delta_pairs(self, i: int) -> tuple:
        """Sweedler terms of Δ(e_i) as sparse (a, b, coeff) triples."""
        return self._delta_terms[i]

    @cached_property
    def _delta_terms(self) -> tuple[tuple, ...]:
        """The ``delta_pairs`` of every basis vector, built once."""
        n = self.space.dim
        return tuple(tuple((idx // n, idx % n, c) for idx, c in sorted(col.items()))
                     for col in self.comul.cols)

    def eps(self, x: Vector):
        return self.counit.apply(x).terms.get(0, 0)

    def eps_coeff(self, i: int):
        return self.counit.cols[i].get(0, 0)

    def restrict(self, incl: LinMap, back: LinMap) -> "CoalgebraData":
        """The subcoalgebra D that the injection ``incl`` ι includes, with
        Δ_D = (back⊗back)∘Δ∘ι and ε_D = ε∘ι for a left inverse ``back`` of ι.
        Raises NotSubcoalgebra at the first basis vector where
        (ι⊗ι)∘Δ_D ≠ Δ∘ι."""
        image = self.comul @ incl
        comul = back.tensor(back) @ image
        for j, col in enumerate((incl.tensor(incl) @ comul).cols):
            if col != image.cols[j]:
                raise NotSubcoalgebra(f"Δ({incl.column(j).describe()}) escapes D⊗D")
        return CoalgebraData(incl.domain, comul, self.counit @ incl)

    @cached_property
    def delta2(self) -> tuple[dict, ...]:
        """(Δ⊗id)∘Δ : C → C⊗C⊗C (the canonical bracketing) as sparse columns
        keyed (p·n + q)·n + r, built once."""
        n, cols, p = self.space.dim, self.comul.cols, self.field.characteristic
        return tuple(_accumulate((({x * n + b: v for x, v in cols[a].items()}, c)
                                  for a, b, c in terms), p) for terms in self._delta_terms)

    def validate(self) -> Report:
        rep = Report(f"coalgebra axioms on {self.space.dim}-dim space")
        ident = LinMap.identity(self.space)
        n, cols, p = self.space.dim, self.comul.cols, self.field.characteristic
        rep.add(compare_maps("coassoc", self.delta2, (
            _accumulate((({a * n * n + y: v for y, v in cols[b].items()}, c)
                         for a, b, c in terms), p)
            for terms in self._delta_terms), _where(self.space, 1, 3)))
        # counit laws, checked as maps C → C: ε on the first leg, then the second
        for leg, label in enumerate(("counit-left", "counit-right")):
            contracted = LinMap(self.space, self.space, [
                _accumulate((({t[1 - leg]: t[2]}, self.eps_coeff(t[leg]))
                             for t in self.delta_pairs(j)), p)
                for j in range(self.space.dim)])
            rep.add(compare_maps(label, contracted, ident))
        return rep


def _where(space: FinVec, p: int, q: int | None = None) -> tuple:
    """``(field, name)`` labelling, only when called and as ``tensor_product``
    prints them, input j and output i of H^⊗p → H^⊗q, or (q None) i of H^⊗p."""
    labels, n = space.labels, space.dim

    def label(idx: int, power: int) -> str:
        return "⊗".join(labels[idx // n ** s % n] for s in range(power - 1, -1, -1))

    return space.field, ((lambda i: label(i, p)) if q is None
                         else (lambda j, i: (label(j, p), label(i, q))))


class WeakBialgebraData(Frozen):
    def __init__(self, alg: AlgebraData, coalg: CoalgebraData):
        if alg.space != coalg.space:
            raise ShapeMismatch("algebra and coalgebra must share one space")
        self.__dict__.update(alg=alg, coalg=coalg)

    @property
    def space(self) -> FinVec:
        return self.alg.space

    @property
    def field(self) -> Field:
        return self.space.field

    @cached_property
    def delta_one(self) -> Vector:
        """Δ(1) as an element of H⊗H."""
        return self.coalg.delta(self.alg.unit)

    @cached_property
    def delta_one_pairs(self) -> list[tuple[int, int, object]]:
        n = self.space.dim
        return [(i // n, i % n, c) for i, c in self.delta_one.nonzeros()]

    @cached_property
    def eps_form(self) -> tuple[dict, ...]:
        """The counit form: ``eps_form[i]`` is ``{j: ε(e_i·e_j)}`` over its
        nonzero values, read off the columns of ε∘m."""
        n = self.space.dim
        cols = (self.coalg.counit @ self.alg.mul).cols
        return tuple({j: col[0] for j, col in enumerate(cols[i * n:(i + 1) * n]) if col}
                     for i in range(n))


def _eps_contraction(wb: WeakBialgebraData, pairs, leg: int, k: int) -> dict:
    """Σ c·ε(·)·(other leg) over Sweedler terms (a, b, c), such as those of
    Δ(1) or Δ(e_i), with ε(e_a·e_k) on leg 0 and ε(e_k·e_b) on leg 1."""
    form = wb.eps_form
    return _accumulate((({t[1 - leg]: t[2]}, s) for t in pairs
                        if (s := form[t[0]].get(k) if leg == 0 else form[k].get(t[1]))),
                       wb.field.characteristic)


def eps_t(wb: WeakBialgebraData) -> LinMap:
    """The target map h ↦ ε(1₁h)1₂, evaluated through the structure constants."""
    return LinMap(wb.space, wb.space, [_eps_contraction(wb, wb.delta_one_pairs, 0, j)
                                       for j in range(wb.space.dim)])


def eps_s(wb: WeakBialgebraData) -> LinMap:
    """The source map h ↦ 1₁ε(h1₂)."""
    return LinMap(wb.space, wb.space, [_eps_contraction(wb, wb.delta_one_pairs, 1, j)
                                       for j in range(wb.space.dim)])


class WeakHopfData(Frozen):
    """A weak bialgebra with an antipode, plus cached target/source data."""

    def __init__(self, wb: WeakBialgebraData, antipode: LinMap):
        if antipode.domain != wb.space or antipode.codomain != wb.space:
            raise ShapeMismatch("antipode must be an endomorphism of H")
        self.__dict__.update(wb=wb, antipode=antipode)

    # -- shortcuts ----------------------------------------------------------

    @property
    def space(self) -> FinVec:
        return self.wb.space

    @property
    def field(self) -> Field:
        return self.wb.field

    @property
    def alg(self) -> AlgebraData:
        return self.wb.alg

    @property
    def coalg(self) -> CoalgebraData:
        return self.wb.coalg

    @property
    def unit(self) -> Vector:
        return self.wb.alg.unit

    def product(self, x: Vector, y: Vector) -> Vector:
        return self.wb.alg.product(x, y)

    def delta(self, x: Vector) -> Vector:
        return self.wb.coalg.delta(x)

    def eps(self, x: Vector):
        return self.wb.coalg.eps(x)

    def S(self, x: Vector) -> Vector:
        return self.antipode.apply(x)

    # -- cached target/source machinery --------------------------------------

    @cached_property
    def eps_t(self) -> LinMap:
        return eps_t(self.wb)

    @cached_property
    def eps_s(self) -> LinMap:
        return eps_s(self.wb)

    @cached_property
    def Ht(self) -> Subspace:
        return Subspace.from_vectors(self.space, self.eps_t.columns())

    @cached_property
    def Hs(self) -> Subspace:
        return Subspace.from_vectors(self.space, self.eps_s.columns())

    @cached_property
    def antipode_inverse(self) -> LinMap | None:
        return self.antipode.inverse()


def dual_space(V: FinVec) -> FinVec:
    return FinVec(V.field, tuple(f"{l}*" for l in V.labels))


def _assemble(space: FinVec, products, unit: dict, coproducts, counit, antipode) -> WeakHopfData:
    """A weak Hopf algebra from sparse columns: ``products[i·n + j]`` is
    e_i·e_j, ``coproducts[i]`` is Δ(e_i) keyed a·n + b, ``unit`` the unit's
    terms, ``counit`` the dense counit values and ``antipode`` S's columns."""
    HH = tensor_product(space, space)
    alg = AlgebraData(space, LinMap(HH, space, products), Vector(space, unit))
    counit_map = LinMap(space, ground(space.field), [{0: c} if c else {} for c in counit])
    coalg = CoalgebraData(space, LinMap(space, HH, coproducts), counit_map)
    return WeakHopfData(WeakBialgebraData(alg, coalg), LinMap(space, space, antipode))


def dual_convolution_algebra(C: CoalgebraData) -> AlgebraData:
    """The convolution algebra on the coordinate dual basis of C:
    (αβ)(c) = α(c₁)β(c₂), with unit ε; its multiplication is Δ transposed."""
    dspace = dual_space(C.space)
    unit = Vector(dspace, {i: col[0] for i, col in enumerate(C.counit.cols) if col})
    return AlgebraData(dspace, LinMap(tensor_product(dspace, dspace), dspace,
                                      C.comul.transposed_rows()), unit)
