"""Algebras, coalgebras, weak bialgebras and weak Hopf algebras as exact
structure-constant data, with the target/source maps ε_t and ε_s and the
convolution dual of a coalgebra.

These are the records every command builds; the axioms that only some
commands check are in :mod:`axioms` and :mod:`weak_axioms`.
"""

from __future__ import annotations

from functools import cached_property

from .errors import Frozen, ShapeMismatch
from .scalars import Field
from .tensor_space import (FinVec, LinMap, Vector, _accumulate, _combine, _kron, ground,
                           tensor_product)


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
        from .dense import _dense_cols
        mul = LinMap(tensor_product(space, space), space, _dense_cols(space, entries, True))
        return cls(space, mul, Vector.from_coords(space, unit_coords))

    @property
    def field(self) -> Field:
        return self.space.field

    def product(self, x: Vector, y: Vector) -> Vector:
        return self.mul.apply(x.tensor(y))

    def times(self, x: dict, y: dict) -> dict:
        """x·y for sparse coordinate dicts, read off the multiplication columns."""
        space = self.space
        p = space.field.characteristic
        return _combine(self.mul.cols, _kron(x, y, space.dim, p).items(), p) if x and y else {}

    def lmul(self, x: Vector) -> LinMap:
        """Left multiplication operator y ↦ xy."""
        return LinMap(self.space, self.space, [self.times(x.terms, {j: self.field.one()})
                                               for j in range(self.space.dim)])

    def rmul(self, x: Vector) -> LinMap:
        """Right multiplication operator y ↦ yx."""
        return LinMap(self.space, self.space, [self.times({j: self.field.one()}, x.terms)
                                               for j in range(self.space.dim)])

    @cached_property
    def nonzero_products(self) -> tuple[list, ...]:
        """``nonzero_products[a]`` lists the b with e_a·e_b ≠ 0, so that sums
        over products skip the zero ones."""
        n, m = self.space.dim, self.mul.cols
        return tuple([b for b in range(n) if m[a * n + b]] for a in range(n))

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
        from .dense import _dense_cols
        comul = LinMap(space, tensor_product(space, space), _dense_cols(space, entries, False))
        counit = LinMap.from_rows(space, ground(space.field), [list(counit_coords)])
        return cls(space, comul, counit)

    @property
    def field(self) -> Field:
        return self.space.field

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

    def eps_coeff(self, i: int):
        return self.counit.cols[i].get(0, 0)

    @cached_property
    def delta2(self) -> tuple[dict, ...]:
        """(Δ⊗id)∘Δ : C → C⊗C⊗C (the canonical bracketing) as sparse columns
        keyed (p·n + q)·n + r, built once."""
        n, cols, p = self.space.dim, self.comul.cols, self.field.characteristic
        return tuple(_accumulate((({x * n + b: v for x, v in cols[a].items()}, c)
                                  for a, b, c in terms), p) for terms in self._delta_terms)


# the sides of an action, and the label of a pair of basis vectors of H
LEFT = "left"
RIGHT = "right"


def _pair_label(H: FinVec, i: int, j: int) -> str:
    return f"h={H.labels[i]}, k={H.labels[j]}"


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
    terms = [({t[1 - leg]: t[2]}, s) for t in pairs
             if (s := form[t[0]].get(k) if leg == 0 else form[k].get(t[1]))]
    return _accumulate(terms, wb.field.characteristic) if terms else {}


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
        from .elimination import Subspace
        return Subspace.from_vectors(self.space, self.eps_t.columns())

    @cached_property
    def Hs(self) -> Subspace:
        from .elimination import Subspace
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
