"""Exact elimination over sparse rows: one kernel, ``_echelon``, gives the
canonical reduced echelon basis ``{pivot: row}``; a ``Subspace`` hands out
the inclusion ι of that basis and the left inverse of ι.  The dense-list
adapters (``rref``, ``solve``, …) are in :mod:`dense`.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import NotInjective, ShapeMismatch
from .scalars import Field
from .tensor_space import FinVec, LinMap, Vector, _accumulate, _combine, _reduced


def _echelon(rows: Iterable[dict], field: Field) -> dict:
    """The canonical reduced echelon basis ``{pivot: row}`` of the span of
    ``rows`` (read as ``Subspace.contains`` reads a vector: zeros dropped,
    GF(p) entries reduced), in ascending pivot order, a row being 1 at its
    pivot, 0 at the others and before its own."""
    basis = {}
    for row in rows:
        _echelon_step(basis, row, field)
    return {k: basis[k] for k in sorted(basis)}


def _echelon_step(basis: dict, row: dict, field: Field) -> dict:
    """Adds ``row`` to the echelon basis ``basis``, returning what is left of it ({}
    if it lay in the span).  As basis rows vanish at each other's pivots, one
    ``_accumulate`` reduces it against all of them; further ones normalise its
    pivot and eliminate it from the earlier rows."""
    p = field.characteristic
    row = _reduced(row, p) if p else {i: c for i, c in row.items() if c}
    row = _accumulate([(row, 1), *((basis[k], -c) for k, c in row.items() if k in basis)], p)
    if row:
        lead = min(row)
        row = _accumulate([(row, field.inv(row[lead]))], p)
        for k, b in basis.items():
            if c := b.get(lead):
                basis[k] = _accumulate(((b, 1), (row, -c)), p)
        basis[lead] = row
    return row


def left_inverse_on_image(f: LinMap) -> LinMap:
    """A map g with g∘f = id on f's domain: the rows of E in the reduced
    echelon form [R | E] of [A | I] whose pivots lie in A.

    Requires f injective (full column rank, decided by exact elimination).
    Off the image g is what that canonical form gives, which is deterministic.
    """
    n, one = f.domain.dim, f.field.one()
    basis = _echelon([{**row, n + i: one} for i, row in enumerate(f.transposed_rows())], f.field)
    rank = sum(lead < n for lead in basis)
    if rank != n:
        raise NotInjective(f"rank {rank} < domain dimension {n}")
    e_rows = [{j - n: c for j, c in row.items() if j >= n} for row in list(basis.values())[:n]]
    return LinMap(f.codomain, f.domain, LinMap(f.domain, f.codomain, e_rows).transposed_rows())


class Subspace:
    """A subspace in canonical reduced-row-echelon form, held as ``basis``:
    ``{pivot column: sparse row}``, each row 1 at its own pivot and 0 at the
    others, in ascending pivot order.

    Two subspaces are equal iff their canonical bases coincide, which makes
    span comparisons exact and deterministic.
    """

    def __init__(self, space: FinVec, basis: dict):
        self.space = space
        self.basis = basis

    @classmethod
    def from_vectors(cls, space: FinVec, vectors: Iterable[Vector]) -> "Subspace":
        return cls(space, _echelon([v.terms for v in vectors], space.field))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def basis_vectors(self) -> list[Vector]:
        return [Vector(self.space, r) for r in self.basis.values()]

    def inclusion(self, prefix: str) -> tuple[LinMap, LinMap]:
        """The inclusion ι of the canonical basis, from a space labelled
        ``<prefix>0, <prefix>1, …``, and the left inverse of ι that reads the
        pivot coordinates: v = Σ v[pivot k]·ι(e_k) for every v in the image."""
        sub = FinVec(self.space.field, tuple(f"{prefix}{k}" for k in range(self.dim)))
        back = {lead: {k: self.space.field.one()} for k, lead in enumerate(self.basis)}
        return (LinMap(sub, self.space, list(self.basis.values())),
                LinMap(self.space, sub, [back.get(i, {}) for i in range(self.space.dim)]))

    def contains(self, v: Vector) -> bool:
        """v = Σ v[lead]·row over the pivots, each row 1 at its own and 0 at the others."""
        if v.space != self.space:
            raise ShapeMismatch("vector lives in a different space")
        p, rows = self.space.field.characteristic, self.basis
        terms = _reduced(v.terms, p) if p else {i: c for i, c in v.terms.items() if c}
        hits = [(i, c) for i, c in terms.items() if i in rows]
        return (_combine(rows, hits, p) if hits else {}) == terms

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.space == other.space
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.space.dim})"
