"""Exact elimination over sparse rows, and the dense-list adapters: one
kernel, ``_echelon``, gives the canonical reduced echelon basis ``{pivot:
row}``; a ``Subspace`` hands out the inclusion ι of that basis and the left
inverse of ι.  The adapters read and write dense lists of lists.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import NotInjective, ShapeMismatch
from .scalars import Field
from .tensor_space import FinVec, LinMap, Vector, _accumulate, _combine, _reduced, _scale, _sparse


def _echelon(rows: Iterable[dict], field: Field) -> dict:
    """The canonical reduced echelon basis ``{pivot: row}`` of the span of
    ``rows`` (read as ``Subspace.contains`` reads a vector: zeros dropped,
    GF(p) entries reduced), in ascending pivot order, a row being 1 at its
    pivot, 0 at the others and before its own.  As basis rows vanish at each
    other's pivots, one ``_accumulate`` reduces a new row against all of them;
    its pivot is then normalised and eliminated from the earlier rows."""
    p, basis = field.characteristic, {}
    for row in rows:
        row = _reduced(row, p) if p else {i: c for i, c in row.items() if c}
        row = _accumulate([(row, 1), *((basis[k], -c) for k, c in row.items() if k in basis)], p)
        if not row:
            continue
        lead = min(row)
        row = _scale(row, field.inv(row[lead]), p)
        for k, b in basis.items():
            if c := b.get(lead):
                basis[k] = _accumulate(((b, 1), (row, -c)), p)
        basis[lead] = row
    return {k: basis[k] for k in sorted(basis)}


def rref(rows: Sequence[Sequence], field: Field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of a dense matrix over an exact field, which is
    canonical for the row space.  Returns ``(matrix, pivot_columns)``: the
    ``_echelon`` basis as dense rows, then zero rows, as many as the input has.
    """
    ncols, z = len(rows[0]) if rows else 0, field.zero()
    basis = _echelon([_sparse(r) for r in rows], field)
    out = [[z] * ncols for _ in rows]
    for dense, row in zip(out, basis.values()):
        for j, c in row.items():
            dense[j] = c
    return out, list(basis)


def rref_with_transform(rows: Sequence[Sequence], field: Field):
    """RREF of A together with the row-operation matrix E, so that E·A = R."""
    n, ncols = len(rows), len(rows[0]) if rows else 0
    red, pivots = rref([list(r) + [int(i == k) for k in range(n)] for i, r in enumerate(rows)],
                       field)
    # the identity block takes no pivot before the rank of A is exhausted
    return [r[:ncols] for r in red], [r[ncols:] for r in red], [q for q in pivots if q < ncols]


def solve(a_rows: Sequence[Sequence], b: Sequence, field: Field):
    """One exact solution x of A·x = b, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red, pivots = rref(aug, field)
    if ncols in pivots:     # a row 0 = 1: b is not in the column space
        return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def from_rows(domain: FinVec, codomain: FinVec, rows) -> LinMap:
    """Build a map from its dense ``rows[codomain][domain]`` matrix."""
    f = domain.field
    rows = [[f.coerce(x) for x in r] for r in rows]
    if len(rows) != codomain.dim or any(len(r) != domain.dim for r in rows):
        raise ShapeMismatch(
            f"matrix shape {len(rows)}×{len(rows[0]) if rows else 0} "
            f"does not match {codomain.dim}×{domain.dim}"
        )
    cols = [{} for _ in range(domain.dim)]
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            if x:
                cols[j][i] = x
    return LinMap(domain, codomain, cols)


def _dense_cols(space: FinVec, entries, pair: bool) -> list[dict]:
    """The sparse columns of dense structure constants ``entries[i][j][k]`` on
    ``space``: the coefficient of e_k in e_i·e_j, column i·n + j of H⊗H → H
    (``pair``), or of e_j⊗e_k in Δ(e_i), column i of H → H⊗H."""
    f, n = space.field, space.dim
    planes = [[[f.coerce(x) for x in row] for row in plane] for plane in entries]
    if len(planes) != n or any(len(plane) != n or any(len(row) != n for row in plane)
                               for plane in planes):
        raise ShapeMismatch("tensor entry shape does not match the spaces")
    if pair:
        return [_sparse(row) for plane in planes for row in plane]
    return [_sparse(x for row in plane for x in row) for plane in planes]


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


def image_basis(f: LinMap) -> list[Vector]:
    """Canonical (echelonised) basis of the image of f."""
    return Subspace.from_vectors(f.codomain, f.columns()).basis_vectors


def solve_coordinates(basis: Sequence[Vector], target: Vector):
    """Coordinates of ``target`` in the span of ``basis`` (or None).

    The basis vectors need not be independent; free coefficients are zero.
    """
    if not basis:
        return None if not target.is_zero else []
    space = target.space
    a_rows = [[v.coords[i] for v in basis] for i in range(space.dim)]
    return solve(a_rows, list(target.coords), space.field)


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
        return _combine(rows, [(i, c) for i, c in terms.items() if i in rows], p) == terms

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.space == other.space
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.space.dim})"
