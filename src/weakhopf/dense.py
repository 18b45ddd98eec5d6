"""The dense-list adapters around ``elimination._echelon`` (``rref``, ``solve``,
…) and the maps and structure constants read from dense lists; no command runs them."""

from __future__ import annotations

from collections.abc import Sequence

from .elimination import Subspace, _echelon
from .errors import ShapeMismatch
from .scalars import Field
from .tensor_space import FinVec, LinMap, Vector, _sparse


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
