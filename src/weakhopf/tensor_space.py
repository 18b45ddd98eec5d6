"""Named-basis vector spaces and exact sparse linear maps.

Conventions, fixed once for the whole package:

* a ``LinMap`` stores its columns: one ``{codomain index: coeff}`` dict per
  domain basis vector; a ``Vector`` stores ``{index: coeff}``.  Neither ever
  holds an explicit zero, so equality is a comparison of the stored data and
  every operation touches the nonzero entries only;
* exact elimination runs on sparse rows: one kernel, ``_echelon``, gives the
  canonical reduced echelon basis ``{pivot: row}``, and a ``Subspace`` hands
  out the inclusion ι of that basis and the left inverse of ι;
* ``LinMap.rows`` (indexed ``rows[codomain_index][domain_index]``) and
  ``Vector.coords`` are dense read-only views, built on first use, for the
  benchmark, the tests and the dense-list adapters (``rref``, ``solve``, …);
* the tensor product ``V (x) W`` uses row-major flattening,
  ``flat(i, j) = i * dim(W) + j`` with ``i`` indexing the left factor, and
  basis labels are the strings ``"v⊗w"``.

Row-major flattening is associative, so ``(U⊗V)⊗W`` and ``U⊗(V⊗W)`` are the
same ``FinVec`` and iterated tensor products never need re-bracketing.
No operation mutates its operands or its result, which a result may alias.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import cached_property

from .errors import FieldMismatch, Frozen, NotInjective, ShapeMismatch
from .scalars import Field


class FinVec(Frozen):
    """A finite-dimensional vector space with a named, ordered basis.

    ``factors`` is (V, W) for the product V⊗W, whose labels "v⊗w" may
    repeat: the labels "a⊗b"⊗"c" and "a"⊗"b⊗c" print alike.  ``_products``
    maps id(W) to (W, self⊗W); holding W keeps its id from being reused."""

    def __init__(self, field: Field, labels: tuple[str, ...], factors: tuple = ()):
        if len(labels) == 0:
            raise ShapeMismatch("a space needs at least one basis vector")
        if not factors and len(set(labels)) != len(labels):
            raise ShapeMismatch("basis labels must be distinct")
        self.__dict__.update(field=field, labels=labels, factors=factors, _products={})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return self is other or (isinstance(other, FinVec) and self.field == other.field
                                 and self.labels == other.labels)

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"FinVec({self.field!r}, dim={self.dim})"


def ground(field: Field) -> FinVec:
    """The field itself as a 1-dimensional space (used for counits and functionals)."""
    return FinVec(field, ("k",))


def tensor_product(V: FinVec, W: FinVec) -> FinVec:
    """V⊗W, built once per pair of space objects and reused afterwards."""
    hit = V._products.get(id(W))
    if hit is not None:
        return hit[1]
    if V.field != W.field:
        raise FieldMismatch("tensor product of spaces over different fields")
    out = FinVec(V.field, tuple(f"{a}⊗{b}" for a in V.labels for b in W.labels), (V, W))
    V._products[id(W)] = (W, out)
    return out


# ---------------------------------------------------------------------------
# sparse kernels: dicts {index: coeff} without zero values
#
# ``p`` is the field's characteristic: over GF(p) every stored entry is an int
# in [1, p), and each kernel reduces the entries it accumulates once, at the
# end; over ℚ (p = 0) the kernels branch once per call and reduce nothing.
# The coefficients of ``terms`` may be unreduced.  Three rules:
# * ×1: a factor equal to 1 costs no multiply.  A coefficient that scales a
#   whole column is tested once, before its loop, so a 0/1 structure constant
#   costs one comparison per term and none per entry.
# * shared column: a result that is one stored column times 1 is that column
#   (``_combine``, ``_accumulate``, ``_scale(a, 1)``, ``_sum(a, {})``), copied
#   only if a second term arrives and never filtered, since stored columns hold
#   no zeros and are reduced.  So a result may alias a stored column.
# * coefficient classes: where all terms of two operands meet and the products
#   merge into few outputs (``weak_hopf.pointwise_product``: axiom (i), Eq
#   4.2a/b), ``Vector.classes`` groups each operand's terms by value, and each
#   sum of structure-constant products is scaled by c·d once.
# ---------------------------------------------------------------------------

def _sparse(coords: Iterable) -> dict:
    return {i: c for i, c in enumerate(coords) if c}


def _reduced(out: dict, p: int) -> dict:
    """The entries of ``out`` reduced mod p, without those that vanish.  The
    kernels call it only for p > 0, so that over ℚ no comprehension of theirs
    refers to p."""
    return {i: r for i, s in out.items() if (r := s % p)}


def _sum(a: dict, b: dict, p: int) -> dict:
    """a + b, dropping entries that cancel: ``a`` itself when b is empty."""
    if not b:
        return a
    out = dict(a)
    sums = {k: out.pop(k, 0) + v for k, v in b.items()}
    out.update(_reduced(sums, p) if p else {k: s for k, s in sums.items() if s})
    return out


def _neg(a: dict) -> dict:
    """-a, unreduced: only ``_sum`` consumes it, and reduces what it adds."""
    return {k: -v for k, v in a.items()}


def _scale(a: dict, s, p: int) -> dict:
    """s·a for a scalar s already in the field: ``a`` itself when s = 1."""
    if s == 1:
        return a
    out = {k: s * v for k, v in a.items()} if s else {}
    return _reduced(out, p) if p else out


def _accumulate(terms: Iterable, p: int) -> dict:
    """Σ c·v over the (v, c) pairs of ``terms``, each v a sparse dict: the
    column of a Sweedler sum whose terms are not columns of one map."""
    out = shared = {}
    for v, c in terms:
        if out is shared:   # the first term, or a second after a first v×1
            if c == 1 and not out:
                out = shared = v
                continue
            out = dict(out)
        if c == 1:
            for i, a in v.items():
                s = out.get(i)
                out[i] = a if s is None else s + a
        else:
            for i, a in v.items():
                s, w = out.get(i), c if a == 1 else a * c
                out[i] = w if s is None else s + w
    return out if out is shared else _reduced(out, p) if p else {i: s for i, s in out.items() if s}


def _combine(cols: Sequence[dict], terms: Iterable, p: int) -> dict:
    """Σ c·cols[k] over the (k, c) pairs of ``terms``."""
    out = shared = {}
    for k, c in terms:
        if out is shared:
            if c == 1 and not out:
                out = shared = cols[k]
                continue
            out = dict(out)
        if c == 1:
            for i, a in cols[k].items():
                s = out.get(i)
                out[i] = a if s is None else s + a
        else:
            for i, a in cols[k].items():
                s, w = out.get(i), c if a == 1 else a * c
                out[i] = w if s is None else s + w
    return out if out is shared else _reduced(out, p) if p else {i: s for i, s in out.items() if s}


def _kron(a: dict, b: dict, dim: int, p: int) -> dict:
    """a⊗b for sparse dicts, the right factor of dimension ``dim``.  Over GF(p)
    an int product costs what a test for 1 does, so only ℚ tests."""
    if p:
        return _reduced({i * dim + j: x * y for i, x in a.items() for j, y in b.items()}, p)
    out = {}
    for i, x in a.items():
        base = i * dim
        out.update({base + j: y for j, y in b.items()} if x == 1 else
                   {base + j: x if y == 1 else x * y for j, y in b.items()})
    return out


class Vector:
    """An element of a space, stored as ``{index: coeff}`` over its nonzero
    coordinates."""

    def __init__(self, space: FinVec, terms: dict):
        self.space = space
        self.terms = terms

    @classmethod
    def basis(cls, space: FinVec, i: int) -> "Vector":
        return cls(space, {i: space.field.one()})

    @classmethod
    def from_coords(cls, space: FinVec, coords: Iterable) -> "Vector":
        coords = [space.field.coerce(c) for c in coords]
        if len(coords) != space.dim:
            raise ShapeMismatch("coordinate count does not match the space dimension")
        return cls(space, _sparse(coords))

    @cached_property
    def coords(self) -> tuple:
        """Dense coordinates (a read-only view)."""
        out = [self.space.field.zero()] * self.space.dim
        for i, c in self.terms.items():
            out[i] = c
        return tuple(out)

    def classes(self, top: int) -> tuple:
        """The coefficient values [c₀, c₁, …] and the terms as {i // top: [(k,
        [i % top, …]), …]}, grouped by first leg and then by the class k of equal
        coefficients c_k, built once per ``top``: the operand form of a kernel
        that scales each class once (``weak_hopf.pointwise_product``)."""
        hit = self._classes.get(top)
        if hit is None:
            values, index, first = [], {}, {}
            for i, c in self.terms.items():
                if (k := index.get(c)) is None:
                    k = index[c] = len(values)
                    values.append(c)
                f, t = divmod(i, top)
                first.setdefault(f, {}).setdefault(k, []).append(t)
            hit = self._classes[top] = values, {f: list(g.items()) for f, g in first.items()}
        return hit

    @cached_property
    def _classes(self) -> dict:
        return {}

    def nonzeros(self) -> list:
        """The (index, coeff) pairs in ascending index order."""
        return sorted(self.terms.items())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Vector) and self.space == other.space
                and self.terms == other.terms)

    def __add__(self, other: "Vector") -> "Vector":
        if other.space != self.space:
            raise ShapeMismatch("vector addition across different spaces")
        return Vector(self.space, _sum(self.terms, other.terms, self.space.field.characteristic))

    def __sub__(self, other: "Vector") -> "Vector":
        if other.space != self.space:
            raise ShapeMismatch("vector subtraction across different spaces")
        return Vector(self.space, _sum(self.terms, _neg(other.terms),
                                       self.space.field.characteristic))

    def scale(self, s) -> "Vector":
        f = self.space.field
        return Vector(self.space, _scale(self.terms, f.coerce(s), f.characteristic))

    def tensor(self, other: "Vector") -> "Vector":
        """Kronecker product, landing in ``tensor_product(self.space, other.space)``."""
        return Vector(tensor_product(self.space, other.space),
                      _kron(self.terms, other.terms, other.space.dim,
                            self.space.field.characteristic))

    def describe(self) -> str:
        """Human-readable linear combination of basis labels."""
        fmt = self.space.field.fmt
        terms = [f"{fmt(c)}·{self.space.labels[i]}" for i, c in self.nonzeros()]
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"Vector({self.describe()})"


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

class LinMap:
    """An exact linear map, stored as sparse columns: ``cols[j]`` is the
    ``{codomain index: coeff}`` image of the j-th domain basis vector."""

    def __init__(self, domain: FinVec, codomain: FinVec, cols: Sequence[dict]):
        if domain.field != codomain.field:
            raise FieldMismatch("map between spaces over different fields")
        if len(cols) != domain.dim:
            raise ShapeMismatch(f"{len(cols)} columns for a {domain.dim}-dim domain")
        self.domain = domain
        self.codomain = codomain
        self.cols = tuple(cols)

    @property
    def field(self) -> Field:
        return self.domain.field

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, domain: FinVec, codomain: FinVec, rows) -> "LinMap":
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
        return cls(domain, codomain, cols)

    @classmethod
    def from_function(cls, domain: FinVec, codomain: FinVec,
                      fn: Callable[[int], Vector]) -> "LinMap":
        """Build a map from the Vector images ``fn(j)`` of the basis vectors."""
        images = [fn(j) for j in range(domain.dim)]
        if any(v.space.dim != codomain.dim for v in images):
            raise ShapeMismatch("image has wrong length")
        return cls(domain, codomain, [v.terms for v in images])

    @classmethod
    def identity(cls, space: FinVec) -> "LinMap":
        o = space.field.one()
        return cls(space, space, [{i: o} for i in range(space.dim)])

    @classmethod
    def zero(cls, domain: FinVec, codomain: FinVec) -> "LinMap":
        return cls(domain, codomain, [{} for _ in range(domain.dim)])

    # -- dense view -----------------------------------------------------------

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        """The dense ``rows[codomain][domain]`` matrix (a read-only view)."""
        z = self.field.zero()
        out = [[z] * self.domain.dim for _ in range(self.codomain.dim)]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                out[i][j] = c
        return tuple(tuple(r) for r in out)

    # -- algebra ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.domain == other.domain
                and self.codomain == other.codomain and self.cols == other.cols)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """Composition self ∘ other."""
        if other.codomain != self.domain:
            raise ShapeMismatch("composition shape mismatch")
        cols, p = self.cols, self.domain.field.characteristic
        return LinMap(other.domain, self.codomain,
                      [col and _combine(cols, col.items(), p) for col in other.cols])

    def __add__(self, other: "LinMap") -> "LinMap":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise ShapeMismatch("sum of maps with different shapes")
        p = self.field.characteristic
        return LinMap(self.domain, self.codomain,
                      [_sum(a, b, p) for a, b in zip(self.cols, other.cols)])

    def __sub__(self, other: "LinMap") -> "LinMap":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise ShapeMismatch("difference of maps with different shapes")
        p = self.field.characteristic
        return LinMap(self.domain, self.codomain,
                      [_sum(a, _neg(b), p) for a, b in zip(self.cols, other.cols)])

    def scale(self, s) -> "LinMap":
        s, p = self.field.coerce(s), self.field.characteristic
        return LinMap(self.domain, self.codomain, [_scale(col, s, p) for col in self.cols])

    def tensor(self, other: "LinMap") -> "LinMap":
        """Kronecker product consistent with the row-major basis ordering."""
        cd, p = other.codomain.dim, self.field.characteristic
        cols = [_kron(c1, c2, cd, p) for c1 in self.cols for c2 in other.cols]
        return LinMap(tensor_product(self.domain, other.domain),
                      tensor_product(self.codomain, other.codomain), cols)

    def apply(self, v: Vector) -> Vector:
        if v.space != self.domain:
            raise ShapeMismatch("vector not in the domain")
        return Vector(self.codomain,
                      _combine(self.cols, v.terms.items(), self.domain.field.characteristic))

    def column(self, j: int) -> Vector:
        return Vector(self.codomain, self.cols[j])

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.domain.dim)]

    def transposed_rows(self) -> tuple[dict, ...]:
        """The rows of this map as sparse ``{domain index: coeff}`` dicts,
        which are the columns of its transpose:
        ``LinMap(f.codomain, f.domain, f.transposed_rows())`` is fᵀ."""
        out = [{} for _ in range(self.codomain.dim)]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                out[i][j] = c
        return tuple(out)

    # -- rank / inverse -----------------------------------------------------

    @cached_property
    def rank(self) -> int:
        return len(_echelon(self.cols, self.field))

    def inverse(self) -> "LinMap | None":
        """Exact two-sided inverse for a square map, or None if singular."""
        if self.domain.dim != self.codomain.dim:
            return None
        try:
            return left_inverse_on_image(self)
        except NotInjective:
            return None

    def __repr__(self):
        return f"LinMap({self.domain.dim}→{self.codomain.dim})"


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
