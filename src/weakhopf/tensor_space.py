"""Named-basis vector spaces and exact sparse linear maps.

Conventions, fixed once for the whole package:

* a ``LinMap`` stores its columns: one ``{codomain index: coeff}`` dict per
  domain basis vector; a ``Vector`` stores ``{index: coeff}``.  Neither ever
  holds an explicit zero, so equality is a comparison of the stored data and
  every operation touches the nonzero entries only;
* elimination and ``Subspace`` are in :mod:`elimination`, the dense-list
  adapters (``rref``, ``solve``, ``LinMap.from_rows``, …) in :mod:`dense`;
  ``LinMap.rows`` (indexed ``rows[codomain][domain]``) and ``Vector.coords``
  are dense read-only views;
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

from .errors import FieldMismatch, Frozen, NotInjective, ShapeMismatch, forward
from .scalars import Field

__getattr__ = forward(globals(), {
    **dict.fromkeys("Subspace left_inverse_on_image".split(), "elimination"),
    **dict.fromkeys("image_basis rref rref_with_transform solve solve_coordinates".split(),
                    "dense")})


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
# The coefficients of ``terms`` may be unreduced.  Two rules:
# * ×1: a factor equal to 1 costs no multiply.  A coefficient that scales a
#   whole column is tested once, before its loop, so a 0/1 structure constant
#   costs one comparison per term and none per entry.
# * shared column: a result that is one stored column times 1 is that column
#   (``_combine``, ``_accumulate``, ``_scale(a, 1)``, ``_sum(a, {})``), copied
#   only if a second term arrives and never filtered, since stored columns hold
#   no zeros and are reduced.  So a result may alias a stored column.
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
        from .dense import from_rows
        return from_rows(domain, codomain, rows)

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
        return Vector(self.codomain, v.terms and _combine(
            self.cols, v.terms.items(), self.domain.field.characteristic))

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
        from .elimination import _echelon
        return len(_echelon(self.cols, self.field))

    def inverse(self) -> "LinMap | None":
        """Exact two-sided inverse for a square map, or None if singular."""
        from .elimination import left_inverse_on_image
        if self.domain.dim != self.codomain.dim:
            return None
        try:
            return left_inverse_on_image(self)
        except NotInjective:
            return None

    def __repr__(self):
        return f"LinMap({self.domain.dim}→{self.codomain.dim})"
