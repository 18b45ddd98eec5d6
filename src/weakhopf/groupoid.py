"""Finite groupoids and the three weak Hopf example families built from them:
the groupoid algebra, its dual, and the abelian-group construction with the
averaged comultiplication.
"""

from __future__ import annotations

import itertools

from .errors import (AxiomViolation, CharacteristicDividesOrder, Frozen, MalformedInput,
                     ShapeMismatch)
from .scalars import Field
from .structures import WeakHopfData, _assemble, same_structure_constants
from .tensor_space import FinVec, LinMap


class FiniteGroupoid(Frozen):
    """A validated finite groupoid.

    ``mul`` is the partial multiplication as a dict on composable pairs,
    ``inv`` the (total) inversion.  ``d``/``r`` are the source and range maps
    g ↦ g⁻¹g and g ↦ gg⁻¹; ``identities`` is the ordered list of objects.
    Elements are ordered identities-first, each block sorted, which fixes
    every downstream basis ordering.
    """

    def __init__(self, elements: tuple[str, ...], mul: dict, inv: dict, d: dict, r: dict,
                 identities: tuple[str, ...]):
        self.__dict__.update(elements=elements, mul=mul, inv=inv, d=d, r=r,
                             identities=identities,
                             _positions={g: i for i, g in enumerate(elements)})

    @property
    def composable(self) -> set[tuple[str, str]]:
        return set(self.mul.keys())

    def index(self, g: str) -> int:
        return self._positions[g]

    def product(self, g: str, h: str):
        return self.mul.get((g, h))

    def __repr__(self):
        return f"FiniteGroupoid({len(self.elements)} elements, {len(self.identities)} objects)"


def validate_groupoid(elements, mul, inv) -> FiniteGroupoid:
    """Exhaustively verify the groupoid axioms (i)–(iv), then derive the
    source/range maps, objects and composable pairs.

    Raises AxiomViolation with the axiom tag and a witness tuple on failure.
    """
    elements = list(elements)
    if not elements:
        raise AxiomViolation("nonempty", ())
    if len(set(elements)) != len(elements):
        raise AxiomViolation("distinct-elements", ())
    eset = set(elements)
    mul = dict(mul)
    for (g, h), gh in mul.items():
        if g not in eset or h not in eset or gh not in eset:
            raise AxiomViolation("table-range", (g, h, gh))
    inv = dict(inv)
    if set(inv) != eset or any(v not in eset for v in inv.values()):
        raise AxiomViolation("inverse-total", ())

    def ex(g, h):
        return (g, h) in mul

    # (i)+(ii): ∃(gh)l ⇔ ∃gh ∧ ∃hl ⇔ ∃g(hl), with equal products.  A triple
    # with neither hl nor (gh)l defined holds, so the scan visits, in
    # itertools.product order, only the l with one of them defined;
    # after[x] maps each l with xl defined to xl
    after = {x: {l: mul[x, l] for l in elements if (x, l) in mul} for x in elements}
    for g, h in itertools.product(elements, repeat=2):
        hls = after[h]
        ghls = after[mul[g, h]] if (g, h) in mul else None
        if ghls is None and after[g].keys().isdisjoint(hls.values()):
            continue    # gh and every g(hl) undefined
        ls = hls if ghls is None or ghls.keys() == hls.keys() else [
            l for l in elements if l in hls or l in ghls]
        for l in ls:
            left_defined = ghls is not None and l in ghls
            right_defined = l in hls and (g, hls[l]) in mul
            if left_defined != right_defined:
                raise AxiomViolation("(i)", (g, h, l))
            if left_defined != (ghls is not None and l in hls):
                raise AxiomViolation("(ii)", (g, h, l))
            if left_defined and ghls[l] != mul[g, hls[l]]:
                raise AxiomViolation("(i)", (g, h, l))

    # (iii): unique local units
    d, r = {}, {}
    for g in elements:
        rights = [x for x in elements if ex(g, x) and mul[g, x] == g]
        lefts = [x for x in elements if ex(x, g) and mul[x, g] == g]
        if len(rights) != 1 or len(lefts) != 1:
            raise AxiomViolation("(iii)", (g,))
        d[g], r[g] = rights[0], lefts[0]

    # (iv): declared inverses produce the local units
    for g in elements:
        gi = inv[g]
        if not (ex(gi, g) and mul[gi, g] == d[g] and ex(g, gi) and mul[g, gi] == r[g]):
            raise AxiomViolation("(iv)", (g, gi))

    identities = sorted({d[g] for g in elements} | {r[g] for g in elements})

    rest = sorted(g for g in elements if g not in set(identities))
    ordered = tuple(identities) + tuple(rest)
    return FiniteGroupoid(ordered, mul, inv, d, r, tuple(identities))


# ---------------------------------------------------------------------------
# constructors for the recurring example family
# ---------------------------------------------------------------------------

def trivial_groupoid(n_objects: int) -> FiniteGroupoid:
    """n isolated identities (disjoint union of trivial groups)."""
    elements = [f"e{i + 1}" for i in range(n_objects)]
    mul = {(e, e): e for e in elements}
    inv = {e: e for e in elements}
    return validate_groupoid(elements, mul, inv)


def _cyclic_block(n: int, prefix: str):
    labels = [f"{prefix}e"] + [f"{prefix}a{k}" if k > 1 else f"{prefix}a" for k in range(1, n)]
    mul = {}
    for i in range(n):
        for j in range(n):
            mul[labels[i], labels[j]] = labels[(i + j) % n]
    inv = {labels[i]: labels[(-i) % n] for i in range(n)}
    return labels, mul, inv


def cyclic_group_groupoid(n: int, prefix: str = "") -> FiniteGroupoid:
    """Z/n as a one-object groupoid."""
    labels, mul, inv = _cyclic_block(n, prefix)
    return validate_groupoid(labels, mul, inv)


def disjoint_union_of_cyclic(orders) -> FiniteGroupoid:
    """Disjoint union of cyclic groups; arrows never cross components."""
    elements, mul, inv = [], {}, {}
    for i, n in enumerate(orders):
        labels, m, iv = _cyclic_block(n, prefix=f"g{i + 1}.")
        elements += labels
        mul.update(m)
        inv.update(iv)
    return validate_groupoid(elements, mul, inv)


def two_object_iso_groupoid() -> FiniteGroupoid:
    """The 4-element groupoid with objects e, f and one isomorphism g: e → f."""
    elements = ["e", "f", "g", "g^-1"]
    mul = {
        ("e", "e"): "e", ("f", "f"): "f",
        ("f", "g"): "g", ("g", "e"): "g",
        ("g^-1", "f"): "g^-1", ("e", "g^-1"): "g^-1",
        ("g", "g^-1"): "f", ("g^-1", "g"): "e",
    }
    inv = {"e": "e", "f": "f", "g": "g^-1", "g^-1": "g"}
    return validate_groupoid(elements, mul, inv)


def groupoid_from_spec(spec: dict, at: str = "") -> FiniteGroupoid:
    """Parse the two supported input forms (``at`` prefixes the JSON path of a
    spec nested in another document).

    Explicit: ``{"elements": [...], "mul": [[g, h, gh], ...], "inv": {g: g⁻¹}}``.
    Shorthand: ``{"disjoint_union": [{"group": "Z/2"}, {"group": "Z/3"}]}``.
    """
    def names(value) -> bool:
        return isinstance(value, list) and all(isinstance(x, str) for x in value)

    def need(ok: bool, path: str, what: str) -> None:
        if not ok:
            raise MalformedInput(f"{(at + path).rstrip('.') or 'groupoid'}: expected {what}")

    need(isinstance(spec, dict), "", "a groupoid object")
    if "disjoint_union" in spec:
        items, orders = spec["disjoint_union"], []
        need(isinstance(items, list), "disjoint_union", "a list of groups")
        for i, item in enumerate(items):
            need(isinstance(item, dict), f"disjoint_union[{i}]",
                 'an object such as {"group": "Z/2"}')
            name = item.get("group")
            kind, _, order = (name if isinstance(name, str) else "").strip().partition("/")
            need(kind == "Z" and order.strip().isdecimal() and int(order) > 0,
                 f"disjoint_union[{i}].group", f"a group name such as 'Z/2', got {name!r}")
            orders.append(int(order))
        return disjoint_union_of_cyclic(orders)
    elements, mul, inv = spec.get("elements"), spec.get("mul"), spec.get("inv")
    need(names(elements), "elements", "a list of element names")
    need(isinstance(mul, list), "mul", "a list of triples [g, h, gh]")
    bad = next((i for i, entry in enumerate(mul) if not (names(entry) and len(entry) == 3)), None)
    need(bad is None, f"mul[{bad}]", "a triple [g, h, gh] of element names")
    need(isinstance(inv, dict) and names(list(inv.values())), "inv",
         "an object mapping each element to its inverse")
    return validate_groupoid(elements, {(g, h): gh for g, h, gh in mul}, inv)


def _builds(G: FiniteGroupoid, hopf: WeakHopfData, build) -> FiniteGroupoid:
    """``G``, once ``build(G)`` has the basis labels and structure constants of ``hopf``."""
    built = build(G, hopf.field)
    if built.space.labels != hopf.space.labels or not same_structure_constants(built, hopf):
        raise MalformedInput(f"groupoid: its {build.__name__.replace('_', ' ')} is not "
                             f"the document's hopf")
    return G


def groupoid_to_spec(G: FiniteGroupoid) -> dict:
    return {
        "elements": list(G.elements),
        "mul": sorted([g, h, gh] for (g, h), gh in G.mul.items()),
        "inv": {g: G.inv[g] for g in G.elements},
    }


# ---------------------------------------------------------------------------
# weak Hopf structures on groupoids
# ---------------------------------------------------------------------------

def groupoid_algebra(G: FiniteGroupoid, field: Field) -> WeakHopfData:
    """The groupoid algebra: basis δ_g, product δ_gδ_h = δ_{gh} on composable
    pairs (zero otherwise), grouplike comultiplication, unit Σ_e δ_e and
    antipode δ_g ↦ δ_{g⁻¹}."""
    space, idx, o = FinVec(field, G.elements), G.index, field.one()
    n = space.dim
    products = [{} for _ in range(n * n)]
    for (g, h), gh in G.mul.items():
        products[idx(g) * n + idx(h)] = {idx(gh): o}
    return _assemble(space, products, {idx(e): o for e in G.identities},
                     [{i * n + i: o} for i in range(n)], [o] * n,
                     [{idx(G.inv[g]): o} for g in G.elements])


def dual_groupoid_algebra(G: FiniteGroupoid, field: Field) -> WeakHopfData:
    """The dual structure written out directly on the basis {p_g}: pointwise
    product, unit Σ p_g, coproduct Δ(p_g) = Σ_{∃h⁻¹g} p_h ⊗ p_{h⁻¹g},
    counit p_g ↦ p_g(Σ δ_e) and antipode p_g ↦ p_{g⁻¹}.

    Built independently of :func:`weak_hopf.dualize` so the two construction
    routes can be compared tensor-entrywise.
    """
    space, idx, o = FinVec(field, tuple(f"p_{g}" for g in G.elements)), G.index, field.one()
    n = space.dim
    coproducts = [{i * n + idx(hig): o for i, h in enumerate(G.elements)
                   if (hig := G.product(G.inv[h], g)) is not None} for g in G.elements]
    counit = [o if g in set(G.identities) else field.zero() for g in G.elements]
    return _assemble(space, [{i: o} if i == j else {} for i in range(n) for j in range(n)],
                     {i: o for i in range(n)}, coproducts, counit,
                     [{idx(G.inv[g]): o} for g in G.elements])


# ---------------------------------------------------------------------------
# the abelian-group example
# ---------------------------------------------------------------------------

class FiniteAbelianGroup(Frozen):
    """A finite abelian group as a product of cyclic factors."""

    def __init__(self, factors: tuple[int, ...]):
        if not factors or any(n < 1 for n in factors):
            raise ShapeMismatch("factors must be positive integers")
        self.__dict__["factors"] = factors

    @property
    def order(self) -> int:
        out = 1
        for n in self.factors:
            out *= n
        return out

    @property
    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(n) for n in self.factors)))

    def label(self, g: tuple[int, ...]) -> str:
        return ",".join(str(x) for x in g)

    def op(self, g, h):
        return tuple((a + b) % n for a, b, n in zip(g, h, self.factors))

    def neg(self, g):
        return tuple((-a) % n for a, n in zip(g, self.factors))

    @property
    def identity(self):
        return tuple(0 for _ in self.factors)


def abelian_group_from_spec(d: dict) -> FiniteAbelianGroup:
    factors = d.get("factors")
    if not isinstance(factors, list) or not factors:
        raise MalformedInput(f"factors: expected a non-empty list of positive integers, "
                             f"got {factors!r}")
    for i, n in enumerate(factors):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise MalformedInput(f"factors[{i}]: expected a positive integer, got {n!r}")
    return FiniteAbelianGroup(tuple(factors))


def abelian_group_weak_hopf(G: FiniteAbelianGroup, field: Field) -> WeakHopfData:
    """Group algebra of a finite abelian group with the averaged coproduct
    Δ(g) = (1/N) Σ_h gh ⊗ h⁻¹, counit ε(g) = N·[g = 1], identity antipode.

    Requires that the field characteristic does not divide N = |G|.
    """
    N = G.order
    if field.char_divides(N):
        raise CharacteristicDividesOrder(
            f"characteristic {field.characteristic} divides |G| = {N}"
        )
    elems = G.elements
    index = {g: i for i, g in enumerate(elems)}
    space = FinVec(field, tuple(G.label(g) for g in elems))
    n, o, inv_n = space.dim, field.one(), field.inv(field.from_int(N))
    coproducts = [{index[G.op(g, h)] * n + index[G.neg(h)]: inv_n for h in elems} for g in elems]
    counit = [field.from_int(N) if g == G.identity else field.zero() for g in elems]
    return _assemble(space, [{index[G.op(g, h)]: o} for g in elems for h in elems],
                     {index[G.identity]: o}, coproducts, counit,
                     LinMap.identity(space).cols)


def validate_command(args):
    """``whw validate-groupoid``: the axioms of ``args.doc``, checked as it is read."""
    from .report import CheckResult, Report

    G = groupoid_from_spec(args.doc)
    return [Report("groupoid axioms", [CheckResult("axioms", True, (
        f"{len(G.elements)} elements, {len(G.identities)} objects, "
        f"{len(G.composable)} composable pairs"))])], None


def build_command(args):
    """``whw build``: the weak Hopf algebra ``args.kind`` of the spec ``args.doc``
    over the field ``args.field``, as a document."""
    from .jsonwrite import weakhopf_to_json
    from .scalars import field_from_name

    field, kind = field_from_name(args.field), args.kind
    if kind == "abelian-group":
        H = abelian_group_weak_hopf(abelian_group_from_spec(args.doc), field)
    else:
        H = (groupoid_algebra if kind == "kG" else dual_groupoid_algebra)(
            groupoid_from_spec(args.doc), field)
    return None, weakhopf_to_json(H)
