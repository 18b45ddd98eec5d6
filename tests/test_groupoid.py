import itertools

import pytest

from weakhopf import (
    QQ,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    groupoid_from_spec,
    trivial_groupoid,
    two_object_iso_groupoid,
    validate_groupoid,
)
from weakhopf.errors import AxiomViolation
from weakhopf.groupoid import groupoid_to_spec


def test_two_isolated_identities():
    G = trivial_groupoid(2)
    assert set(G.identities) == {"e1", "e2"}
    assert G.composable == {("e1", "e1"), ("e2", "e2")}


def test_two_object_iso_composables():
    G = two_object_iso_groupoid()
    # oracle: pairs of the raw table, independently enumerated from d(g)=r(h)
    expected = {
        ("e", "e"), ("f", "f"), ("f", "g"), ("g", "e"),
        ("g^-1", "f"), ("e", "g^-1"), ("g", "g^-1"), ("g^-1", "g"),
    }
    assert G.composable == expected
    for g, h in expected:
        assert G.d[g] == G.r[h]
    assert G.d["g"] == "e" and G.r["g"] == "f"
    assert G.inv["g"] == "g^-1"


def test_identity_ordering_convention():
    G = disjoint_union_of_cyclic([3, 2])
    ids = G.elements[: len(G.identities)]
    assert list(ids) == sorted(G.identities)
    rest = G.elements[len(G.identities):]
    assert list(rest) == sorted(rest)


def test_non_unique_local_units_is_axiom_iii():
    # xy = y is total and associative but gives f two left units
    elements = ["e", "f"]
    mul = {(g, h): h for g in elements for h in elements}
    inv = {"e": "e", "f": "f"}
    with pytest.raises(AxiomViolation) as exc:
        validate_groupoid(elements, mul, inv)
    assert exc.value.axiom == "(iii)"


def test_missing_product_rejected():
    G = two_object_iso_groupoid()
    mul = dict(G.mul)
    del mul[("g", "e")]   # g loses its right unit; existence axioms fire
    with pytest.raises(AxiomViolation) as exc:
        validate_groupoid(G.elements, mul, G.inv)
    assert exc.value.axiom in {"(i)", "(ii)", "(iii)"}
    assert exc.value.witness


def test_product_where_sources_disagree_rejected():
    G = two_object_iso_groupoid()
    mul = dict(G.mul)
    mul[("g", "f")] = "g"   # ∃gh although d(g) ≠ r(h)
    with pytest.raises(AxiomViolation) as exc:
        validate_groupoid(G.elements, mul, G.inv)
    assert exc.value.axiom in {"(i)", "(ii)", "(iii)"}


def test_wrong_inverse_rejected():
    G = cyclic_group_groupoid(3)
    inv = dict(G.inv)
    inv["a"] = "a"
    with pytest.raises(AxiomViolation) as exc:
        validate_groupoid(G.elements, G.mul, inv)
    assert exc.value.axiom == "(iv)"


def test_isotropy_groups_are_groups():
    G = disjoint_union_of_cyclic([2, 3])
    for e in G.identities:
        iso = G.isotropy(e)
        mul = {(g, h): G.mul[g, h] for g in iso for h in iso}
        inv = {g: G.inv[g] for g in iso}
        H = validate_groupoid(iso, mul, inv)
        assert len(H.identities) == 1


def test_disjoint_union_shorthand_matches_explicit():
    G1 = groupoid_from_spec({"disjoint_union": [{"group": "Z/2"}, {"group": "Z/3"}]})
    G2 = disjoint_union_of_cyclic([2, 3])
    assert G1.elements == G2.elements
    assert G1.mul == G2.mul
    assert G1.inv == G2.inv


def test_spec_round_trip():
    G = two_object_iso_groupoid()
    G2 = groupoid_from_spec(groupoid_to_spec(G))
    assert G2.elements == G.elements and G2.mul == G.mul and G2.inv == G.inv


def test_prop_consequences_hold():
    G = disjoint_union_of_cyclic([2, 3])
    for g in G.elements:
        for h in G.elements:
            assert ((g, h) in G.mul) == (G.d[g] == G.r[h])
            if (g, h) in G.mul:
                gh = G.mul[g, h]
                assert G.d[gh] == G.d[h] and G.r[gh] == G.r[g]
                assert G.mul[G.inv[h], G.inv[g]] == G.inv[gh]


def _literal_scan(elements, mul):
    """Axioms (i) and (ii) as a literal loop over every triple, in
    itertools.product order: the first failing (tag, triple), or None."""
    def ex(g, h):
        return (g, h) in mul

    for g, h, l in itertools.product(elements, repeat=3):
        left_defined = ex(g, h) and ex(mul[g, h], l)
        right_defined = ex(h, l) and ex(g, mul[h, l])
        if left_defined != right_defined:
            return "(i)", (g, h, l)
        if left_defined != (ex(g, h) and ex(h, l)):
            return "(ii)", (g, h, l)
        if left_defined and mul[mul[g, h], l] != mul[g, mul[h, l]]:
            return "(i)", (g, h, l)
    return None


def _one_entry_corruptions(elements, mul):
    """Every table that differs from ``mul`` in one pair: the pair removed, or
    its product set to another element (a pair that was not composable gets one)."""
    for pair in itertools.product(elements, repeat=2):
        if pair in mul:
            yield {k: v for k, v in mul.items() if k != pair}
        for x in elements:
            if mul.get(pair) != x:
                yield {**mul, pair: x}


@pytest.mark.parametrize("G", [trivial_groupoid(2), cyclic_group_groupoid(3),
                               disjoint_union_of_cyclic([2, 3]), two_object_iso_groupoid()],
                         ids=["trivial-2", "Z3", "Z2+Z3", "two-object-iso"])
def test_associativity_scan_matches_the_literal_triple_loop(G):
    """On every one-entry corruption, in the stored and the reversed element
    order, validate_groupoid names the same (i)/(ii) tag and first witness as
    the literal scan, and passes (i)/(ii) where the literal scan passes."""
    failing = 0
    for elements in (list(G.elements), list(reversed(G.elements))):
        for mul in _one_entry_corruptions(elements, G.mul):
            expected = _literal_scan(elements, mul)
            try:
                validate_groupoid(elements, mul, G.inv)
                got = None
            except AxiomViolation as exc:
                got = (exc.axiom, exc.witness) if exc.axiom in ("(i)", "(ii)") else None
            assert got == expected, (elements, mul)
            failing += expected is not None
    assert failing > 0
