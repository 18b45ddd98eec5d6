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
