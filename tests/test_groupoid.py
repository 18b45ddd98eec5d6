import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        iso = tuple(g for g in G.elements if G.d[g] == e and G.r[g] == e)
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


def _prop_scans(G):
    """The scans that validate_groupoid once ran after axioms (i)–(iv):
    consequences of the axioms, re-checked on the accepted groupoid.  The
    first failing (tag, witness), or None."""
    elements, mul, inv, d, r = G.elements, G.mul, G.inv, G.d, G.r

    def ex(g, h):
        return (g, h) in mul

    for e in G.identities:
        if not (ex(e, e) and mul[e, e] == e and inv[e] == e and d[e] == e and r[e] == e):
            return "prop-(i)", (e,)
    for g in elements:
        candidates = [x for x in elements
                      if ex(x, g) and mul[x, g] == d[g] and ex(g, x) and mul[g, x] == r[g]]
        if candidates != [inv[g]] or inv[inv[g]] != g:
            return "prop-(ii)", (g,)
    for g, h in itertools.product(elements, repeat=2):
        if ex(g, h) != (d[g] == r[h]):
            return "prop-(iii)", (g, h)
        if ex(g, h):
            gh = mul[g, h]
            if d[gh] != d[h] or r[gh] != r[g]:
                return "prop-(iii)", (g, h)
            if not ex(inv[h], inv[g]) or mul[inv[h], inv[g]] != inv[gh]:
                return "prop-(iv)", (g, h)
    return None


def _accepted(elements, mul, inv):
    """The groupoid validate_groupoid builds from the tables, or None."""
    try:
        return validate_groupoid(elements, mul, inv)
    except AxiomViolation:
        return None


def _one_entry_inverse_corruptions(elements, inv):
    for g in elements:
        for x in elements:
            if inv[g] != x:
                yield {**inv, g: x}


@pytest.mark.parametrize("G", [trivial_groupoid(2), cyclic_group_groupoid(3),
                               disjoint_union_of_cyclic([2, 3]), two_object_iso_groupoid()],
                         ids=["trivial-2", "Z3", "Z2+Z3", "two-object-iso"])
def test_no_table_passing_the_axioms_fails_their_consequences(G):
    """Every table that passes axioms (i)–(iv), among the groupoid's own and
    its one-entry corruptions of mul or of inv in either element order, also
    passes the consequence scans, so validate_groupoid need not run them."""
    accepted = 0
    for elements in (list(G.elements), list(reversed(G.elements))):
        tables = [(G.mul, G.inv)]
        tables += [(mul, G.inv) for mul in _one_entry_corruptions(elements, G.mul)]
        tables += [(G.mul, inv) for inv in _one_entry_inverse_corruptions(elements, G.inv)]
        for mul, inv in tables:
            H = _accepted(elements, mul, inv)
            if H is not None:
                accepted += 1
                assert _prop_scans(H) is None, (elements, mul, inv)
    assert accepted >= 2


@st.composite
def _drawn_tables(draw):
    """Tables near a groupoid: a disjoint union of products Z/n × (the pair
    groupoid on k objects), its elements shuffled, then up to two entries of
    mul or inv changed, removed or added; or a table drawn at random."""
    if draw(st.booleans()):
        elements = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
        pick = st.sampled_from(elements)
        mul = draw(st.dictionaries(st.tuples(pick, pick), pick))
        return elements, mul, {g: draw(pick) for g in elements}
    mul, inv = {}, {}
    for c, (n, k) in enumerate(draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                             min_size=1, max_size=2))):
        name = {(i, j, a): f"c{c}:{i}{j}{a}" for i in range(k) for j in range(k) for a in range(n)}
        for (i, j, a), g in name.items():
            inv[g] = name[j, i, -a % n]
            for l, b in itertools.product(range(k), range(n)):
                mul[g, name[j, l, b]] = name[i, l, (a + b) % n]
    elements = draw(st.permutations(sorted(inv)))
    pick = st.sampled_from(elements)
    for _ in range(draw(st.integers(0, 2))):
        pair, x = (draw(pick), draw(pick)), draw(pick)
        edit = draw(st.sampled_from(["set", "remove", "inverse"]))
        if edit == "set":
            mul[pair] = x
        elif edit == "remove":
            mul.pop(pair, None)
        else:
            inv[pair[0]] = x
    return list(elements), mul, inv


@settings(max_examples=300, deadline=None)
@given(_drawn_tables())
def test_drawn_tables_passing_the_axioms_pass_their_consequences(tables):
    H = _accepted(*tables)
    if H is not None:
        assert _prop_scans(H) is None, tables
