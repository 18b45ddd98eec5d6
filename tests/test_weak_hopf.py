from fractions import Fraction

import pytest

from conftest import groupoid_family

from weakhopf import (
    QQ,
    FiniteAbelianGroup,
    LinMap,
    PrimeField,
    Subspace,
    Vector,
    abelian_group_weak_hopf,
    check_identities,
    check_weak_bialgebra,
    check_weak_hopf,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    dual_groupoid_algebra,
    dualize,
    groupoid_algebra,
    is_hopf,
    same_structure_constants,
    trivial_groupoid,
    two_object_iso_groupoid,
)
from weakhopf.errors import CharacteristicDividesOrder
from weakhopf.jsonio import canonical_dumps, weakhopf_from_json, weakhopf_to_json
from weakhopf.weak_hopf import AlgebraData, WeakBialgebraData, WeakHopfData


@pytest.mark.parametrize("name,G", groupoid_family())
def test_groupoid_algebras_are_weak_hopf(name, G):
    H = groupoid_algebra(G, QQ)
    assert check_weak_hopf(H).ok


def test_eps_t_eps_s_against_direct_contraction():
    """Oracle: evaluate ε(1₁h)1₂ and 1₁ε(h1₂) straight from the raw groupoid
    data, independently of the library's structure-constant machinery."""
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, QQ)
    n = H.space.dim
    # Δ(1) = Σ_e δ_e⊗δ_e, so ε(δ_e δ_g)δ_e sums to δ_{r(g)} and the source
    # version gives δ_{d(g)}
    for j, g in enumerate(G.elements):
        expected_t = [0] * n
        expected_s = [0] * n
        for e in G.identities:
            if G.exists(e, g):          # ε(δ_e δ_g) = 1 whenever defined
                expected_t[G.index(e)] += 1
            if G.exists(g, e):
                expected_s[G.index(e)] += 1
        assert expected_t == [1 if x == G.index(G.r[g]) else 0 for x in range(n)]
        assert expected_s == [1 if x == G.index(G.d[g]) else 0 for x in range(n)]
        col_t = [H.eps_t.rows[i][j] for i in range(n)]
        col_s = [H.eps_s.rows[i][j] for i in range(n)]
        assert col_t == [Fraction(x) for x in expected_t]
        assert col_s == [Fraction(x) for x in expected_s]


def test_eps_maps_fix_unit():
    for _, G in groupoid_family():
        H = groupoid_algebra(G, QQ)
        assert H.eps_t.apply(H.unit) == H.unit
        assert H.eps_s.apply(H.unit) == H.unit


def test_eps_idempotent_and_rank_symmetry():
    for _, G in groupoid_family():
        for H in (groupoid_algebra(G, QQ), dual_groupoid_algebra(G, QQ)):
            assert H.eps_t @ H.eps_t == H.eps_t
            assert H.eps_s @ H.eps_s == H.eps_s
            assert H.eps_t.rank == H.eps_s.rank
            assert H.Ht.contains(H.unit) and H.Hs.contains(H.unit)


def test_ht_dimension_counts_objects():
    for _, G in groupoid_family():
        H = groupoid_algebra(G, QQ)
        assert H.Ht.dim == len(G.identities) == H.Hs.dim


def test_corrupted_multiplication_fails_with_witness():
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, QQ)
    entries = [[list(row) for row in plane] for plane in H.alg.mul_tensor().entries]
    entries[2][0][1] = Fraction(1)   # spurious product δ_g δ_e ∋ δ_f
    bad_alg = AlgebraData.from_tensor(H.space, entries, H.unit.coords)
    rep = check_weak_bialgebra(WeakBialgebraData(bad_alg, H.coalg))
    assert not rep.ok
    bad = rep.failures[0]
    assert bad.witness  # the first failing basis tuple is named


@pytest.mark.parametrize("name,G", groupoid_family())
def test_identity_catalog_passes(name, G):
    rep = check_identities(groupoid_algebra(G, QQ))
    assert rep.ok, rep.failures
    assert not [r for r in rep.results if r.skipped]  # S is a permutation here


def test_identity_catalog_on_dual():
    G = two_object_iso_groupoid()
    Hd = dual_groupoid_algebra(G, QQ)
    rep = check_identities(Hd)
    assert rep.ok, rep.failures
    assert rep.result("Eq 4.7").passed   # Δ(1) ∈ Hs⊗Ht, checked on the dual


def test_hopf_detection():
    assert is_hopf(groupoid_algebra(cyclic_group_groupoid(3), QQ)).is_hopf
    v = is_hopf(groupoid_algebra(two_object_iso_groupoid(), QQ))
    assert not v.is_hopf and v.consistent
    assert v.conditions == (False,) * 5
    v2 = is_hopf(abelian_group_weak_hopf(FiniteAbelianGroup((2,)), QQ))
    assert not v2.is_hopf and v2.consistent


def test_antipode_flip_of_delta_one():
    for _, G in groupoid_family():
        H = groupoid_algebra(G, QQ)
        rep = check_weak_hopf(H)
        assert rep.result("Δ(1)=(S⊗S)flip(Δ(1))").passed


def test_dualize_matches_explicit_dual():
    for _, G in groupoid_family():
        H = groupoid_algebra(G, QQ)
        assert same_structure_constants(dualize(H), dual_groupoid_algebra(G, QQ))


def test_double_dual_recovers_structure():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    assert same_structure_constants(dualize(dualize(H)), H)


def test_dual_eps_t_is_transpose():
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, QQ)
    Hd = dualize(H)
    assert Hd.eps_t.cols == H.eps_t.transposed_rows()
    assert Hd.eps_s.cols == H.eps_s.transposed_rows()


def test_dual_counit_detects_identities():
    G = two_object_iso_groupoid()
    Hd = dual_groupoid_algebra(G, QQ)
    # ε(p_g) = 1 iff g is an identity: evaluate p_g on Σ_e δ_e by hand
    for j, g in enumerate(G.elements):
        expected = 1 if g in set(G.identities) else 0
        assert Hd.coalg.counit.rows[0][j] == Fraction(expected)


def test_abelian_example_structure():
    H = abelian_group_weak_hopf(FiniteAbelianGroup((2,)), QQ)
    assert check_weak_hopf(H).ok
    # Δ(1) = (1⊗1 + g⊗g)/2 and ε(1) = 2, ε(g) = 0
    assert H.wb.delta_one.coords == (Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert H.coalg.counit.rows[0] == (Fraction(2), Fraction(0))
    ident = LinMap.identity(H.space)
    assert H.eps_t == ident and H.eps_s == ident
    assert check_identities(H).ok


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
@pytest.mark.parametrize("order", [2, 3])
def test_abelian_example_over_fields(field, order):
    H = abelian_group_weak_hopf(FiniteAbelianGroup((order,)), field)
    assert check_weak_hopf(H).ok
    assert H.eps_t == LinMap.identity(H.space)


def test_abelian_rejects_bad_characteristic():
    with pytest.raises(CharacteristicDividesOrder):
        abelian_group_weak_hopf(FiniteAbelianGroup((2,)), PrimeField(2))
    with pytest.raises(CharacteristicDividesOrder):
        abelian_group_weak_hopf(FiniteAbelianGroup((2, 3)), PrimeField(3))


def test_weak_hopf_over_prime_field():
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, PrimeField(5))
    assert check_weak_hopf(H).ok
    assert check_identities(H).ok


def test_isolated_identities_delta_one():
    # two isolated objects: Δ(1) = δ_e1⊗δ_e1 + δ_e2⊗δ_e2
    H = groupoid_algebra(trivial_groupoid(2), QQ)
    assert H.wb.delta_one.coords == (Fraction(1), 0, 0, Fraction(1))


def test_hs_ht_span_identity_components():
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, QQ)
    idents = Subspace.from_vectors(
        H.space, [Vector.basis(H.space, G.index(e)) for e in G.identities])
    assert H.Ht == idents and H.Hs == idents


def test_json_round_trip_and_determinism():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    doc = weakhopf_to_json(H)
    H2 = weakhopf_from_json(doc)
    assert same_structure_constants(H, H2)
    assert H2.space.labels == H.space.labels
    assert canonical_dumps(doc) == canonical_dumps(weakhopf_to_json(H2))


def test_singular_antipode_marks_skips():
    # force a rank-deficient "antipode" on a valid weak bialgebra; the
    # S-dependent catalog entries must be skipped, not failed
    G = cyclic_group_groupoid(2)
    H = groupoid_algebra(G, QQ)
    bad = WeakHopfData(H.wb, LinMap.zero(H.space, H.space))
    rep = check_identities(bad)
    skipped = {r.label for r in rep.results if r.skipped}
    assert skipped == {"Eq 4.41a", "Eq 4.42", "Eq 4.43"}
