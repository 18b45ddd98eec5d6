import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GF7, draw_structure, draw_vector, fields, groupoid_family

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
    tensor_product,
    trivial_groupoid,
    two_object_iso_groupoid,
)
from weakhopf.errors import CharacteristicDividesOrder
from weakhopf.jsonio import canonical_dumps, weakhopf_from_json, weakhopf_to_json
from weakhopf.report import CheckResult, compare_scalars
from weakhopf.weak_hopf import AlgebraData, WeakBialgebraData, WeakHopfData, pointwise_product


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


# -- structure-tensor lookups against fresh products ------------------------------

def reference_axiom_ii(wb):
    """Axiom (ii) by the triple loop over basis tuples (h, k, l), with a fresh
    product for every factor; the (ii)a and (ii)b results."""
    H, A, C = wb.space, wb.alg, wb.coalg
    e = [Vector.basis(H, i) for i in range(H.dim)]
    fail_a = fail_b = None
    for i, j, l in itertools.product(range(H.dim), repeat=3):
        full = C.eps(A.product(A.product(e[i], e[j]), e[l]))
        one = two = wb.field.zero()
        for a, b, c in C.delta_pairs(j):
            one = one + c * (C.eps(A.product(e[i], e[a])) * C.eps(A.product(e[b], e[l])))
            two = two + c * (C.eps(A.product(e[i], e[b])) * C.eps(A.product(e[a], e[l])))
        ctx = f"(h,k,l)=({H.labels[i]},{H.labels[j]},{H.labels[l]})"
        if fail_a is None and full != one:
            fail_a = compare_scalars("(ii)a", wb.field, full, one, ctx)
        if fail_b is None and full != two:
            fail_b = compare_scalars("(ii)b", wb.field, full, two, ctx)
    return fail_a or CheckResult("(ii)a", True), fail_b or CheckResult("(ii)b", True)


def with_mutated_product(H, idx, k):
    """H's weak bialgebra with 1 added to the coefficient of e_k in column
    ``idx`` (the product e_{idx // n}·e_{idx % n}) of the multiplication."""
    cols = [dict(c) for c in H.alg.mul.cols]
    value = cols[idx].pop(k, H.field.zero()) + H.field.one()
    if value:
        cols[idx][k] = value
    mul = LinMap(H.alg.mul.domain, H.space, cols)
    return WeakBialgebraData(AlgebraData(H.space, mul, H.unit), H.coalg)


EXAMPLES = {
    "kG(Z/2⊔Z/3)": lambda F: groupoid_algebra(disjoint_union_of_cyclic([2, 3]), F),
    "(kG)* two-object": lambda F: dual_groupoid_algebra(two_object_iso_groupoid(), F),
    "N=3 averaged": lambda F: abelian_group_weak_hopf(FiniteAbelianGroup((3,)), F),
}


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("name,idx,k", [
    ("kG(Z/2⊔Z/3)", 6, 1), ("kG(Z/2⊔Z/3)", 11, 2),
    ("(kG)* two-object", 15, 0), ("(kG)* two-object", 12, 0),
    ("N=3 averaged", 8, 0), ("N=3 averaged", 6, 0), ("N=3 averaged", 0, 1),
])
def test_axiom_ii_matches_triple_loop_reference(name, idx, k, field):
    H = EXAMPLES[name](field)
    wb = with_mutated_product(H, idx, k)
    reference = reference_axiom_ii(wb)
    # the mutation breaks (ii), first at a tuple other than (e₀, e₀, e₀)
    assert not all(r.passed for r in reference)
    origin = "(h,k,l)=({0},{0},{0}):".format(H.space.labels[0])
    assert not any((r.witness or "").startswith(origin) for r in reference)
    rep = check_weak_bialgebra(wb)
    assert (rep.result("(ii)a"), rep.result("(ii)b")) == reference


def reference_pointwise(A, power, x, y):
    """(a1⊗...⊗ak)(b1⊗...⊗bk) = a1b1⊗...⊗akbk from fresh products and tensors."""
    n = A.space.dim
    out = Vector.zero(x.space)
    for i, a in x.nonzeros():
        for j, b in y.nonzeros():
            i_parts = [i // n ** (power - 1 - t) % n for t in range(power)]
            j_parts = [j // n ** (power - 1 - t) % n for t in range(power)]
            term = None
            for ip, jp in zip(i_parts, j_parts):
                factor = A.product(Vector.basis(A.space, ip), Vector.basis(A.space, jp))
                term = factor if term is None else term.tensor(factor)
            out = out + Vector(x.space, term.terms).scale(a * b)
    return out


@settings(max_examples=40, deadline=None)
@given(fields, st.integers(1, 3), st.sampled_from([2, 3]), st.data())
def test_pointwise_product_matches_fresh_products(F, dim, power, data):
    H = draw_structure(data, F, dim)
    space = H.space
    for _ in range(power - 1):
        space = tensor_product(space, H.space)
    x, y = draw_vector(data, space), draw_vector(data, space)
    out = pointwise_product(H.alg, power, x, y)
    assert out == reference_pointwise(H.alg, power, x, y)
    assert all(out.terms.values())


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(1, 4), st.data())
def test_eps_form_is_counit_of_products(F, dim, data):
    H = draw_structure(data, F, dim)
    form = H.wb.eps_form
    for i in range(dim):
        assert all(form[i].values())
        for j in range(dim):
            prod = H.alg.product(Vector.basis(H.space, i), Vector.basis(H.space, j))
            assert form[i].get(j, F.zero()) == H.coalg.eps(prod)
