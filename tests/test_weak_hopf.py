import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ENTRIES, GF7, counit_value, dense_entries, draw_map, draw_structure,
                      draw_vector, fields, groupoid_family, labelled, regular_action, swap_map)

from weakhopf import (
    QQ,
    FiniteAbelianGroup,
    FinVec,
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
from weakhopf.cli import canonical_dumps
from weakhopf.dense import rref, rref_with_transform
from weakhopf.errors import CharacteristicDividesOrder, ShapeMismatch
from weakhopf.jsonio import weakhopf_from_json
from weakhopf.jsonwrite import weakhopf_to_json
from weakhopf.report import (CheckResult, compare_maps, compare_scalars, compare_vectors,
                              first_failure)
from weakhopf.weak_hopf import (
    AlgebraData,
    CoalgebraData,
    WeakBialgebraData,
    WeakHopfData,
    _on_image,
    _sweedler,
    pointwise_product,
)


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
            if (e, g) in G.mul:          # ε(δ_e δ_g) = 1 whenever defined
                expected_t[G.index(e)] += 1
            if (g, e) in G.mul:
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
    entries = dense_entries(H.alg.mul)
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
    assert labelled(rep, "Eq 4.7").passed   # Δ(1) ∈ Hs⊗Ht, checked on the dual


def test_hopf_detection():
    rep = is_hopf(groupoid_algebra(cyclic_group_groupoid(3), QQ))
    assert rep.ok and rep.title == "Hopf detection" and len(rep.results) == 6
    v = is_hopf(groupoid_algebra(two_object_iso_groupoid(), QQ))
    assert not v.ok and labelled(v, "conditions agree").passed
    assert [r.passed for r in v.results[:5]] == [False] * 5
    v2 = is_hopf(abelian_group_weak_hopf(FiniteAbelianGroup((2,)), QQ))
    assert not v2.ok and labelled(v2, "conditions agree").passed


def test_is_hopf_builds_each_antipode_product_once(monkeypatch):
    """m∘(id⊗S) and m∘(S⊗id) are built once each, not once per column of Δ."""
    import weakhopf.hopf

    real, sides = weakhopf.hopf._mul_with, []

    def counted(A, f_cols, side):
        sides.append(side)
        return real(A, f_cols, side)

    monkeypatch.setattr(weakhopf.hopf, "_mul_with", counted)
    v = is_hopf(groupoid_algebra(disjoint_union_of_cyclic([16, 16]), QQ))
    assert not v.ok and labelled(v, "conditions agree").passed
    assert sorted(sides) == [0, 1]


def test_antipode_flip_of_delta_one():
    for _, G in groupoid_family():
        H = groupoid_algebra(G, QQ)
        rep = check_weak_hopf(H)
        assert labelled(rep, "Δ(1)=(S⊗S)flip(Δ(1))").passed


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


def shipped_structures(F) -> list:
    """kG and (kG)* of every groupoid of ``groupoid_family``, and the averaged
    example of Z/2, Z/3 and Z/4."""
    return ([make(G, F) for _, G in groupoid_family()
             for make in (groupoid_algebra, dual_groupoid_algebra)]
            + [abelian_group_weak_hopf(FiniteAbelianGroup((N,)), F) for N in (2, 3, 4)])


def hs_ht_of_eq_4_7(H) -> Subspace:
    """The basis of Hs⊗Ht in which ``check_identities`` decides Eq 4.7."""
    import weakhopf.identities

    built = []

    class Recorded(Subspace):
        def __init__(self, space, basis):
            super().__init__(space, basis)
            built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weakhopf.identities, "Subspace", Recorded)
        check_identities(H)
    [hs_ht] = built
    return hs_ht


def assert_hs_ht_is_eliminated_span(H):
    hs_ht = hs_ht_of_eq_4_7(H)
    eliminated = Subspace.from_vectors(tensor_product(H.space, H.space), [
        s.tensor(t) for s in H.Hs.basis_vectors for t in H.Ht.basis_vectors])
    assert hs_ht.space == eliminated.space
    assert list(hs_ht.basis.items()) == list(eliminated.basis.items())   # key order included


@pytest.mark.parametrize("F", [QQ, GF7], ids=["Q", "GF7"])
def test_hs_ht_read_off_the_canonical_bases_is_the_eliminated_span(F):
    """The products s_a⊗t_b of the canonical rows of H_s and H_t, keyed a·n + b,
    are the canonical basis that elimination of all the products gives."""
    for H in shipped_structures(F):
        assert_hs_ht_is_eliminated_span(H)


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(1, 3), st.data())
def test_hs_ht_of_drawn_structures_is_the_eliminated_span(F, dim, data):
    assert_hs_ht_is_eliminated_span(draw_structure(data, F, dim))


@pytest.mark.parametrize("F", [QQ, GF7], ids=["Q", "GF7"])
def test_check_identities_eliminates_nothing_once_ht_hs_and_s_inverse_are_built(F, monkeypatch):
    """Eq 4.7 reads Hs⊗Ht off the cached canonical bases, so the catalogue makes no
    ``_echelon`` call of its own, on the image in ℤ/M (the averaged examples over
    ℚ) as on the structure itself."""
    import weakhopf.elimination

    real, calls = weakhopf.elimination._echelon, []

    def counted(rows, field):
        calls.append(field)
        return real(rows, field)

    monkeypatch.setattr(weakhopf.elimination, "_echelon", counted)
    for H in shipped_structures(F):
        H.Ht, H.Hs, H.antipode_inverse
        calls.clear()
        assert check_identities(H).ok
        assert calls == []


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
    H, A, C, F = wb.space, wb.alg, wb.coalg, wb.field
    e = [Vector.basis(H, i) for i in range(H.dim)]

    def eps_product(x, y):
        return counit_value(C, A.product(x, y))

    fail_a = fail_b = None
    for i, j, l in itertools.product(range(H.dim), repeat=3):
        full = eps_product(A.product(e[i], e[j]), e[l])
        one = two = F.zero()
        for a, b, c in C.delta_pairs(j):
            one = one + c * (eps_product(e[i], e[a]) * eps_product(e[b], e[l]))
            two = two + c * (eps_product(e[i], e[b]) * eps_product(e[a], e[l]))
        one, two = F.coerce(one), F.coerce(two)
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
    value = H.field.coerce(cols[idx].pop(k, H.field.zero()) + H.field.one())
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
    assert (labelled(rep, "(ii)a"), labelled(rep, "(ii)b")) == reference


def reference_pointwise(A, power, x, y):
    """(a1⊗...⊗ak)(b1⊗...⊗bk) = a1b1⊗...⊗akbk from fresh products and tensors."""
    n = A.space.dim
    out = Vector(x.space, {})
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
@given(fields, st.integers(1, 3), st.data())
def test_pointwise_product_matches_fresh_products(F, dim, data):
    H = draw_structure(data, F, dim)
    space = tensor_product(H.space, H.space)
    x, y = draw_vector(data, space), draw_vector(data, space)
    out = pointwise_product(H.alg, 2, x, y)
    assert out == reference_pointwise(H.alg, 2, x, y)
    assert all(out.terms.values())
    n = space.dim
    if F.characteristic:   # unreduced ints, zeros included, each off by its own multiple of p
        raw = [Vector(space, {i: v.terms.get(i, 0) + F.characteristic * k for i, k in
                              enumerate(data.draw(st.lists(st.integers(0, 3),
                                                           min_size=n, max_size=n)))})
               for v in (x, y)]
    else:   # 1 and Fraction(1) side by side
        raw = [Vector(space, {i: Fraction(c) if flip else c for (i, c), flip in
                              zip(v.terms.items(), data.draw(st.lists(
                                  st.booleans(), min_size=n, max_size=n)))})
               for v in (x, y)]
    assert pointwise_product(H.alg, 2, *raw) == out
    # the product is defined on H⊗H only
    cube = Vector(tensor_product(space, H.space), {})
    with pytest.raises(ShapeMismatch):
        pointwise_product(H.alg, 3, cube, cube)


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(1, 4), st.data())
def test_eps_form_is_counit_of_products(F, dim, data):
    H = draw_structure(data, F, dim)
    form = H.wb.eps_form
    for i in range(dim):
        assert all(form[i].values())
        for j in range(dim):
            prod = H.alg.product(Vector.basis(H.space, i), Vector.basis(H.space, j))
            assert form[i].get(j, F.zero()) == counit_value(H.coalg, prod)


# -- contracted checks against the composite-map formulas -------------------------

def reference_composite_checks(H) -> dict:
    """The checks of ``check_weak_hopf``, ``check_identities`` and ``is_hopf``
    that contract Sweedler legs, evaluated instead by building the composite
    maps on H⊗H and H⊗H⊗H (``LinMap.tensor``, ``swap_map``, componentwise
    products from fresh products) and comparing them whole; label → CheckResult,
    with ``hopf (iii)``/``hopf (iv)`` the two Hopf-detection verdicts."""
    space, A, C, S = H.space, H.alg, H.coalg, H.antipode
    n = space.dim
    HH = tensor_product(space, space)
    ident = LinMap.identity(space)
    mul, comul, counit = A.mul, C.comul, C.counit
    et, es = H.eps_t, H.eps_s
    e = [Vector.basis(space, i) for i in range(n)]
    delta2 = comul.tensor(ident) @ comul
    d1 = C.delta(H.unit)
    swap = swap_map(space, space)
    out = {}

    def add(label, result):
        out[label] = CheckResult(label, result.passed, result.witness, result.skipped)

    add("assoc", compare_maps("", mul @ mul.tensor(ident), mul @ ident.tensor(mul)))
    add("coassoc", compare_maps("", delta2, ident.tensor(comul) @ comul))
    add("(i)", compare_maps("", comul @ mul, LinMap.from_function(HH, HH, lambda idx: (
        reference_pointwise(A, 2, C.delta(e[idx // n]), C.delta(e[idx % n]))))))
    one_delta, delta_one_ = H.unit.tensor(d1), d1.tensor(H.unit)
    delta2_one = delta2.apply(H.unit)
    add("(iii)a", compare_vectors("", reference_pointwise(A, 3, one_delta, delta_one_),
                                  delta2_one))
    add("(iii)b", compare_vectors("", reference_pointwise(A, 3, delta_one_, one_delta),
                                  delta2_one))
    add("S-(i)", compare_maps("", mul @ ident.tensor(S) @ comul, et))
    add("S-(ii)", compare_maps("", mul @ S.tensor(ident) @ comul, es))
    add("S-(iii)", compare_maps("", mul @ mul.tensor(ident) @ S.tensor(ident).tensor(S)
                                @ delta2, S))
    add("S-antimult", compare_maps("", S @ mul, mul @ S.tensor(S) @ swap))
    add("S-anticomult", compare_maps("", comul @ S, swap @ S.tensor(S) @ comul))
    add("Δ(1)=(S⊗S)flip(Δ(1))", compare_vectors("", d1, (swap @ S.tensor(S)).apply(d1)))

    add("Eq 4.2a", compare_maps("", comul, LinMap.from_function(
        space, HH, lambda j: reference_pointwise(A, 2, C.delta(e[j]), d1))))
    add("Eq 4.2b", compare_maps("", comul, LinMap.from_function(
        space, HH, lambda j: reference_pointwise(A, 2, d1, C.delta(e[j])))))
    add("Eq 4.5", compare_maps("", counit @ mul @ ident.tensor(et), counit @ mul))
    add("Eq 4.6", compare_maps("", counit @ mul @ es.tensor(ident), counit @ mul))
    add("Eq 4.8", compare_maps("", et @ mul @ ident.tensor(et), et @ mul))
    add("Eq 4.9", compare_maps("", es @ mul @ es.tensor(ident), es @ mul))

    def d1_sandwich(left, right):   # h ↦ Σ left(1₁, h) ⊗ right(1₂, h)
        return LinMap.from_function(space, HH, lambda j: sum(
            (left(a, j).tensor(right(b, j)).scale(c) for a, b, c in H.wb.delta_one_pairs),
            Vector(HH, {})))

    add("Eq 4.12", compare_maps("", ident.tensor(et) @ comul, d1_sandwich(
        lambda a, j: A.product(e[a], e[j]), lambda b, j: e[b])))
    add("Eq 4.13", compare_maps("", es.tensor(ident) @ comul, d1_sandwich(
        lambda a, j: e[a], lambda b, j: A.product(e[j], e[b]))))

    def eps_of_legs(h, k, leg):     # Σ ε(h₁k)h₂ (leg 0) or Σ k₁ε(hk₂) (leg 1)
        return sum((e[q if leg == 0 else p].scale(
            c * counit_value(C, A.product(e[p], e[k]) if leg == 0 else A.product(e[h], e[q])))
            for p, q, c in C.delta_pairs(h if leg == 0 else k)), Vector(space, {}))

    add("Eq 4.14", compare_maps("", mul @ ident.tensor(et), LinMap.from_function(
        HH, space, lambda idx: eps_of_legs(idx // n, idx % n, 0))))
    add("Eq 4.15", compare_maps("", mul @ es.tensor(ident), LinMap.from_function(
        HH, space, lambda idx: eps_of_legs(idx // n, idx % n, 1))))
    middle = lambda f: ident.tensor(f).tensor(ident)   # noqa: E731
    pairs = [(a, b, c, a2, b2, c2) for a, b, c in H.wb.delta_one_pairs
             for a2, b2, c2 in H.wb.delta_one_pairs]
    add("Eq 4.17", compare_vectors("", middle(et).apply(delta2_one), sum(
        (A.product(e[a], e[a2]).tensor(e[b]).tensor(e[b2]).scale(c * c2)
         for a, b, c, a2, b2, c2 in pairs), Vector(tensor_product(HH, space), {}))))
    add("Eq 4.18", compare_vectors("", middle(es).apply(delta2_one), sum(
        (e[a].tensor(e[a2]).tensor(A.product(e[b], e[b2])).scale(c * c2)
         for a, b, c, a2, b2, c2 in pairs), Vector(tensor_product(HH, space), {}))))
    add("Eq 4.19", compare_maps("", et @ mul @ et.tensor(ident), mul @ et.tensor(et)))
    add("Eq 4.20", compare_maps("", es @ mul @ ident.tensor(es), mul @ es.tensor(es)))

    # ε(S(h)·1₁)1₂ and 1₁ε(1₂·S(h)) through ε∘m∘(S⊗id) and ε∘m∘(id⊗S)
    eps_mul = counit @ mul
    eS, Se = eps_mul @ S.tensor(ident), eps_mul @ ident.tensor(S)

    def d1_functional(leg, scalar):
        return LinMap.from_function(space, space, lambda j: sum(
            (e[(a, b)[leg]].scale(c * scalar(a, b, j)) for a, b, c in H.wb.delta_one_pairs),
            Vector(space, {})))

    zero = H.field.zero()
    add("Eq 4.30", compare_maps("", et, d1_functional(
        1, lambda a, b, j: eS.cols[j * n + a].get(0, zero))))
    add("Eq 4.31", compare_maps("", es, d1_functional(
        0, lambda a, b, j: Se.cols[b * n + j].get(0, zero))))

    def sweedler3(build):           # h ↦ Σ x⊗y over Δ²(h), (x, y) = build(h₁, h₂, h₃)
        return LinMap.from_function(space, HH, lambda j: sum(
            (x.tensor(y).scale(c) for idx, c in delta2.cols[j].items()
             for x, y in (build(e[idx // (n * n)], e[idx // n % n], e[idx % n]),)),
            Vector(HH, {})))

    P = A.product
    add("Eq 4.36", compare_maps("", sweedler3(lambda p, q, r: (p, P(q, H.S(r)))),
                                d1_sandwich(lambda a, j: P(e[a], e[j]), lambda b, j: e[b])))
    add("Eq 4.37", compare_maps("", sweedler3(lambda p, q, r: (P(H.S(p), q), r)),
                                d1_sandwich(lambda a, j: e[a], lambda b, j: P(e[j], e[b]))))
    add("Eq 4.38", compare_maps("", sweedler3(lambda p, q, r: (p, P(H.S(q), r))),
                                d1_sandwich(lambda a, j: P(e[j], e[a]), lambda b, j: H.S(e[b]))))
    add("Eq 4.39", compare_maps("", sweedler3(lambda p, q, r: (P(p, H.S(q)), r)),
                                d1_sandwich(lambda a, j: H.S(e[a]), lambda b, j: P(e[b], e[j]))))
    # 1₁(·)⊗1₂, 1₁⊗(·)1₂, (·)1₁⊗1₂ and 1₁⊗1₂(·) from d1⊗h or h⊗d1 in H⊗H⊗H
    mul_left, mul_right, middle_swap = mul.tensor(ident), ident.tensor(mul), ident.tensor(swap)
    one_h_one = lambda h: (mul_left @ middle_swap).apply(d1.tensor(h))    # noqa: E731
    one_one_h = lambda h: (mul_right @ middle_swap).apply(d1.tensor(h))   # noqa: E731

    def on_basis(label, sub, lhs, rhs):   # lhs(h) = rhs(h) on the basis of Ht or Hs
        add(label, first_failure("", ((v, compare_vectors("", lhs(v), rhs(v)))
                                      for v in sub.basis_vectors), lambda v: f"h={v.describe()}: "))

    on_basis("Eq 4.10", H.Ht, C.delta, one_h_one)
    on_basis("Eq 4.11", H.Hs, C.delta, one_one_h)

    # S(1₁)ε(1₂h) and ε(h1₁)S(1₂), read back from H⊗k and k⊗H into H
    add("Eq 4.32", compare_maps("", et, LinMap.from_function(space, space, lambda j: Vector(
        space, S.tensor(eps_mul).apply(d1.tensor(e[j])).terms))))
    add("Eq 4.33", compare_maps("", es, LinMap.from_function(space, space, lambda j: Vector(
        space, eps_mul.tensor(S).apply(e[j].tensor(d1)).terms))))

    # 4.41  h₂S⁻¹(h₁)⊗h₃ = S(ε_t(h₁))⊗h₂ = 1₁⊗1₂h, and on Ht and Hs
    # 1₁S⁻¹(h)⊗1₂ = 1₁⊗1₂h and 1₁⊗S⁻¹(h)1₂ = h1₁⊗1₂
    one_h = LinMap.from_function(space, HH, lambda j: mul_right.apply(d1.tensor(e[j])))
    add("Eq 4.41b", compare_maps("", (S @ et).tensor(ident) @ comul, one_h))
    Sinv = H.antipode_inverse
    if Sinv is None:
        for label in ("Eq 4.41a", "Eq 4.42", "Eq 4.43"):
            add(label, CheckResult("", False, "antipode not invertible", skipped=True))
    else:
        add("Eq 4.41a", compare_maps("", mul_left @ swap.tensor(ident)
                                     @ Sinv.tensor(ident).tensor(ident) @ delta2, one_h))
        on_basis("Eq 4.42", H.Ht, lambda h: one_h_one(Sinv.apply(h)),
                 lambda h: mul_right.apply(d1.tensor(h)))
        on_basis("Eq 4.43", H.Hs, lambda h: one_one_h(Sinv.apply(h)),
                 lambda h: mul_left.apply(h.tensor(d1)))

    one = H.field.one()
    eps_times_one = LinMap.from_function(space, space,
                                         lambda j: H.unit.scale(C.eps_coeff(j) * one))
    add("hopf (iii)", CheckResult("", (mul @ ident.tensor(S) @ comul) == eps_times_one))
    add("hopf (iv)", CheckResult("", (mul @ S.tensor(ident) @ comul) == eps_times_one))
    return out


@settings(max_examples=300, deadline=None)
@given(fields, st.data())
def test_sweedler_kernel_matches_literal_sums(F, data):
    """``_sweedler`` returns, per sum, Σ c·c′·T₁[x₁]⊗…⊗T_r[x_r] written out with
    ``Vector.tensor``: on random tables with one- and two-leg factors (a leg may
    repeat), functionals and columns in H⊗H, e_x legs, a join in either leg order
    or none, GF(p) coefficients as unreduced ints, and empty sums, including an
    empty ``fixed``."""
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entry = st.sampled_from(ENTRIES[F])
    # 1 (an int or a Fraction over ℚ, unreduced ints ≡ 1 over GF(7)) drawn often, so
    # that the state, partner and ``fixed`` products meet a factor 1 on either side
    coeff = (st.one_of(st.sampled_from([1, 8, -6]), st.integers(-20, 20)) if F.characteristic
             else st.sampled_from(ENTRIES[F] + [1, Fraction(1)]))

    def terms(legs: int) -> list:
        return data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * legs, coeff), max_size=4))

    sums = [terms(k) for _ in range(data.draw(st.integers(0, 3)))]
    kf = data.draw(st.integers(0, 2))   # the legs of a ``fixed`` term, 0 for no ``fixed``
    fixed = terms(kf) if kf else None
    own, others = list(range(k)), list(range(k, k + kf))
    factors, kinds = [], ["one", "two"] + ["join"] * bool(others)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(kinds))
        side = data.draw(st.sampled_from([own] + [others] * bool(others)))
        if kind == "one":
            legs = data.draw(st.sampled_from(side))
        elif kind == "two":
            legs = (data.draw(st.sampled_from(side)), data.draw(st.sampled_from(side)))
        else:   # the join, once: a leg of the sum and a leg of ``fixed`` in either order
            legs = (data.draw(st.sampled_from(own)), data.draw(st.sampled_from(others)))
            legs, kinds = data.draw(st.sampled_from([legs, legs[::-1]])), ["one", "two"]
        dim = data.draw(st.sampled_from([n, 1, n * n]))
        table = None if kind == "one" and dim == n and data.draw(st.booleans()) else [
            {i: c for i in range(dim) if (c := F.coerce(data.draw(entry))) != 0}
            for _ in range(n if kind == "one" else n * n)]
        factors.append((legs, table, dim))

    spaces = [FinVec(F, tuple(f"v{i}" for i in range(dim))) for _, _, dim in factors]
    got = _sweedler(sums, factors, n, F.characteristic, fixed)
    assert len(got) == len(sums)
    for terms_, col in zip(sums, got):
        total = Vector(spaces[0], {})
        for V in spaces[1:]:
            total = total.tensor(Vector(V, {}))
        for t in terms_:
            for f in [((), 1)] if fixed is None else fixed:
                x, vec = t[:-1] + f[:-1], None
                for (legs, table, dim), V in zip(factors, spaces):
                    legs = (legs,) if isinstance(legs, int) else legs
                    i = x[legs[0]] if len(legs) == 1 else x[legs[0]] * n + x[legs[1]]
                    c = Vector.basis(V, i) if table is None else Vector(V, table[i])
                    vec = c if vec is None else vec.tensor(c)
                total = total + vec.scale(F.coerce(t[-1] * f[-1]))
        assert col == total.terms
        assert all(type(c) is int and 0 < c < F.characteristic
                   for c in col.values()) if F.characteristic else all(col.values())


def _mutated(H, data):
    """H with one entry of one structure tensor (or of the antipode) moved by
    a drawn nonzero amount."""
    F, n = H.field, H.space.dim
    part = data.draw(st.sampled_from(["mul", "comul", "unit", "counit", "antipode"]))
    delta = F.coerce(data.draw(st.sampled_from([x for x in ENTRIES[F] if x])))
    if part == "unit":
        i = data.draw(st.integers(0, n - 1))
        unit = Vector.from_coords(H.space, [c + delta if k == i else c
                                            for k, c in enumerate(H.unit.coords)])
        return WeakHopfData(WeakBialgebraData(AlgebraData(H.space, H.alg.mul, unit),
                                              H.coalg), H.antipode)
    f = {"mul": H.alg.mul, "comul": H.coalg.comul, "counit": H.coalg.counit,
         "antipode": H.antipode}[part]
    j = data.draw(st.integers(0, f.domain.dim - 1))
    i = data.draw(st.integers(0, f.codomain.dim - 1))
    rows = [list(r) for r in f.rows]
    rows[i][j] += delta
    g = LinMap.from_rows(f.domain, f.codomain, rows)
    alg = AlgebraData(H.space, g, H.unit) if part == "mul" else H.alg
    coalg = CoalgebraData(H.space, g if part == "comul" else H.coalg.comul,
                          g if part == "counit" else H.coalg.counit)
    return WeakHopfData(WeakBialgebraData(alg, coalg), g if part == "antipode" else H.antipode)


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_contracted_checks_match_composite_maps(F, data):
    """Every contracted check returns the CheckResult of its composite-map
    formula, on random structure constants with a random antipode and on the
    example structures with one entry moved."""
    if data.draw(st.booleans()):
        dim = data.draw(st.integers(1, 3))
        H = draw_structure(data, F, dim)
        H = WeakHopfData(H.wb, draw_map(data, H.space, H.space))
    else:
        H = _mutated(data.draw(st.sampled_from(sorted(EXAMPLES.items())))[1](F), data)
    reference = reference_composite_checks(H)
    results = {r.label: r for r in check_weak_hopf(H).results + check_identities(H).results}
    verdict = is_hopf(H)
    for label, axiom in (("hopf (iii)", "(iii) h₁S(h₂)=ε(h)1"),
                         ("hopf (iv)", "(iv) S(h₁)h₂=ε(h)1")):
        results[label] = CheckResult(label, labelled(verdict, axiom).passed)
    for label, expected in reference.items():
        assert results[label] == expected, label


# Per family, m, u, Δ, ε and S for a dense ℚ structure with one value per table: a
# sum of products over its tables has every term and no cancellation, so each value
# a check prints reaches the height bound of its side in ``modular.SIDES``, and one
# side of the family leads all others, with a ratio above 1 in each of its tables:
# (iii)'s "6 Δ1 Δ1 u m m u m", S-(iii)'s "7 Δ Δ S m S m" and 4.36-4.39's "4 Δ Δ S m".
AT_HEIGHT = {
    "wb": (3, 3, Fraction(3, 2), Fraction(1, 2), Fraction(3, 2)),
    "weak Hopf": (Fraction(3, 2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2), 3),
    "identities": (Fraction(3, 2), Fraction(1, 3), Fraction(3, 2), Fraction(1, 3), 5),
}


# A dense structure on n = 2 whose first candidate M, 2B + 1, is a multiple of 5, a
# prime of the denominators' lcm 105, in every family: 222265 for the axioms and
# 1016065 for the catalogue, so ``modular.image`` steps M up to the next integer prime
# to 105.  Skipping that step leaves 5 without an inverse mod M.
COPRIME_STEP = (Fraction(1, 7), 1, Fraction(3, 5), Fraction(2, 3), Fraction(1, 3))
COPRIME_MODULUS = {"wb": 222266, "weak Hopf": 222266, "identities": 1016066}
BOUND_CASES = ([pytest.param(family, n, AT_HEIGHT[family], None, id=f"{family}-{n}")
                for family in sorted(AT_HEIGHT) for n in (2, 3)]
               + [pytest.param(family, 2, COPRIME_STEP, M, id=f"{family}-coprime-step")
                  for family, M in COPRIME_MODULUS.items()])


@pytest.mark.parametrize("family,n,values,modulus", BOUND_CASES)
def test_values_at_the_height_bound_keep_their_verdicts_and_witnesses(family, n, values,
                                                                      modulus):
    """A height bound one table or one power of n short of the leading side gives an M
    that its value does not fit: the image's report then differs from the one the
    ℚ reference formulas give, in a verdict or in a printed value.  An M that shares a
    prime with a denominator cannot invert it (``COPRIME_STEP``)."""
    V = FinVec(QQ, tuple(f"h{i}" for i in range(n)))
    HH = tensor_product(V, V)

    def dense(dom, cod, value):
        return LinMap(dom, cod, [dict.fromkeys(range(cod.dim), value) for _ in range(dom.dim)])

    m, u, delta, eps, S = values
    H = WeakHopfData(WeakBialgebraData(
        AlgebraData(V, dense(HH, V, m), Vector(V, dict.fromkeys(range(n), u))),
        CoalgebraData(V, dense(V, HH, delta), dense(V, FinVec(QQ, ("k0",)), eps))), dense(V, V, S))
    M = _on_image(H.wb if family == "wb" else H, family).field.characteristic
    assert M and modulus in (None, M)
    report = {"wb": lambda: check_weak_bialgebra(H.wb), "weak Hopf": lambda: check_weak_hopf(H),
              "identities": lambda: check_identities(H)}[family]()
    reference = reference_composite_checks(H)
    compared = [r for r in report.results if r.label in reference]
    assert len(compared) >= 5 and not all(r.passed for r in compared)
    assert [r for r in compared if r != reference[r.label]] == []


# -- GF(p) scalars are reduced ints ---------------------------------------------------

GF_EXAMPLES = {
    "kG(Z/2⊔Z/3)": lambda F: groupoid_algebra(disjoint_union_of_cyclic([2, 3]), F),
    "(kG)* two-object": lambda F: dual_groupoid_algebra(two_object_iso_groupoid(), F),
    "N=4 averaged": lambda F: abelian_group_weak_hopf(FiniteAbelianGroup((4,)), F),
}
# the averaged example needs N invertible, so it has no GF(2) case
GF_CASES = [(name, p) for name in GF_EXAMPLES for p in (2, 3, 7)
            if not (name == "N=4 averaged" and p == 2)]


def stored_entries(x) -> list:
    """Every scalar stored by a map, a vector or a sequence of sparse dicts."""
    cols = x.cols if isinstance(x, LinMap) else (x.terms,) if isinstance(x, Vector) else x
    return [c for col in cols for c in col.values()]


@pytest.mark.parametrize("name,p", GF_CASES)
def test_gf_structures_store_reduced_nonzero_ints(name, p):
    """Over GF(p) every stored entry is an int in [1, p), and every dense row
    that elimination returns holds ints in [0, p): no entry is left unreduced
    for a later comparison to mistake for a different scalar."""
    F = PrimeField(p)
    H = GF_EXAMPLES[name](F)
    act = regular_action(H)
    tri = LinMap.from_rows(H.space, H.space, [
        [1 if i == j else 5 if j == i + 1 else -1 if j == i + 2 else 0 for j in range(H.space.dim)]
        for i in range(H.space.dim)])
    inverses = [H.antipode_inverse, tri.inverse()]
    sparse = [H.alg.mul, H.coalg.comul, H.coalg.counit, H.antipode, H.eps_t, H.eps_s,
              H.unit, H.wb.delta_one, H.coalg.delta2, H.wb.eps_form, act.counit_table,
              *act.slices, *act.product_slices, *inverses, tri.tensor(tri), tri.scale(3),
              tri - tri.scale(2), tri.column(1).tensor(tri.column(2)), tri.column(2).scale(3),
              H.Ht.basis.values(), H.Hs.basis.values()]
    for x in sparse:
        assert all(type(c) is int and 0 < c < p for c in stored_entries(x))
    assert tri.inverse() @ tri == LinMap.identity(H.space)
    dense = [rref(H.alg.mul.rows, F)[0], rref(H.coalg.comul.rows, F)[0],
             *(f.rows for f in inverses), *rref_with_transform(tri.rows, F)[:2]]
    for rows in dense:
        assert all(type(c) is int and 0 <= c < p for row in rows for c in row)


@pytest.mark.parametrize("seed", range(6))
def test_a_rational_change_of_basis_keeps_every_verdict(seed):
    """The averaged example of Z/3 and (kG)* of the two-object groupoid in a
    drawn basis with rational entries: every structure constant may now be
    non-integral, so the checks run on the image in ℤ/M, and every label still
    passes; one antipode entry moved by 1/7 fails in both reports."""
    import random

    rng = random.Random(seed)
    H0 = (abelian_group_weak_hopf(FiniteAbelianGroup((3,)), QQ) if seed % 2
          else dual_groupoid_algebra(two_object_iso_groupoid(), QQ))
    V, n = H0.space, H0.space.dim
    while (P := LinMap.from_rows(V, V, [[rng.choice(ENTRIES[QQ]) for _ in range(n)]
                                        for _ in range(n)])).inverse() is None:
        pass
    Pi = P.inverse()
    wb = WeakBialgebraData(
        AlgebraData(V, Pi @ H0.alg.mul @ P.tensor(P), Pi.apply(H0.alg.unit)),
        CoalgebraData(V, Pi.tensor(Pi) @ H0.coalg.comul @ P, H0.coalg.counit @ P))
    S = Pi @ H0.antipode @ P
    H = WeakHopfData(wb, S)
    assert check_weak_hopf(H).ok and check_identities(H).ok
    cols = [dict(col) for col in S.cols]
    cols[0][0] = cols[0].get(0, 0) + Fraction(1, 7)
    bad = WeakHopfData(wb, LinMap(V, V, [{i: c for i, c in col.items() if c} for col in cols]))
    assert not check_weak_hopf(bad).ok and not check_identities(bad).ok
