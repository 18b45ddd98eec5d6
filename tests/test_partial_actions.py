import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    ENTRIES,
    GF7,
    antipode_twisted_action,
    component_permutation_gpa,
    draw_map,
    draw_structure,
    fields,
    space,
    gpa_examples,
    grouplike_coalgebra,
    isotropy_lambda_action,
    nilpotent_coalgebra,
    partial_two_object_gpa,
    projector_onto_labels,
    regular_action,
    swap_gpa,
    two_object_gpa,
)

from weakhopf import (
    QQ,
    ActionTensor,
    CoalgebraData,
    FiniteAbelianGroup,
    LambdaFunctional,
    LinMap,
    PrimeField,
    Vector,
    abelian_group_weak_hopf,
    check_dual_k_partial_action_criterion,
    check_ht_hs_propositions,
    check_k_partial_action_group_criterion,
    check_lambda_global,
    check_lambda_partial,
    check_module_algebra,
    check_module_coalgebra,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    dual_groupoid_algebra,
    dualize_coalgebra_action,
    dualize_right_coalgebra_action,
    from_kG_action,
    groupoid_algebra,
    induce_partial_action,
    lambda_action,
    tensor_product,
    to_kG_action,
    trivial_groupoid,
    two_object_iso_groupoid,
    validate_groupoid,
    validate_groupoid_partial_action,
)
from weakhopf.errors import (
    FieldMismatch,
    NotDirectSum,
    NotIdempotent,
    NotSubcoalgebra,
    NotSymmetric,
    ShapeMismatch,
)
from weakhopf.report import CheckResult, Report, compare_maps, compare_vectors, first_failure
from weakhopf.structures import _pair_label
from weakhopf.tensor_space import Subspace, _accumulate, left_inverse_on_image, swap_map


# -- global module coalgebras -------------------------------------------------

def test_regular_action_is_module_coalgebra():
    H = groupoid_algebra(two_object_iso_groupoid(), QQ)
    assert check_module_coalgebra(regular_action(H)).ok
    assert check_module_coalgebra(regular_action(H, side="right")).ok


def test_antipode_twisted_action_is_module_coalgebra():
    H = groupoid_algebra(two_object_iso_groupoid(), QQ)
    assert check_module_coalgebra(antipode_twisted_action(H)).ok


def test_zero_action_fails_mc1_with_witness():
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    zero = ActionTensor.from_slices(
        H, H.coalg, "left",
        [LinMap.zero(H.space, H.space) for _ in range(H.space.dim)])
    rep = check_module_coalgebra(zero)
    r = rep.result("MC1")
    assert not r.passed and r.witness


def test_global_actions_pass_partial_checks():
    H = groupoid_algebra(disjoint_union_of_cyclic([2, 3]), QQ)
    v = check_partial_module_coalgebra(regular_action(H))
    assert v.is_partial and v.is_global
    assert v.consistency.passed


# -- the isotropy-indicator partial action -----------------------------------

def test_isotropy_indicator_action_partial_not_global():
    # the carrier is the group algebra of the isotropy group at e1, the
    # action scales by the indicator of {e1}
    G = disjoint_union_of_cyclic([2, 3])
    Ce = groupoid_algebra(cyclic_group_groupoid(2), QQ).coalg
    act, lam = isotropy_lambda_action(G, QQ, "g1.e", carrier=Ce)
    v = check_partial_module_coalgebra(act)
    assert v.is_partial and v.is_symmetric
    assert not v.is_global
    assert v.consistency.passed
    assert not check_module_coalgebra(act).ok


def test_isotropy_indicator_action_on_isolated_identity_is_global():
    # when nothing but e itself has source e, the same λ is global
    G = trivial_groupoid(2)
    act, _ = isotropy_lambda_action(G, QQ, "e1")
    assert check_partial_module_coalgebra(act).is_global
    assert check_module_coalgebra(act).ok


def test_ht_hs_propositions_on_examples():
    G = disjoint_union_of_cyclic([2, 3])
    act, _ = isotropy_lambda_action(G, QQ, "g1.e")
    assert check_ht_hs_propositions(act).ok
    H = groupoid_algebra(G, QQ)
    assert check_ht_hs_propositions(regular_action(H)).ok


def test_full_target_algebra_forces_globality():
    # when ε_s is the identity, the globality criterion is vacuous, so every
    # partial action is global; λ ≡ 1 gives a global action
    H = abelian_group_weak_hopf(FiniteAbelianGroup((3,)), QQ)
    lam = LambdaFunctional.from_values(H, [1, 1, 1])
    assert check_lambda_global(lam).ok
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c0", "c1"]))
    assert check_module_coalgebra(act).ok
    v = check_partial_module_coalgebra(act)
    assert v.is_partial and v.is_global


# -- λ characterisations ------------------------------------------------------

def test_lambda_indicator_of_isotropy_group_is_partial():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, [g for g in G.elements if g.startswith("g1.")])
    v = check_lambda_partial(lam)
    assert v.ok and v.is_symmetric


def test_lambda_counit_fails_when_several_objects():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    eps_values = [H.coalg.eps_coeff(i) for i in range(H.space.dim)]
    lam = LambdaFunctional.from_values(H, eps_values)
    v = check_lambda_partial(lam)
    # λ(1_H) = |G₀| = 2 ≠ 1
    assert not v.ok
    assert not v.report.result("(i)").passed


def test_lambda_subgroup_of_component_is_partial():
    # V = the rotation subgroup {e, a, a2} inside the Z/3 component? use a
    # proper subgroup of Z/4 instead to make V ≠ G_j meaningful
    G = disjoint_union_of_cyclic([4, 2])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["g1.e", "g1.a2"])   # index-2 subgroup
    assert check_lambda_partial(lam).ok


def test_lambda_non_closed_subset_fails():
    G = disjoint_union_of_cyclic([4, 2])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["g1.e", "g1.a"])    # a⁻¹ = a3 missing
    v = check_lambda_partial(lam)
    assert not v.ok


def test_lambda_unit_needs_exactly_one_identity():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    both = LambdaFunctional.indicator(H, ["g1.e", "g2.e"])
    assert not check_lambda_partial(both).ok
    none = LambdaFunctional.indicator(H, ["g1.a"])
    assert not check_lambda_partial(none).ok


@pytest.mark.parametrize("seed", [3, 11])
def test_lambda_checker_agrees_with_full_pmc_checker(seed):
    """Cross-validation: λ-condition verdicts must equal running the full
    PMC/MC machinery on the induced scaling action, for every test coalgebra."""
    G = disjoint_union_of_cyclic([2, 2])
    H = groupoid_algebra(G, QQ)
    rng = random.Random(seed)
    carriers = [grouplike_coalgebra(QQ, ["c0", "c1"]), nilpotent_coalgebra(QQ)]
    for _ in range(12):
        labels = [g for g in G.elements if rng.random() < 0.5]
        lam = LambdaFunctional.indicator(H, labels)
        lv = check_lambda_partial(lam)
        gv = check_lambda_global(lam)
        for C in carriers:
            act = lambda_action(lam, C)
            pv = check_partial_module_coalgebra(act)
            assert pv.is_partial == lv.ok
            if pv.is_partial:
                assert pv.is_symmetric == lv.is_symmetric
            assert check_module_coalgebra(act).ok == gv.ok


def test_group_criterion_examples():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    # V = G_e: a group, and λ its indicator → partial
    v = check_k_partial_action_group_criterion(
        LambdaFunctional.indicator(H, ["g1.e", "g1.a"]), G)
    assert v.V == ("g1.e", "g1.a") and v.v_is_group and v.partial and v.agrees
    # λ ≡ 1 with two objects: not a partial action, V spans two identities
    v2 = check_k_partial_action_group_criterion(
        LambdaFunctional.from_values(H, [1] * H.space.dim), G)
    assert not v2.partial and not v2.v_is_group and v2.agrees
    # indicator of a single identity
    v3 = check_k_partial_action_group_criterion(
        LambdaFunctional.indicator(H, ["g1.e"]), G)
    assert v3.V == ("g1.e",) and v3.criterion and v3.partial and v3.agrees


def test_group_criterion_detects_support_mismatch():
    # λ = indicator of {e2, g} with d(g) = e1 ∉ supp: V = {e2} is a group but
    # λ ≠ 1_V, and indeed the action is not partial
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["f", "g"])
    v = check_k_partial_action_group_criterion(lam, G)
    assert v.v_is_group and not v.values_match
    assert not v.partial and v.agrees


def test_dual_criterion_examples():
    G = cyclic_group_groupoid(2)
    Hd = dual_groupoid_algebra(G, QQ)
    v = check_dual_k_partial_action_criterion(
        LambdaFunctional.from_values(Hd, [Fraction(1, 2), Fraction(1, 2)]), G)
    assert v.criterion and v.partial and v.agrees
    Hd2 = dual_groupoid_algebra(G, PrimeField(2))
    v2 = check_dual_k_partial_action_criterion(
        LambdaFunctional.from_values(Hd2, [1, 1]), G)
    assert not v2.char_ok and not v2.partial and v2.agrees
    v3 = check_dual_k_partial_action_criterion(
        LambdaFunctional.indicator(Hd, ["p_e"]), G)
    assert v3.criterion and v3.partial and v3.agrees
    # λ(p_a) ≠ 0 = λ(p_{a⁻¹}) on Z/3: a stays out of V, and λ ≠ 1_V
    G3 = cyclic_group_groupoid(3)
    v4 = check_dual_k_partial_action_criterion(
        LambdaFunctional.indicator(dual_groupoid_algebra(G3, QQ), ["p_e", "p_a"]), G3)
    assert v4.V == ("e",) and v4.v_is_group and not v4.values_match
    assert not v4.partial and v4.agrees


# -- induced partial actions --------------------------------------------------

def test_induced_action_from_regular_representation():
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    glob = regular_action(H)
    proj = projector_onto_labels(H.space, ["e"])
    res = induce_partial_action(glob, proj)
    assert res.ok and res.symmetric.passed
    v = check_partial_module_coalgebra(res.action)
    assert v.is_partial and v.is_symmetric and not v.is_global


def test_induced_action_from_twisted_representation_not_global():
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    glob = antipode_twisted_action(H)
    proj = projector_onto_labels(H.space, ["a"])
    res = induce_partial_action(glob, proj)
    assert res.ok
    v = check_partial_module_coalgebra(res.action)
    assert v.is_partial and not v.is_global
    # the globality gap is witnessed at h = δ_a acting on the image of δ_a
    assert "a" in v.globality.witness


def test_identity_projection_reproduces_global_action():
    H = groupoid_algebra(two_object_iso_groupoid(), QQ)
    glob = regular_action(H)
    res = induce_partial_action(glob, LinMap.identity(H.space))
    assert res.ok
    assert check_module_coalgebra(res.action).ok
    assert res.action.action.rows == glob.action.rows


def test_induce_rejects_non_idempotent_projection():
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    with pytest.raises(NotIdempotent):
        induce_partial_action(regular_action(H), LinMap.identity(H.space).scale(2))


def test_induce_rejects_non_subcoalgebra_image():
    H = abelian_group_weak_hopf(FiniteAbelianGroup((2,)), QQ)
    glob = regular_action(H)   # Δ(1) has rank 2, so <1> is not a subcoalgebra
    proj = projector_onto_labels(H.space, ["0"])
    with pytest.raises(NotSubcoalgebra):
        induce_partial_action(glob, proj)


def _reference_induced_report(glob, proj):
    """Conditions (i), (ii) and "symmetric" of an induced action by the
    per-vector formulas in C coordinates: for each h, k and basis vector d of
    D, (π⊗π)Δ(h▷d) = Δ(π(h▷d)) and π(h·π(k·d)) = π(hk₁·d₁)ε(π(k₂·d₂)), resp.
    ε(π(k₁·d₁))π(hk₂·d₂).  Returns the report's JSON and the symmetric line."""
    C, H = glob.carrier, glob.hopf
    d_vectors = Subspace.from_vectors(C.space, proj.columns()).basis_vectors
    rep = Report("induced partial action conditions")
    n, m, p = H.space.dim, C.space.dim, C.field.characteristic
    pp = proj.tensor(proj)
    rep.add(first_failure("(i)", (
        ((i, d), compare_vectors("", pp.apply(C.delta(moved)), C.delta(proj.apply(moved))))
        for i in range(n) for d in d_vectors for moved in (glob.slices[i].apply(d),)),
        lambda c: f"h={H.space.labels[c[0]]}, d={c[1].describe()}; "))
    eps_pi = [{b: col[0] for b, col in enumerate((C.counit @ proj @ s).cols) if col}
              for s in glob.slices]
    pi_prod = [(proj @ s).cols for s in glob.product_slices]
    pi_sl = [proj @ s for s in glob.slices]

    def condition_two(label, symmetric):
        eps_leg = 0 if symmetric else 1

        def rhs(i, j, d):
            dpairs = [(flat // m, flat % m, c) for flat, c in C.delta(d).terms.items()]
            return _accumulate((
                (pi_prod[i * n + hp[1 - eps_leg]][dp[1 - eps_leg]], dp[2] * hp[2] * s)
                for dp in dpairs for hp in H.coalg.delta_pairs(j)
                if (s := eps_pi[hp[eps_leg]].get(dp[eps_leg]))), p)

        return first_failure(label, (
            ((i, j, d), compare_vectors("", pi_sl[i].apply(pi_sl[j].apply(d)),
                                        Vector(C.space, rhs(i, j, d))))
            for i in range(n) for j in range(n) for d in d_vectors),
            lambda c: f"{_pair_label(H.space, c[0], c[1])}, d={c[2].describe()}; ")

    rep.add(condition_two("(ii)", symmetric=False))
    return rep.to_json(), condition_two("symmetric", symmetric=True).line()


def _s3_groupoid():
    """S_3 as a one-object groupoid: on (kS_3)*, Δ is not cocommutative and has
    the sign character as a grouplike, so the witnesses of (ii) and
    "symmetric" can differ."""
    perms = list(itertools.permutations(range(3)))
    name = {q: "s" + "".join(map(str, q)) for q in perms}
    return validate_groupoid(
        list(name.values()),
        {(name[a], name[b]): name[tuple(a[b[i]] for i in range(3))] for a in perms for b in perms},
        {name[a]: name[tuple(a.index(i) for i in range(3))] for a in perms})


INDUCING_GROUPOIDS = [cyclic_group_groupoid(2), cyclic_group_groupoid(3),
                      disjoint_union_of_cyclic([1, 2]), two_object_iso_groupoid(),
                      _s3_groupoid()]


@cache
def _inducing_actions(F):
    """The regular and antipode-twisted actions of kG and (kG)* on themselves
    that are global module coalgebras (the twisted one needs Δ cocommutative)."""
    out = []
    for G, build in itertools.product(INDUCING_GROUPOIDS, (groupoid_algebra,
                                                          dual_groupoid_algebra)):
        H = build(G, F)
        out += [act for act in (regular_action(H), antipode_twisted_action(H))
                if check_module_coalgebra(act).ok]
    return out


@cache
def _coordinate_subcoalgebras(C):
    """The nonempty sets of basis indices whose span is a subcoalgebra."""
    m = C.space.dim
    return [K for r in range(1, m + 1) for K in itertools.combinations(range(m), r)
            if all(a in K and b in K for k in K for a, b, _ in C.delta_pairs(k))]


@cache
def _small_grouplikes(C):
    """The grouplikes of C with every coordinate in {0, ±1}, and for dim C ≤ 4
    also in {±2, ±4}: over GF(7) these reach the characters of Z/3."""
    small = (0, 1, -1) + ((2, -2, 4, -4) if C.space.dim <= 4 else ())
    values = sorted({C.field.coerce(x) for x in small}, key=str)
    return [v for coords in itertools.product(values, repeat=C.space.dim)
            if not (v := Vector.from_coords(C.space, coords)).is_zero
            and C.delta(v) == v.tensor(v)]


def _drawn_projection(data, C):
    """A coordinate projector onto a subcoalgebra, or a projector onto the
    span of drawn grouplikes v_1..v_r (a subcoalgebra) whose kernel is
    drawn too: π = V∘(L + F - F∘V∘L) for V: k^r → C the inclusion, L a left
    inverse of V and F drawn, so that (L + F - F∘V∘L)∘V = id.  With r = 1 this
    is π = v·f, f(v) = 1.  (kG)* of two_object_iso has no grouplike."""
    grouplikes = _small_grouplikes(C)
    if not grouplikes or data.draw(st.booleans()):
        K = data.draw(st.sampled_from(_coordinate_subcoalgebras(C)))
        return projector_onto_labels(C.space, [C.space.labels[k] for k in K])
    chosen = sorted(data.draw(st.sets(st.sampled_from(range(len(grouplikes))), min_size=1)))
    V = LinMap.from_images(space(C.field, len(chosen), "r"), C.space,
                           [grouplikes[i] for i in chosen])
    L, F = left_inverse_on_image(V), draw_map(data, C.space, V.domain)
    return V @ (L + F - F @ V @ L)


@settings(max_examples=200, deadline=None)
@given(fields, st.data())
def test_induced_report_matches_the_per_vector_formulas(F, data):
    """The report (labels, verdicts and witnesses) and the symmetric line of
    ``induce_partial_action`` are those of the per-vector formulas in C
    coordinates, on passing and failing projections."""
    # half the draws from carriers whose Δ is not cocommutative, where the
    # witnesses of (ii) and "symmetric" can differ
    cocommutative = data.draw(st.booleans())
    glob = data.draw(st.sampled_from([act for act in _inducing_actions(F) if cocommutative == (
        swap_map(act.space, act.space) @ act.carrier.comul == act.carrier.comul)]))
    proj = _drawn_projection(data, glob.carrier)
    res = induce_partial_action(glob, proj)
    assert (res.report.to_json(), res.symmetric.line()) == _reference_induced_report(glob, proj)


# -- groupoid partial actions -------------------------------------------------

@pytest.mark.parametrize("name,gpa", gpa_examples(QQ))
def test_gpa_examples_validate(name, gpa):
    rep = validate_groupoid_partial_action(gpa)
    assert rep.ok, (name, rep.failures)


@pytest.mark.parametrize("name,gpa", gpa_examples(QQ))
def test_equivalence_round_trip(name, gpa):
    act = to_kG_action(gpa)
    v = check_partial_module_coalgebra(act)
    assert v.is_partial and v.is_symmetric
    back = from_kG_action(act, gpa.groupoid)
    assert gpa.same_maps(back)
    assert to_kG_action(back).action == act.action


def test_group_case_recovers_global_action():
    gpa = swap_gpa(QQ)
    act = to_kG_action(gpa)
    assert check_module_coalgebra(act).ok


def test_corrupted_theta_fails_with_witness():
    gpa = two_object_gpa(QQ)
    bad = type(gpa)(gpa.groupoid, gpa.coalgebra, dict(gpa.projections),
                    {**gpa.isos, "g": gpa.theta("g").scale(2)})
    rep = validate_groupoid_partial_action(bad)
    assert not rep.ok
    assert not rep.result("Eq 3").passed
    assert rep.result("Eq 3").witness


def test_to_kG_requires_direct_sum():
    gpa = two_object_gpa(QQ)
    bad = type(gpa)(gpa.groupoid, gpa.coalgebra,
                    {**gpa.projections, "f": gpa.P("e")},
                    dict(gpa.isos))
    with pytest.raises(NotDirectSum):
        to_kG_action(bad)


def test_from_kG_requires_symmetric_partial_action():
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    zero = ActionTensor.from_slices(
        H, H.coalg, "left",
        [LinMap.zero(H.space, H.space) for _ in range(H.space.dim)])
    with pytest.raises(NotSymmetric):
        from_kG_action(zero, cyclic_group_groupoid(2))


def test_from_kG_of_lambda_action_has_indicator_projections():
    G = disjoint_union_of_cyclic([2, 2])
    C = grouplike_coalgebra(QQ, ["c0", "c1"])
    act, _ = isotropy_lambda_action(G, QQ, "g1.e", carrier=C)
    gpa = from_kG_action(act, G)
    ident = LinMap.identity(C.space)
    zero = LinMap.zero(C.space, C.space)
    # P_g = λ(g⁻¹)λ(r(g))·id, and λ is the indicator of the identity g1.e
    for g in G.elements:
        expected = ident if g == "g1.e" else zero
        assert gpa.P(g) == expected


# -- module algebra checks ----------------------------------------------------

def test_global_lambda_action_on_algebra_carrier():
    # multiplication does NOT make H a module algebra over itself (MA2 and
    # MA4 fail already for groupoid algebras); a multiplicative λ does
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, [g for g in G.elements if g.startswith("g1.")])
    assert check_lambda_global(lam).ok
    A = groupoid_algebra(cyclic_group_groupoid(2), QQ).alg
    ident = LinMap.identity(A.space)
    act = ActionTensor.from_slices(H, A, "left",
                                   [ident.scale(v) for v in lam.values])
    assert check_module_algebra(act).ok


def test_multiplication_action_on_algebra_carrier_is_not_module_algebra():
    H = groupoid_algebra(two_object_iso_groupoid(), QQ)
    slices = [H.alg.lmul(Vector.basis(H.space, i)) for i in range(H.space.dim)]
    act = ActionTensor.from_slices(H, H.alg, "left", slices)
    rep = check_module_algebra(act)
    assert not rep.result("MA4").passed


def test_dualized_partial_coalgebra_action_is_partial_module_algebra():
    G = disjoint_union_of_cyclic([2, 3])
    Ce = groupoid_algebra(cyclic_group_groupoid(2), QQ).coalg
    act, _ = isotropy_lambda_action(G, QQ, "g1.e", carrier=Ce)
    dual = dualize_coalgebra_action(act)
    v = check_partial_module_algebra(dual)
    assert v.is_partial and v.is_symmetric


def test_zero_action_fails_pma1():
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    zero = ActionTensor.from_slices(
        H, H.alg, "left",
        [LinMap.zero(H.space, H.space) for _ in range(H.space.dim)])
    v = check_partial_module_algebra(zero)
    assert not v.report.result("PMA1").passed


def _counting(monkeypatch, name):
    """Replace the checker ``name`` of weakhopf.actions by a wrapper that
    records the label of each call."""
    import weakhopf.actions

    fn, labels = getattr(weakhopf.actions, name), []

    def counted(act, label):
        labels.append(label)
        return fn(act, label)

    monkeypatch.setattr(weakhopf.actions, name, counted)
    return labels


@pytest.mark.parametrize("global_", [False, True])
def test_pmc_cross_check_reuses_pmc2(monkeypatch, global_):
    G = disjoint_union_of_cyclic([2, 3])
    act = regular_action(groupoid_algebra(G, QQ)) if global_ else \
        isotropy_lambda_action(G, QQ, "g1.e")[0]
    labels = _counting(monkeypatch, "_mc2_check")
    v = check_partial_module_coalgebra(act)
    assert labels == ["PMC2"]
    assert v.is_partial and v.is_global == global_ and v.consistency.passed


def test_pma_global_check_reuses_pma2(monkeypatch):
    act, _ = isotropy_lambda_action(disjoint_union_of_cyclic([2, 3]), QQ, "g1.e",
                                    carrier=groupoid_algebra(cyclic_group_groupoid(2), QQ).coalg)
    dual = dualize_coalgebra_action(act)
    labels = _counting(monkeypatch, "_ma2_check")
    v = check_partial_module_algebra(dual)
    assert labels == ["PMA2"] and v.globality.label == "global-MA"


# -- cached product slices ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(fields, st.integers(1, 3), st.integers(1, 3), st.sampled_from(["left", "right"]),
       st.data())
def test_product_slices_act_by_basis_products(F, n, m, side, data):
    H = draw_structure(data, F, n)
    C = grouplike_coalgebra(F, [f"c{i}" for i in range(m)])
    slices = [draw_map(data, C.space, C.space) for _ in range(n)]
    act = ActionTensor.from_slices(H, C, side, slices)
    for i in range(n):
        for j in range(n):
            prod = H.alg.product(Vector.basis(H.space, i), Vector.basis(H.space, j))
            expected = LinMap.zero(C.space, C.space)
            for k, c in prod.nonzeros():
                expected = expected + slices[k].scale(c)
            assert act.product_slices[i * n + j] == expected == act.act_by(prod)


# -- per-action tables: the counit table, Sweedler terms -------------------------------

def _sweedler(D, i):
    """Sweedler terms of Δ(e_i), read off the comultiplication column."""
    m = D.space.dim
    return [(idx // m, idx % m, c) for idx, c in D.comul.column(i).nonzeros()]


def draw_coalgebra_action(data, F, n, m, side):
    """Random structure constants for H, a coalgebra C and an action of H on
    C (no axiom holds in general)."""
    H = draw_structure(data, F, n)
    X = space(F, m, "c")
    C = CoalgebraData(X, draw_map(data, X, tensor_product(X, X)),
                      draw_map(data, X, space(F, 1, "k")))
    return ActionTensor.from_slices(H, C, side, [draw_map(data, X, X) for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(1, 3), st.integers(1, 3), st.sampled_from(["left", "right"]),
       st.data())
def test_action_tables_match_fresh_computation(F, n, m, side, data):
    act = draw_coalgebra_action(data, F, n, m, side)
    C, slices = act.carrier, act.slices
    for b in range(m):
        assert C.delta_pairs(b) == tuple(_sweedler(C, b))
    for q in range(n):
        assert all(act.counit_table[q].values())
        for b in range(m):
            assert act.counit_table[q].get(b, F.zero()) == C.eps(slices[q].column(b))


def test_pmc_keeps_no_per_pair_table():
    H = groupoid_algebra(disjoint_union_of_cyclic([4, 4]), QQ)
    act, n = regular_action(H), H.space.dim
    assert check_partial_module_coalgebra(act).is_global
    assert len({id(f) for f in act.product_slices}) <= n + 1
    per_pair = [k for k, v in vars(act).items() if isinstance(v, tuple) and len(v) >= n * n]
    assert per_pair == ["product_slices"]
    assert check_partial_module_coalgebra(act) is check_partial_module_coalgebra(act)


@pytest.mark.parametrize("side", ["left", "right"])
def test_action_rejects_a_carrier_over_another_field(side):
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    C = grouplike_coalgebra(GF7, ["c0", "c1"])
    slices = [LinMap.identity(C.space)] * H.space.dim
    with pytest.raises(FieldMismatch):
        ActionTensor.from_slices(H, C, side, slices)
    gf_act = ActionTensor.from_slices(groupoid_algebra(cyclic_group_groupoid(2), GF7),
                                      C, side, slices)
    with pytest.raises(FieldMismatch):
        ActionTensor.from_tensor(H, C, side, gf_act.action)


@pytest.mark.parametrize("side", ["left", "right"])
def test_action_rejects_slices_that_are_not_carrier_endomorphisms(side):
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    C = grouplike_coalgebra(QQ, ["c0", "c1", "c2"])
    X, ident = C.space, LinMap.identity(C.space)
    wider = grouplike_coalgebra(QQ, ["c0", "c1", "c2", "c3"]).space
    for slices in ([ident],                                      # one slice for dim H = 2
                   [ident] * 3,
                   [ident, LinMap(wider, X, [{0: 1}] * 4)],      # 4 columns on a 3-dim carrier
                   [ident, LinMap(X, wider, [{0: 1}] * 3)],
                   [ident, LinMap.identity(space(QQ, 3, "x"))]):
        with pytest.raises(ShapeMismatch):
            ActionTensor(H, C, side, slices)
    with pytest.raises(FieldMismatch):
        ActionTensor(H, grouplike_coalgebra(GF7, ["c0"]), side,
                     [LinMap.identity(space(GF7, 1, "c"))] * 2)


@pytest.mark.parametrize("F", [QQ, GF7])
@pytest.mark.parametrize("side", ["left", "right"])
def test_from_tensor_cuts_the_tensor_back_into_its_slices(F, side):
    G = disjoint_union_of_cyclic([1, 2])
    for H in (groupoid_algebra(G, F), dual_groupoid_algebra(G, F)):
        lam = LambdaFunctional.indicator(H, [H.space.labels[0]])
        for act in (regular_action(H, side), lambda_action(lam, H.coalg, side),
                    lambda_action(lam, grouplike_coalgebra(F, ["c0", "c1"]), side)):
            assert ActionTensor.from_tensor(H, act.carrier, side, act.action).slices == act.slices
            X = act.space
            wider = space(F, X.dim + 1, "w")
            for dom, cod in ((tensor_product(H.space, wider), X),
                             (tensor_product(wider, H.space), X), (act.action.domain, wider)):
                with pytest.raises(ShapeMismatch):
                    ActionTensor.from_tensor(H, act.carrier, side, LinMap.zero(dom, cod))


def reference_pair_scan(act, label, rhs):
    """(passed, witness) of one check h_i·(h_j·–) = rhs(i, j) (resp.
    (–↼h_i)↼h_j) scanned on its own, the composite built afresh per pair."""
    H, s = act.hopf.space, act.slices
    for i in range(H.dim):
        for j in range(H.dim):
            r = compare_maps(label, s[i] @ s[j] if act.side == "left" else s[j] @ s[i], rhs(i, j))
            if not r.passed:
                return False, f"h={H.labels[i]}, k={H.labels[j]}; {r.witness}"
    return True, None


def _moved(act, a, b):
    """Acting by the product e_a·e_b."""
    H = act.hopf
    return act.act_by(H.alg.product(Vector.basis(H.space, a), Vector.basis(H.space, b)))


def reference_pmc3(act, label, symmetric):
    """(passed, witness) of PMC3 or its symmetric variant, evaluated literally
    from the formulas in the module docstring."""
    H, C = act.hopf, act.carrier
    left = act.side == "left"

    def rhs(i, j):
        def image(c):
            out = Vector.zero(C.space)
            for c1, c2, cc in _sweedler(C, c):
                for h1, h2, ch in _sweedler(H.coalg, j if left else i):
                    if left and not symmetric:      # (h k₁·c₁) ε(k₂·c₂)
                        eps, v = C.eps(act.slices[h2].column(c2)), _moved(act, i, h1).column(c1)
                    elif left:                      # ε(k₁·c₁) (h k₂·c₂)
                        eps, v = C.eps(act.slices[h1].column(c1)), _moved(act, i, h2).column(c2)
                    elif not symmetric:             # ε(c₁↼h₁) (c₂↼h₂k)
                        eps, v = C.eps(act.slices[h1].column(c1)), _moved(act, h2, j).column(c2)
                    else:                           # (c₁↼h₁k) ε(c₂↼h₂)
                        eps, v = C.eps(act.slices[h2].column(c2)), _moved(act, h1, j).column(c1)
                    out = out + v.scale(cc * ch * eps)
            return out
        return LinMap.from_function(C.space, C.space, image)

    return reference_pair_scan(act, label, rhs)


def reference_pma3(act, label, symmetric):
    """(passed, witness) of PMA3 or its symmetric variant, evaluated literally:
    left (h₁·1)(h₂k·a), sym (h₁k·a)(h₂·1); right (a↼hk₁)(1↼k₂), sym (1↼k₁)(a↼hk₂)."""
    H, A = act.hopf, act.carrier
    left = act.side == "left"

    def rhs(i, j):
        def image(a):
            a, out = Vector.basis(A.space, a), Vector.zero(A.space)
            for p, q, c in _sweedler(H.coalg, i if left else j):
                unit_first = left != symmetric     # the unit leg is p, else q
                u, x = (p, q) if unit_first else (q, p)
                unit = act.slices[u].apply(A.unit)
                moved = (_moved(act, x, j) if left else _moved(act, i, x)).apply(a)
                out = out + (A.product(unit, moved) if unit_first
                             else A.product(moved, unit)).scale(c)
            return out
        return LinMap.from_function(A.space, A.space, image)

    return reference_pair_scan(act, label, rhs)


def corrupted_regular_action(data, F, side):
    """The regular action of kG or (kG)* of a small groupoid with one entry of
    its action tensor redrawn, so that its checks fail at varying pairs."""
    G = data.draw(st.sampled_from([cyclic_group_groupoid(2), disjoint_union_of_cyclic([1, 2]),
                                   two_object_iso_groupoid()]))
    H = data.draw(st.sampled_from([groupoid_algebra, dual_groupoid_algebra]))(G, F)
    act = regular_action(H, side)
    cols = [dict(col) for col in act.action.cols]
    col = cols[data.draw(st.integers(0, len(cols) - 1))]
    i, v = data.draw(st.integers(0, act.space.dim - 1)), F.coerce(data.draw(st.sampled_from(ENTRIES[F])))
    col.pop(i, None)
    if v:
        col[i] = v
    return ActionTensor.from_tensor(H, act.carrier, side,
                                    LinMap(act.action.domain, act.space, cols))


@settings(max_examples=40, deadline=None)
@given(fields, st.sampled_from(["left", "right"]), st.data())
def test_pair_checks_match_per_check_scans(F, side, data):
    act = corrupted_regular_action(data, F, side)

    def strict(a):
        return lambda i, j: _moved(a, i, j)

    verdict = check_partial_module_coalgebra(act)
    for result, expected in (
            (verdict.report.result("PMC3"), reference_pmc3(act, "PMC3", False)),
            (verdict.symmetric, reference_pmc3(act, "symmetric", True)),
            (check_module_coalgebra(act).result("MC3"),
             reference_pair_scan(act, "MC3", strict(act)))):
        assert (result.passed, result.witness) == expected
    dual = (dualize_coalgebra_action if side == "left"
            else dualize_right_coalgebra_action)(act, check=False)
    verdict = check_partial_module_algebra(dual)
    for result, expected in (
            (verdict.report.result("PMA3"), reference_pma3(dual, "PMA3", False)),
            (verdict.symmetric, reference_pma3(dual, "symmetric", True)),
            (check_module_algebra(dual).result("MA3"),
             reference_pair_scan(dual, "MA3", strict(dual)))):
        assert (result.passed, result.witness) == expected


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(1, 3), st.integers(1, 3), st.sampled_from(["left", "right"]),
       st.data())
def test_pmc3_matches_its_formula(F, n, m, side, data):
    act = draw_coalgebra_action(data, F, n, m, side)
    verdict = check_partial_module_coalgebra(act)
    pmc3 = verdict.report.result("PMC3")
    assert (pmc3.passed, pmc3.witness) == reference_pmc3(act, "PMC3", False)
    sym = verdict.symmetric
    assert (sym.passed, sym.witness) == reference_pmc3(act, "symmetric", True)


@pytest.mark.parametrize("F", [QQ, GF7])
def test_zero_product_pairs_still_compare_the_left_side(F):
    """With g2.e·g2.e moved to g1.e, g1.e·(g2.e·c) ≠ 0 although g1.e·g2.e = 0:
    every pair check fails at that pair, with the witness of a literal scan."""
    H = groupoid_algebra(disjoint_union_of_cyclic([2, 3]), F)
    act = regular_action(H)
    e1, e2 = H.space.index("g1.e"), H.space.index("g2.e")
    assert not H.alg.mul.cols[e1 * H.space.dim + e2]
    cols = [dict(col) for col in act.slices[e2].cols]
    cols[e2][e1] = cols[e2].pop(e2)
    slices = list(act.slices)
    slices[e2] = LinMap(act.space, act.space, cols)
    act = ActionTensor.from_slices(H, act.carrier, "left", slices)
    dual = dualize_coalgebra_action(act, check=False)
    verdict, dual_verdict = check_partial_module_coalgebra(act), check_partial_module_algebra(dual)
    for result, expected in (
            (verdict.report.result("PMC3"), reference_pmc3(act, "PMC3", False)),
            (verdict.symmetric, reference_pmc3(act, "symmetric", True)),
            (check_module_coalgebra(act).result("MC3"),
             reference_pair_scan(act, "MC3", lambda i, j: _moved(act, i, j))),
            (dual_verdict.report.result("PMA3"), reference_pma3(dual, "PMA3", False)),
            (check_module_algebra(dual).result("MA3"),
             reference_pair_scan(dual, "MA3", lambda i, j: _moved(dual, i, j)))):
        assert (result.passed, result.witness) == expected
        assert result.witness.startswith("h=g1.e, k=g2.e; ")


def reference_ma2(act, label):
    """(passed, witness) of h▷(ab) = (h₁▷a)(h₂▷b) (resp. (ab)↼h = (a↼h₁)(b↼h₂)),
    evaluated literally over every (h_i, a, b) in order."""
    H, A = act.hopf, act.carrier
    for i in range(H.space.dim):
        for a in range(A.space.dim):
            for b in range(A.space.dim):
                ea, eb = Vector.basis(A.space, a), Vector.basis(A.space, b)
                rhs = Vector.zero(A.space)
                for x, y, c in _sweedler(H.coalg, i):
                    rhs = rhs + A.product(act.slices[x].apply(ea), act.slices[y].apply(eb)).scale(c)
                r = compare_vectors(label, act.slices[i].apply(A.product(ea, eb)), rhs)
                if not r.passed:
                    return False, (f"h={H.space.labels[i]}, a={A.space.labels[a]}, "
                                   f"b={A.space.labels[b]}; {r.witness}")
    return True, None


@settings(max_examples=40, deadline=None)
@given(fields, st.sampled_from(["left", "right"]), st.data())
def test_ma2_matches_a_literal_scan(F, side, data):
    act = corrupted_regular_action(data, F, side)
    dual = (dualize_coalgebra_action if side == "left"
            else dualize_right_coalgebra_action)(act, check=False)
    assume(any(not col for s in dual.slices for col in s.cols))
    expected = reference_ma2(dual, "MA2")
    ma2 = check_module_algebra(dual).result("MA2")
    pma2 = check_partial_module_algebra(dual).report.result("PMA2")
    assert (ma2.passed, ma2.witness) == (pma2.passed, pma2.witness) == expected


def reference_validate(gpa):
    """(label, passed, witness) of every condition of a groupoid partial
    action, each side built as a LinMap composite."""
    G, C = gpa.groupoid, gpa.coalgebra
    P, TH, inv, r, mul = gpa.P, gpa.theta, G.inv, G.r, G.mul

    def quasi(g, flip):
        eps_p = [C.eps(P(g).column(c)) for c in range(C.space.dim)]
        images = []
        for c in range(C.space.dim):
            out = Vector.zero(C.space)
            for t in C.delta_pairs(c):
                out = out + P(r[g]).column(t[flip]).scale(t[2] * eps_p[t[not flip]])
            images.append(out)
        return LinMap.from_images(C.space, C.space, images)

    def iso(g):
        dom = gpa.subcoalgebra(inv[g])
        img = Subspace.from_vectors(C.space, [TH(g).apply(v) for v in dom.basis_vectors])
        if img != gpa.subcoalgebra(g):
            return CheckResult("", False, "θ image differs from C_g")
        if dom.dim != img.dim:
            return CheckResult("", False, "θ not injective on C_{g⁻¹}")
        return CheckResult("", True)

    def maps(lhs, rhs):
        return lambda x: compare_maps("", lhs(x), rhs(x))

    comp, elements = sorted(G.composable), G.elements
    conditions = [
        ("theta-support", elements, maps(TH, lambda g: TH(g) @ P(inv[g]))),
        ("(i)-projection", elements, maps(lambda g: P(g) @ P(g), P)),
        ("(i)-comulti", elements, maps(lambda g: P(g).tensor(P(g)) @ C.comul,
                                       lambda g: C.comul @ P(g))),
        ("(i)-quasi-a", elements, maps(lambda g: quasi(g, False), P)),
        ("(i)-quasi-b", elements, maps(lambda g: quasi(g, True), P)),
        ("(ii)-theta-objects", G.identities, maps(TH, P)),
        ("Eq 1", [(g, h) for g in elements for h in elements],
         maps(lambda gh: P(gh[0]) @ P(gh[1]), lambda gh: P(gh[1]) @ P(gh[0]))),
        ("Eq 2", comp, maps(lambda gh: TH(inv[gh[1]]) @ P(gh[1]) @ P(inv[gh[0]]),
                            lambda gh: P(inv[mul[gh]]) @ TH(inv[gh[1]]) @ P(gh[1]))),
        ("Eq 3", comp, maps(lambda gh: TH(gh[0]) @ TH(gh[1]) @ P(inv[mul[gh]]) @ P(inv[gh[1]]),
                            lambda gh: TH(mul[gh]) @ P(inv[mul[gh]]) @ P(inv[gh[1]]))),
        ("Eq 4", elements, maps(lambda g: P(r[g]) @ P(g), P)),
        ("Lemma-(i)a", elements, maps(lambda g: TH(r[g]) @ TH(g), TH)),
        ("Lemma-(i)b", elements, maps(lambda g: TH(r[g]) @ P(g), P)),
        ("Lemma-(ii)a", elements, maps(lambda g: TH(inv[g]) @ TH(g), lambda g: P(inv[g]))),
        ("Lemma-(ii)b", elements, maps(lambda g: TH(g) @ TH(inv[g]), P)),
        ("Lemma-(iii)", comp, maps(lambda gh: P(inv[gh[0]]) @ TH(gh[1]),
                                   lambda gh: TH(gh[1]) @ P(inv[mul[gh]]) @ P(inv[gh[1]]))),
        ("theta-iso", elements, iso),
        ("theta-comult", elements, maps(lambda g: C.comul @ TH(g),
                                        lambda g: TH(g).tensor(TH(g)) @ C.comul @ P(inv[g]))),
        ("theta-counit", elements, maps(lambda g: C.counit @ TH(g),
                                        lambda g: C.counit @ P(inv[g]))),
    ]
    out = [("shapes", True, None)]
    for label, items, check in conditions:
        res = first_failure(label, ((x, check(x)) for x in items), lambda x: f"at {x}: ")
        out.append((res.label, res.passed, res.witness))
    return out


def _drawn_kG_action(data, F, G):
    """A symmetric partial action of kG: the regular one, a λ-indicator action
    on one object (P_g = 0 off that object) or the regular action induced
    onto a drawn coordinate subcoalgebra (P_g = 0 where it meets no kept
    coordinate)."""
    kind = data.draw(st.sampled_from(["regular", "lambda", "induced"]))
    H = groupoid_algebra(G, F)
    if kind == "regular":
        return regular_action(H)
    if kind == "lambda":
        return isotropy_lambda_action(G, F, data.draw(st.sampled_from(G.identities)))[0]
    keep = data.draw(st.sets(st.sampled_from(H.space.labels), min_size=1))
    return induce_partial_action(regular_action(H), projector_onto_labels(H.space, keep)).action


@settings(max_examples=120, deadline=None)
@given(fields, st.sampled_from([disjoint_union_of_cyclic([1, 2]), two_object_iso_groupoid()]),
       st.booleans(), st.data())
def test_groupoid_action_validator_matches_linmap_formulas(F, G, theta, data):
    """On regular, λ-indicator and induced actions, with one entry of one P_g or
    θ_g changed, a whole P_g or θ_g zeroed, or one entry set in a zero map,
    every condition's verdict and first witness are the literal composites'."""
    gpa = from_kG_action(_drawn_kG_action(data, F, G), G)
    maps = dict(gpa.isos if theta else gpa.projections)
    corruption = data.draw(st.sampled_from(["entry", "zero", "nonzero"]))
    zero = [g for g in G.elements if not any(maps[g].cols)]
    if corruption == "nonzero" and zero:
        g = data.draw(st.sampled_from(zero))
    else:
        g = data.draw(st.sampled_from(G.elements))
    cols = [dict(col) for col in maps[g].cols]
    if corruption == "zero":
        cols = [{} for _ in cols]
    else:
        col = cols[data.draw(st.integers(0, len(cols) - 1))]
        i = data.draw(st.integers(0, gpa.coalgebra.space.dim - 1))
        v = F.coerce(data.draw(st.sampled_from(ENTRIES[F] if corruption == "entry"
                                               else [e for e in ENTRIES[F] if e])))
        col.pop(i, None)
        if v:
            col[i] = v
    maps[g] = LinMap(maps[g].domain, maps[g].codomain, cols)
    bad = type(gpa)(G, gpa.coalgebra, gpa.projections if theta else maps,
                    maps if theta else gpa.isos)
    rep = validate_groupoid_partial_action(bad)
    assert [(r.label, r.passed, r.witness) for r in rep.results] == reference_validate(bad)
