import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ENTRIES, action_tensor, draw_structure, fields, grouplike_coalgebra,
                      labelled, nilpotent_coalgebra, regular_action)

from weakhopf import (
    QQ,
    ActionTensor,
    CoalgebraData,
    FinVec,
    GlobalizationTriple,
    LambdaFunctional,
    LinMap,
    PrimeField,
    Vector,
    WeakBialgebraData,
    WeakHopfData,
    check_globalization,
    check_module_coalgebra,
    check_partial_module_coalgebra,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    dual_globalization_transfer,
    dual_groupoid_algebra,
    find_basis_grouplikes,
    groupoid_algebra,
    lambda_action,
    standard_globalization,
    trivial_groupoid,
    two_object_iso_groupoid,
)
from weakhopf.cli import main
from weakhopf.elimination import left_inverse_on_image
from weakhopf.errors import HypothesisViolated
from weakhopf.globalization import absorbed_by, is_grouplike
from weakhopf.jsonwrite import action_to_json
from weakhopf.structures import _assemble
from weakhopf.tensor_space import tensor_product


def closing_example_one(field=QQ):
    """λ = indicator of the identity of the first component of G₁ ⊔ G₂."""
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, field)
    lam = LambdaFunctional.indicator(H, ["g1.e"])
    C = grouplike_coalgebra(field, ["c0", "c1"])
    return lambda_action(lam, C, "right")


def closing_example_two(field=QQ):
    """λ = indicator of the isotropy group G_e of the two-object groupoid."""
    G = two_object_iso_groupoid()
    H = groupoid_algebra(G, field)
    lam = LambdaFunctional.indicator(H, ["e"])   # G_e = {e}
    return lambda_action(lam, nilpotent_coalgebra(field), "right")


def test_find_grouplikes_on_closing_example():
    act = closing_example_one()
    found = find_basis_grouplikes(act)
    assert [g.label for g in found] == ["g1.e"]


def test_find_grouplikes_hopf_case():
    # for a group algebra the unit is a grouplike basis vector and the right
    # regular action absorbs it
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    act = regular_action(H, side="right")
    labels = {g.label for g in find_basis_grouplikes(act)}
    assert "e" in labels


def test_find_grouplikes_empty_when_support_straddles():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["g1.e", "g2.e"])
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c"]), "right")
    assert find_basis_grouplikes(act) == []


# -- the grouplike search needs only the basis vectors ------------------------------

def _sums_of_grouplike_basis_vectors(H):
    """Every sum of two or more distinct grouplike basis vectors of H: by
    linearity Δ of such a sum has no cross term e_i⊗e_j, so none is grouplike."""
    space, one = H.space, H.field.one()
    grouplike = [i for i in range(space.dim) if is_grouplike(H, Vector.basis(space, i))]
    return [Vector(space, dict.fromkeys(combo, one))
            for size in range(2, len(grouplike) + 1)
            for combo in itertools.combinations(grouplike, size)]


def _assert_basis_search_is_complete(H, lambdas):
    """No grouplike sum exists, and each absorbed grouplike found on a right
    λ-action is a basis vector; returns the labels found."""
    assert not any(is_grouplike(H, v) for v in _sums_of_grouplike_basis_vectors(H))
    found = set()
    for lam in lambdas:
        act = lambda_action(lam, grouplike_coalgebra(H.field, ["c"]), "right")
        found |= {g.label for g in find_basis_grouplikes(act)}
    assert found <= set(H.space.labels)
    return found


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["Q", "GF2"])
@pytest.mark.parametrize("G", [
    *(trivial_groupoid(k) for k in range(2, 6)),
    two_object_iso_groupoid(),
    disjoint_union_of_cyclic([1, 2]),
    disjoint_union_of_cyclic([2, 1, 3]),
    disjoint_union_of_cyclic([1, 1, 2, 2]),
    disjoint_union_of_cyclic([1, 2, 1, 2, 1]),
], ids=["trivial-2", "trivial-3", "trivial-4", "trivial-5", "two-object-iso", "Z1+Z2",
        "Z2+Z1+Z3", "Z1+Z1+Z2+Z2", "Z1+Z2+Z1+Z2+Z1"])
def test_no_sum_of_grouplike_basis_vectors_of_kG_is_grouplike(G, field):
    H = groupoid_algebra(G, field)
    assert len(_sums_of_grouplike_basis_vectors(H)) == 2 ** H.space.dim - H.space.dim - 1
    lambdas = [LambdaFunctional.indicator(H, objects)
               for size in range(1, len(G.identities) + 1)
               for objects in itertools.combinations(G.identities, size)]
    assert _assert_basis_search_is_complete(H, lambdas)


@settings(max_examples=60, deadline=None)
@given(fields, st.integers(1, 4), st.data())
def test_no_sum_of_grouplike_basis_vectors_of_a_drawn_structure_is_grouplike(F, dim, data):
    """Drawn structure constants with Δ(e_i) = e_i⊗e_i forced on drawn basis
    vectors, so that there are sums to test."""
    drawn = draw_structure(data, F, dim)
    forced = data.draw(st.sets(st.integers(0, dim - 1)))
    comul = drawn.coalg.comul
    cols = [{i * dim + i: F.one()} if i in forced else col for i, col in enumerate(comul.cols)]
    coalg = CoalgebraData(drawn.space, LinMap(comul.domain, comul.codomain, cols),
                          drawn.coalg.counit)
    H = WeakHopfData(WeakBialgebraData(drawn.alg, coalg), LinMap.identity(drawn.space))
    values = data.draw(st.lists(st.sampled_from(ENTRIES[F]), min_size=dim, max_size=dim))
    _assert_basis_search_is_complete(H, [LambdaFunctional.from_values(H, values)])


@pytest.mark.parametrize("build", [closing_example_one, closing_example_two])
def test_standard_globalization_passes_checker(build):
    act = build()
    assert check_partial_module_coalgebra(act).is_partial
    e = find_basis_grouplikes(act)[0]
    gt = standard_globalization(act, e)
    rep = check_globalization(gt)
    assert rep.ok, rep.failures


def test_standard_globalization_over_prime_field():
    act = closing_example_one(PrimeField(5))
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    assert check_globalization(gt).ok


def test_globalization_invariants():
    act = closing_example_one()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    # π fixes θ(C) pointwise and is idempotent
    assert gt.pi @ gt.theta == gt.theta
    assert gt.pi @ gt.pi == gt.pi
    # comultiplication compatibility of π
    assert gt.pi.tensor(gt.pi) @ gt.D.comul == gt.D.comul @ gt.pi


def test_absorption_propagates_to_left_factor():
    # from c↼he = c↼h (the hypothesis) the mirrored identity c↼eh = c↼h
    # follows for partial actions; verified as an exact map identity
    act = closing_example_one()
    e = find_basis_grouplikes(act)[0]
    ident_c = LinMap.identity(act.space)
    lmul_e = act.hopf.alg.lmul(e.element)
    assert action_tensor(act) @ ident_c.tensor(lmul_e) == action_tensor(act)


def test_absorbed_by_matches_the_tensor_formula():
    """absorbed_by compares slices; the reference is the tensor identity
    ↼∘(id⊗r_v) = ↼ on C⊗H, on right actions with one slice entry redrawn."""
    seen = set()

    @settings(max_examples=80, deadline=None)
    @given(fields, st.data())
    def run(F, data):
        G = data.draw(st.sampled_from([cyclic_group_groupoid(2), disjoint_union_of_cyclic([1, 2]),
                                       two_object_iso_groupoid()]))
        H = data.draw(st.sampled_from([groupoid_algebra, dual_groupoid_algebra]))(G, F)
        lam = LambdaFunctional.indicator(H, [H.space.labels[0]])
        act = data.draw(st.sampled_from([regular_action(H, "right"),
                                         lambda_action(lam, H.coalg, "right")]))
        slices = [[dict(col) for col in s.cols] for s in act.slices]
        if data.draw(st.booleans()):
            col = slices[data.draw(st.integers(0, len(slices) - 1))][
                data.draw(st.integers(0, act.space.dim - 1))]
            i = data.draw(st.integers(0, act.space.dim - 1))
            col.pop(i, None)
            if v := F.coerce(data.draw(st.sampled_from(ENTRIES[F]))):
                col[i] = v
        act = ActionTensor(H, act.carrier, "right",
                           [LinMap(act.space, act.space, cols) for cols in slices])
        support = data.draw(st.lists(st.integers(0, H.space.dim - 1), min_size=1,
                                     max_size=H.space.dim, unique=True))
        v = Vector(H.space, {i: F.one() for i in support})
        ident = LinMap.identity(act.space)
        expected = action_tensor(act) @ ident.tensor(H.alg.rmul(v)) == action_tensor(act)
        assert absorbed_by(act, v) == expected
        seen.add(expected)

    run()
    assert seen == {True, False}


def test_already_global_action_globalizes():
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    act = regular_action(H, side="right")
    assert check_module_coalgebra(act).ok
    e = next(g for g in find_basis_grouplikes(act) if g.label == "e")
    gt = standard_globalization(act, e)
    assert gt.D.space.dim == H.space.dim * H.space.dim  # eH = H here
    rep = check_globalization(gt)
    assert rep.ok, rep.failures


def test_hypothesis_violations_are_reported():
    act = closing_example_one()
    H = act.hopf
    not_grouplike = H.unit  # Δ(1) ≠ 1⊗1 with two objects
    with pytest.raises(HypothesisViolated) as exc:
        standard_globalization(act, not_grouplike)
    assert exc.value.which == "grouplike"
    other = Vector.basis(H.space, H.space.labels.index("g2.e"))
    with pytest.raises(HypothesisViolated) as exc:
        standard_globalization(act, other)
    assert exc.value.which == "absorption"


def test_coproduct_escaping_eH_violates_the_grouplike_hypothesis(tmp_path, capsys):
    """With Δ(δ_{g1.a}) = δ_{g1.a}⊗δ_{g2.e}, e = δ_{g1.e} stays grouplike and
    absorbed, but Δ(eH) leaves eH⊗eH: the API raises and `whw globalize`
    exits 4 with one line."""
    act = closing_example_one()
    H, n = act.hopf, act.hopf.space.dim
    a, b = H.space.labels.index("g1.a"), H.space.labels.index("g2.e")
    coproducts = list(H.coalg.comul.cols)
    coproducts[a] = {a * n + b: QQ.one()}
    H = _assemble(H.space, H.alg.mul.cols, H.unit.terms, coproducts,
                  [H.coalg.eps_coeff(i) for i in range(n)], H.antipode.cols)
    act = ActionTensor.from_slices(H, act.carrier, "right", act.slices)
    with pytest.raises(HypothesisViolated) as exc:
        standard_globalization(act, Vector.basis(H.space, H.space.labels.index("g1.e")))
    assert exc.value.which == "grouplike"
    path = tmp_path / "escaping.json"
    path.write_text(json.dumps(action_to_json(act)), encoding="utf-8")
    assert main(["globalize", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Δ(eH) escapes eH⊗eH" in err


def pad_with_unreachable_vector(gt):
    """Extend D by one grouplike basis vector carrying a λ-scaling action;
    only the generation clause (iv) should break."""
    H = gt.partial.hopf
    D = gt.D
    field = D.space.field
    z, o = field.zero(), field.one()
    # a global λ: indicator of the component of the absorbed grouplike
    lam0 = LambdaFunctional.indicator(H, ["g1.e", "g1.a"])
    n = D.space.dim
    space2 = FinVec(field, D.space.labels + ("pad",))

    def grow_rows(rows, extra_diag):
        out = [list(r) + [z] for r in rows]
        out.append([z] * n + [extra_diag])
        return out

    comul_cols = []
    DD2 = tensor_product(space2, space2)
    for j in range(n):
        col = [z] * DD2.dim
        old = D.comul.column(j)
        for idx, c in old.nonzeros():
            a, b = divmod(idx, n)
            col[a * space2.dim + b] = c
        comul_cols.append(col)
    pad_col = [z] * DD2.dim
    pad_col[n * space2.dim + n] = o          # Δ(pad) = pad⊗pad
    comul_cols.append(pad_col)
    comul2 = LinMap.from_function(space2, DD2, lambda j: Vector.from_coords(DD2, comul_cols[j]))
    counit2 = LinMap.from_rows(space2, D.counit.codomain,
                               [list(D.counit.rows[0]) + [o]])
    D2 = CoalgebraData(space2, comul2, counit2)

    slices2 = []
    for i in range(H.space.dim):
        rows = grow_rows(gt.global_act.slices[i].rows, lam0.values[i])
        slices2.append(LinMap.from_rows(space2, space2, rows))
    global2 = ActionTensor.from_slices(H, D2, "right", slices2)
    theta2 = LinMap.from_rows(gt.theta.domain, space2,
                              [list(r) for r in gt.theta.rows] + [[z] * gt.theta.domain.dim])
    pi2 = LinMap.from_rows(space2, space2, grow_rows(gt.pi.rows, z))
    return GlobalizationTriple(gt.partial, D2, global2, theta2, pi2)


def test_unreachable_vector_breaks_only_generation():
    act = closing_example_one()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    padded = pad_with_unreachable_vector(gt)
    rep = check_globalization(padded)
    assert [r.label for r in rep.failures] == ["(iv)-generation"]


def test_identity_projection_breaks_image_clause():
    act = closing_example_one()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    bad = GlobalizationTriple(gt.partial, gt.D, gt.global_act, gt.theta,
                              LinMap.identity(gt.D.space))
    rep = check_globalization(bad)
    assert not labelled(rep, "(iii)-pi-image").passed


def test_dual_transfer_passes_on_valid_triples():
    for build in (closing_example_one, closing_example_two):
        act = build()
        gt = standard_globalization(act, find_basis_grouplikes(act)[0])
        res = dual_globalization_transfer(gt)
        assert res.ok, (res.coalgebra_report.failures, res.algebra_report.failures)


def test_dual_transfer_hopf_special_case():
    # one object: the weak Hopf algebra is an ordinary group algebra
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    act = regular_action(H, side="right")
    e = next(g for g in find_basis_grouplikes(act) if g.label == "e")
    gt = standard_globalization(act, e)
    res = dual_globalization_transfer(gt)
    assert res.ok


def mutated_triples(gt):
    lam0 = LambdaFunctional.indicator(gt.partial.hopf, ["g1.e", "g1.a"])
    degenerate = lambda_action(lam0, gt.D, "right")
    return [
        ("corrupt-pi", GlobalizationTriple(
            gt.partial, gt.D, gt.global_act, gt.theta, gt.pi.scale(2))),
        ("corrupt-theta", GlobalizationTriple(
            gt.partial, gt.D, gt.global_act, gt.theta.scale(2), gt.pi)),
        ("break-generation", GlobalizationTriple(
            gt.partial, gt.D, degenerate, gt.theta, gt.pi)),
    ]


def test_mutations_fail_on_both_sides():
    act = closing_example_one()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    for name, bad in mutated_triples(gt):
        res = dual_globalization_transfer(bad)
        assert not res.coalgebra_report.ok, name
        assert not res.algebra_report.ok, name


def test_break_generation_mutation_breaks_generation():
    act = closing_example_one()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    bad = dict(mutated_triples(gt))["break-generation"]
    rep = check_globalization(bad)
    assert not labelled(rep, "(iv)-generation").passed


def test_phi_ignores_off_image_choice_of_theta_inverse():
    # any two left inverses of θ agree after precomposition with π, so φ is
    # independent of the deterministic pseudo-solve's off-image values
    act = closing_example_one()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    g1 = left_inverse_on_image(gt.theta)
    rng = random.Random(5)
    zeta = LinMap.from_rows(
        gt.D.space, gt.partial.carrier.space,
        [[Fraction(rng.randint(-3, 3)) for _ in range(gt.D.space.dim)]
         for _ in range(gt.partial.carrier.space.dim)])
    leak = zeta @ (LinMap.identity(gt.D.space) - gt.pi)
    g2 = g1 + leak
    assert g2 @ gt.theta == LinMap.identity(gt.partial.carrier.space)
    assert g1 @ gt.pi == g2 @ gt.pi
