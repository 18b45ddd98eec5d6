import json
import random
from fractions import Fraction

import pytest

from conftest import grouplike_coalgebra, nilpotent_coalgebra, regular_action

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
    check_globalization,
    check_module_coalgebra,
    check_partial_module_coalgebra,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    dual_globalization_transfer,
    find_basis_grouplikes,
    groupoid_algebra,
    lambda_action,
    standard_globalization,
    two_object_iso_groupoid,
)
from weakhopf.cli import main
from weakhopf.errors import HypothesisViolated, InputNotGlobalization
from weakhopf.jsonio import action_to_json
from weakhopf.structures import _assemble
from weakhopf.tensor_space import left_inverse_on_image, tensor_product


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
    assert act.action @ ident_c.tensor(lmul_e) == act.action


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
    a, b = H.space.index("g1.a"), H.space.index("g2.e")
    coproducts = list(H.coalg.comul.cols)
    coproducts[a] = {a * n + b: QQ.one()}
    H = _assemble(H.space, H.alg.mul.cols, H.unit.terms, coproducts,
                  [H.coalg.eps_coeff(i) for i in range(n)], H.antipode.cols)
    act = ActionTensor.from_slices(H, act.carrier, "right", act.slices)
    with pytest.raises(HypothesisViolated) as exc:
        standard_globalization(act, Vector.basis(H.space, H.space.index("g1.e")))
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

    comul_rows = []
    DD2 = tensor_product(space2, space2)
    for j in range(n):
        col = [z] * DD2.dim
        old = D.comul.column(j)
        for idx, c in old.nonzeros():
            a, b = divmod(idx, n)
            col[a * space2.dim + b] = c
        comul_rows.append(col)
    pad_col = [z] * DD2.dim
    pad_col[n * space2.dim + n] = o          # Δ(pad) = pad⊗pad
    comul_rows.append(pad_col)
    comul2 = LinMap.from_images(space2, DD2, comul_rows)
    counit2 = LinMap.from_rows(space2, D.counit.codomain,
                               [list(D.counit.rows[0]) + [o]])
    D2 = CoalgebraData(space2, comul2, counit2)

    slices2 = []
    for i in range(H.space.dim):
        rows = grow_rows(gt.global_act.slices[i].rows, lam0.of_basis(i))
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
    assert not rep.result("(iii)-pi-image").passed


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


def test_dual_transfer_strict_rejects_bad_input():
    act = closing_example_one()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    bad = GlobalizationTriple(gt.partial, gt.D, gt.global_act, gt.theta,
                              gt.pi.scale(2))
    with pytest.raises(InputNotGlobalization):
        dual_globalization_transfer(bad)


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
        res = dual_globalization_transfer(bad, strict=False)
        assert not res.coalgebra_report.ok, name
        assert not res.algebra_report.ok, name


def test_break_generation_mutation_breaks_generation():
    act = closing_example_one()
    gt = standard_globalization(act, find_basis_grouplikes(act)[0])
    bad = dict(mutated_triples(gt))["break-generation"]
    rep = check_globalization(bad)
    assert not rep.result("(iv)-generation").passed


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
