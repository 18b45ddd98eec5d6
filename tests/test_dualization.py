from fractions import Fraction

import pytest

from conftest import (
    grouplike_coalgebra,
    is_global,
    isotropy_lambda_action,
    nilpotent_coalgebra,
    regular_action,
)

from weakhopf import (
    QQ,
    LambdaFunctional,
    Vector,
    check_module_algebra,
    check_module_coalgebra,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    dual_convolution_algebra,
    dualize,
    dualize_coalgebra_action,
    dualize_right_coalgebra_action,
    groupoid_algebra,
    lambda_action,
    undualize_algebra_action,
    undualize_left_algebra_action,
)
from weakhopf.axioms import check_algebra
from weakhopf.errors import InputNotPartialAction
from weakhopf.tensor_space import LinMap
from weakhopf.partial_actions import ActionTensor


def corpus():
    """Left partial actions used for the round-trip and transfer tests."""
    out = []
    G = disjoint_union_of_cyclic([2, 3])
    Ce = groupoid_algebra(cyclic_group_groupoid(2), QQ).coalg
    act, _ = isotropy_lambda_action(G, QQ, "g1.e", carrier=Ce)
    out.append(("isotropy-indicator", act))
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, [g for g in G.elements if g.startswith("g1.")])
    out.append(("component-indicator", lambda_action(lam, nilpotent_coalgebra(QQ))))
    out.append(("regular", regular_action(H)))
    return out


def test_convolution_algebra_of_grouplike_coalgebra_is_pointwise():
    # Δ(δ_g) = δ_g⊗δ_g makes convolution the pointwise product with an
    # all-ones unit; oracle computed by hand
    C = grouplike_coalgebra(QQ, ["a", "b", "c"])
    A = dual_convolution_algebra(C)
    assert check_algebra(A).ok
    assert A.unit.coords == (Fraction(1),) * 3
    for i in range(3):
        for j in range(3):
            prod = A.product(Vector.basis(A.space, i), Vector.basis(A.space, j))
            expected = Vector.basis(A.space, i) if i == j else Vector(A.space, {})
            assert prod == expected


def test_convolution_algebra_of_one_dim_coalgebra_is_ground_field():
    C = grouplike_coalgebra(QQ, ["c"])
    A = dual_convolution_algebra(C)
    assert A.space.dim == 1
    assert A.product(A.unit, A.unit) == A.unit


def test_convolution_matches_dualize_algebra_part():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    conv = dual_convolution_algebra(H.coalg)
    assert conv.mul.rows == dualize(H).alg.mul.rows
    assert conv.unit.coords == dualize(H).unit.coords


def test_pairing_evaluates_coordinates():
    C = nilpotent_coalgebra(QQ)
    Cstar = dual_convolution_algebra(C)
    alpha = Vector.from_coords(Cstar.space, [2, 3])
    c = Vector.from_coords(C.space, [5, 7])
    # α(c) on the coordinate dual basis: Σ_i α_i c_i
    assert sum(a * b for a, b in zip(alpha.coords, c.coords)) == Fraction(31)


@pytest.mark.parametrize("name,act", corpus())
def test_round_trip_exact(name, act):
    dual = dualize_coalgebra_action(act)
    back = undualize_algebra_action(dual, act.carrier)
    assert back.slices == act.slices
    assert dualize_coalgebra_action(back).slices == dual.slices


@pytest.mark.parametrize("name,act", corpus())
def test_axiom_verdicts_transfer(name, act):
    vc = check_partial_module_coalgebra(act)
    dual = dualize_coalgebra_action(act, check=False)
    va = check_partial_module_algebra(dual)
    for pmc, pma in zip(vc.report.results, va.report.results):
        assert pmc.passed == pma.passed, (pmc.label, pma.label)
    assert vc.symmetric.passed == va.symmetric.passed
    assert is_global(vc) == is_global(va)


def test_global_input_gives_global_output():
    H = groupoid_algebra(disjoint_union_of_cyclic([2, 3]), QQ)
    act = regular_action(H)
    assert check_module_coalgebra(act).ok
    dual = dualize_coalgebra_action(act)
    assert check_module_algebra(dual).ok


def test_symmetric_transfers():
    G = disjoint_union_of_cyclic([2, 3])
    Ce = grouplike_coalgebra(QQ, ["c0", "c1"])
    act, _ = isotropy_lambda_action(G, QQ, "g1.e", carrier=Ce)
    assert check_partial_module_coalgebra(act).is_symmetric
    dual = dualize_coalgebra_action(act)
    assert check_partial_module_algebra(dual).is_symmetric


def test_identity_action_round_trip():
    # 1-dim hopf: the trivial groupoid; identity action on a 1-dim coalgebra
    H = groupoid_algebra(cyclic_group_groupoid(1), QQ)
    C = grouplike_coalgebra(QQ, ["c"])
    act = ActionTensor.from_slices(H, C, "left", [LinMap.identity(C.space)])
    dual = dualize_coalgebra_action(act)
    assert undualize_algebra_action(dual, C).slices == act.slices


def test_mirror_wrappers_round_trip():
    G = disjoint_union_of_cyclic([2, 3])
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, ["g1.e"])
    act = lambda_action(lam, nilpotent_coalgebra(QQ), "right")
    dual = dualize_right_coalgebra_action(act)
    v = check_partial_module_algebra(dual)
    assert v.is_partial
    back = undualize_left_algebra_action(dual, act.carrier, check=False)
    assert back.slices == act.slices


def test_dualize_rejects_non_partial_input():
    H = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    zero = ActionTensor.from_slices(
        H, H.coalg, "left",
        [LinMap.zero(H.space, H.space) for _ in range(H.space.dim)])
    with pytest.raises(InputNotPartialAction):
        dualize_coalgebra_action(zero)
