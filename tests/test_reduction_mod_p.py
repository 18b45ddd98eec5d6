"""Reduction mod p as a metamorphic oracle for the weak Hopf and action checkers.

A structure whose constants lie in ℤ[1/N] has a reduction mod every prime p
that divides no denominator, and reduction is a ring map: every identity
that holds over ℚ holds over GF(p).  So every label of ``check_weak_hopf``
and ``check_identities`` that passes on the ℚ structure must pass on the same
structure built over GF(p), and so must every label of the module-coalgebra
and module-algebra checkers, and the ``symmetric`` and ``globality`` verdicts,
on an action built from such a structure.  No expected value is written by hand.
"""

from fractions import Fraction

import pytest

from conftest import grouplike_coalgebra, isotropy_lambda_action, regular_action

from weakhopf import (
    QQ,
    FiniteAbelianGroup,
    LambdaFunctional,
    PrimeField,
    abelian_group_weak_hopf,
    check_identities,
    check_module_algebra,
    check_module_coalgebra,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
    check_weak_hopf,
    disjoint_union_of_cyclic,
    dual_groupoid_algebra,
    dualize_coalgebra_action,
    dualize_right_coalgebra_action,
    groupoid_algebra,
    lambda_action,
    two_object_iso_groupoid,
)

PRIMES = (2, 3, 5, 7, 11, 13)

# name → (builder over a field, the denominators of its ℚ constants)
INSTANCES = {
    **{f"averaged Z/{N}": ((lambda F, N=N: abelian_group_weak_hopf(FiniteAbelianGroup((N,)), F)),
                           N) for N in range(2, 7)},
    "averaged Z/2×Z/2": (lambda F: abelian_group_weak_hopf(FiniteAbelianGroup((2, 2)), F), 4),
    "kG of Z/2 ⊔ Z/3": (lambda F: groupoid_algebra(disjoint_union_of_cyclic([2, 3]), F), 1),
    "(kG)* of Z/2 ⊔ Z/3": (lambda F: dual_groupoid_algebra(disjoint_union_of_cyclic([2, 3]), F),
                           1),
    "kG of the two-object groupoid": (lambda F: groupoid_algebra(two_object_iso_groupoid(), F),
                                      1),
    "(kG)* of the two-object groupoid": (
        lambda F: dual_groupoid_algebra(two_object_iso_groupoid(), F), 1),
}
CASES = [(name, p) for name, (_, den) in INSTANCES.items() for p in PRIMES if den % p]


def _passed(H) -> dict:
    return {r.label: r.passed for check in (check_weak_hopf, check_identities)
            for r in check(H).results}


@pytest.fixture(scope="module")
def over_q():
    return {name: _passed(build(QQ)) for name, (build, _) in INSTANCES.items()}


@pytest.mark.parametrize("name,p", CASES, ids=[f"{name} mod {p}" for name, p in CASES])
def test_every_label_that_passes_over_q_passes_mod_p(over_q, name, p):
    mod_p = _passed(INSTANCES[name][0](PrimeField(p)))
    assert mod_p.keys() == over_q[name].keys()
    assert [label for label, ok in over_q[name].items() if ok and not mod_p[label]] == []


def test_the_instances_pass_over_q_and_reach_every_prime(over_q):
    """Each instance is a weak Hopf algebra, so the oracle compares whole reports;
    the averaged examples of Z/2–Z/6 leave out exactly the primes dividing N."""
    assert all(all(passed.values()) for passed in over_q.values())
    assert len(CASES) == 5 * 5 + 4 + 4 * 6


# -- the action families ----------------------------------------------------------

def _dual_lambda(F, component: str):
    """The λ-action of (kG)* of Z/2 ⊔ Z/3 on a grouplike coalgebra, with
    λ = (1/|V|)·1_V for V the group ``component`` ("g1" or "g2")."""
    H = dual_groupoid_algebra(disjoint_union_of_cyclic([2, 3]), F)
    V = [label for label in H.space.labels if label.startswith(f"p_{component}.")]
    share = Fraction(1, len(V))     # the ℚ value, which GF(p) reduces
    lam = LambdaFunctional.from_values(H, [share if label in V else 0 for label in H.space.labels])
    return lambda_action(lam, grouplike_coalgebra(F, ["c0", "c1"]))


_HOPF = {name: INSTANCES[name] for name in ("averaged Z/3", "averaged Z/4",
                                             "kG of the two-object groupoid",
                                             "(kG)* of the two-object groupoid")}
# name → (builder of a coalgebra action over a field, the denominators of its ℚ constants)
COALGEBRA_ACTIONS = {
    **{f"{side} regular action of {name}": ((lambda F, b=build, s=side: regular_action(b(F), s)),
                                            den)
       for name, (build, den) in _HOPF.items() for side in ("left", "right")},
    **{f"{side} λ-action of kG of {name}, λ = 1_{{{e}}}": (
        lambda F, G=G, e=e, s=side: isotropy_lambda_action(G(), F, e, side=s)[0], 1)
       for name, G, e in (("the two-object groupoid", two_object_iso_groupoid, "e"),
                          ("Z/2 ⊔ Z/3", lambda: disjoint_union_of_cyclic([2, 3]), "g1.e"))
       for side in ("left", "right")},
    **{f"λ-action of (kG)* of Z/2 ⊔ Z/3, λ = (1/{size})·1_V on Z/{size}": (
        lambda F, c=component: _dual_lambda(F, c), size)
       for component, size in (("g1", 2), ("g2", 3))},
}


def _dual(act):
    """The module-algebra action on the convolution dual that ``act`` transposes to."""
    dualize = dualize_coalgebra_action if act.side == "left" else dualize_right_coalgebra_action
    return dualize(act, check=False)


ACTIONS = {**COALGEBRA_ACTIONS, **{f"dual of the {name}": ((lambda F, b=build: _dual(b(F))), den)
                                   for name, (build, den) in COALGEBRA_ACTIONS.items()}}
ACTION_CASES = [(name, p) for name, (_, den) in ACTIONS.items() for p in PRIMES if den % p]


def _action_verdicts(act) -> dict:
    """label → passed for every result of the global and the partial checker of the
    action, and the ``symmetric`` and ``globality`` verdicts of the partial one."""
    if act.is_coalgebra_action():
        report, verdict = check_module_coalgebra(act), check_partial_module_coalgebra(act)
    else:
        report, verdict = check_module_algebra(act), check_partial_module_algebra(act)
    out = {f"{rep.title}: {r.label}": r.passed
           for rep in (report, verdict.full_report()) for r in rep.results}
    return out | {"symmetric": verdict.symmetric.passed, "globality": verdict.globality.passed}


@pytest.fixture(scope="module")
def actions_over_q():
    return {name: _action_verdicts(build(QQ)) for name, (build, _) in ACTIONS.items()}


@pytest.mark.parametrize("name,p", ACTION_CASES,
                         ids=[f"{name} mod {p}" for name, p in ACTION_CASES])
def test_every_action_label_that_passes_over_q_passes_mod_p(actions_over_q, name, p):
    mod_p = _action_verdicts(ACTIONS[name][0](PrimeField(p)))
    assert mod_p.keys() == actions_over_q[name].keys()
    assert [label for label, ok in actions_over_q[name].items() if ok and not mod_p[label]] == []


def test_the_actions_are_partial_over_q_and_reach_every_prime(actions_over_q):
    """Every action is partial over ℚ and only the λ-actions fail to be global, so
    both kinds of verdict are compared; the averaged examples of Z/3 and Z/4 and
    the λ = (1/|V|)·1_V actions leave out exactly the primes dividing their denominator."""
    for name, verdicts in actions_over_q.items():
        assert all(ok for label, ok in verdicts.items() if " partial module " in label)
        assert verdicts["globality"] == ("λ" not in name)
    assert len(ACTION_CASES) == 2 * (2 * 2 * 5 + 2 * 2 * 6 + 4 * 6 + 5 + 5)
