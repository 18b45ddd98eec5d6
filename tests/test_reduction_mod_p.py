"""Reduction mod p as a metamorphic oracle for the weak Hopf checkers.

A structure whose constants lie in ℤ[1/N] has a reduction mod every prime p
that divides no denominator, and reduction is a ring map: every identity
that holds over ℚ holds over GF(p).  So every label of ``check_weak_hopf``
and ``check_identities`` that passes on the ℚ structure must pass on the same
structure built over GF(p).  No expected value is written by hand.
"""

import pytest

from weakhopf import (
    QQ,
    FiniteAbelianGroup,
    PrimeField,
    abelian_group_weak_hopf,
    check_identities,
    check_weak_hopf,
    disjoint_union_of_cyclic,
    dual_groupoid_algebra,
    groupoid_algebra,
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
