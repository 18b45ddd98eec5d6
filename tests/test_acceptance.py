"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact arithmetic at desk scale; each criterion runs in
well under five seconds.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    dense_entries,
    gpa_examples,
    grouplike_coalgebra,
    is_global,
    isotropy_lambda_action,
    labelled,
    nilpotent_coalgebra,
    regular_action,
)

from weakhopf import (
    QQ,
    ActionTensor,
    CoalgebraData,
    FiniteAbelianGroup,
    GlobalizationTriple,
    GroupoidPartialAction,
    LambdaFunctional,
    LinMap,
    PrimeField,
    Vector,
    WeakBialgebraData,
    WeakHopfData,
    abelian_group_weak_hopf,
    check_dual_k_partial_action_criterion,
    check_globalization,
    check_identities,
    check_k_partial_action_group_criterion,
    check_module_coalgebra,
    check_partial_module_coalgebra,
    check_weak_hopf,
    cyclic_group_groupoid,
    disjoint_union_of_cyclic,
    dual_globalization_transfer,
    dual_groupoid_algebra,
    dualize,
    dualize_coalgebra_action,
    find_basis_grouplikes,
    from_kG_action,
    groupoid_algebra,
    induce_partial_action,
    is_hopf,
    lambda_action,
    same_structure_constants,
    standard_globalization,
    to_kG_action,
    trivial_groupoid,
    two_object_iso_groupoid,
    undualize_algebra_action,
    validate_groupoid_partial_action,
)
from weakhopf.errors import CharacteristicDividesOrder
from weakhopf.partial_actions import check_partial_module_algebra
from weakhopf.weak_hopf import AlgebraData


def acceptance_family():
    return [
        ("trivial-1", trivial_groupoid(1)),
        ("trivial-2", trivial_groupoid(2)),
        ("trivial-3", trivial_groupoid(3)),
        ("Z2", cyclic_group_groupoid(2)),
        ("Z3", cyclic_group_groupoid(3)),
        ("Z2+Z3", disjoint_union_of_cyclic([2, 3])),
        ("two-object-iso", two_object_iso_groupoid()),
    ]


def note(n, text):
    print(f"ACCEPTANCE {n}: PASS: {text}")


def test_criterion_01_axiom_suite_groupoid_algebras():
    for name, G in acceptance_family():
        H = groupoid_algebra(G, QQ)
        hopf_rep = check_weak_hopf(H)
        assert hopf_rep.ok, (name, hopf_rep.failures)
        ident_rep = check_identities(H)
        assert ident_rep.ok, (name, ident_rep.failures)
        assert not [r for r in ident_rep.results if r.skipped], name
    note(1, "weak Hopf axioms and the full identity catalog pass on the "
            "seven-groupoid family with zero failures and zero skips")


def test_criterion_02_dual_consistency():
    for name, G in acceptance_family():
        H = groupoid_algebra(G, QQ)
        explicit = dual_groupoid_algebra(G, QQ)
        derived = dualize(H)
        assert same_structure_constants(explicit, derived), name
        assert derived.eps_t.cols == H.eps_t.transposed_rows(), name
        assert derived.eps_s.cols == H.eps_s.transposed_rows(), name
    note(2, "explicit dual equals dualize(kG) tensor-entrywise and the dual "
            "target map is precomposition with the original one")


def test_criterion_03_hopf_detection():
    for name, G in acceptance_family():
        v = is_hopf(groupoid_algebra(G, QQ))
        assert labelled(v, "conditions agree").passed, name
        assert [r.passed for r in v.results[:5]] == [len(G.identities) == 1] * 5, name
    note(3, "the five Hopf conditions are all-true exactly for one-object "
            "groupoids, all-false otherwise, and never disagree")


def test_criterion_04_abelian_group_example():
    for order in (2, 3):
        for field in (QQ, PrimeField(5)):
            H = abelian_group_weak_hopf(FiniteAbelianGroup((order,)), field)
            assert check_weak_hopf(H).ok
            ident = LinMap.identity(H.space)
            assert H.eps_t == ident and H.eps_s == ident
    with pytest.raises(CharacteristicDividesOrder):
        abelian_group_weak_hopf(FiniteAbelianGroup((2,)), PrimeField(2))
    note(4, "abelian-group examples pass over Q and GF(5) with ε_t = ε_s = id; "
            "GF(2) with |G| = 2 is rejected")


def test_criterion_05_partial_vs_global():
    # the isotropy-indicator action on kG_e, on groupoids where the chosen
    # identity has a nontrivial component (so it is properly partial)
    cases = [
        (disjoint_union_of_cyclic([2, 3]), "g1.e", 2),
        (two_object_iso_groupoid(), "e", 1),
    ]
    for G, e_label, iso_order in cases:
        Ce = groupoid_algebra(cyclic_group_groupoid(iso_order), QQ).coalg
        act, _ = isotropy_lambda_action(G, QQ, e_label, carrier=Ce)
        v = check_partial_module_coalgebra(act)
        assert v.is_partial
        assert not is_global(v)
        assert not check_module_coalgebra(act).ok
    # λ ≡ 1 on the abelian-group example is a full module coalgebra
    H = abelian_group_weak_hopf(FiniteAbelianGroup((3,)), QQ)
    lam = LambdaFunctional.from_values(H, [1] * 3)
    act = lambda_action(lam, grouplike_coalgebra(QQ, ["c0", "c1"]))
    assert check_module_coalgebra(act).ok
    note(5, "the isotropy-indicator example is partial but not global "
            "whenever the chosen identity has arrows into it; the constant-1 "
            "action on the abelian example is fully global")


def test_criterion_06_lambda_criteria_biconditionals():
    rng = random.Random(20260809)
    groupoids = [
        disjoint_union_of_cyclic([2, 3]),     # |G| = 5
        disjoint_union_of_cyclic([4, 2]),     # |G| = 6
        two_object_iso_groupoid(),            # |G| = 4
    ]
    checked = 0
    for G in groupoids:
        H = groupoid_algebra(G, QQ)
        for _ in range(8):
            labels = [g for g in G.elements if rng.random() < 0.5]
            lam = LambdaFunctional.indicator(H, labels)
            assert check_k_partial_action_group_criterion(lam, G).agrees
            checked += 1
    assert checked >= 20

    dual_checked = 0
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for G in groupoids:
            Hd = dual_groupoid_algebra(G, field)
            for _ in range(4):
                subset = [i for i in range(len(G.elements)) if rng.random() < 0.5]
                vals = [field.one() if i in subset else field.zero()
                        for i in range(len(G.elements))]
                lam = LambdaFunctional.from_values(Hd, vals)
                assert check_dual_k_partial_action_criterion(lam, G).agrees
                dual_checked += 1
                if subset and not field.char_divides(len(subset)):
                    scale = field.inv(field.from_int(len(subset)))
                    scaled = LambdaFunctional.from_values(
                        Hd, [v * scale for v in vals])
                    assert check_dual_k_partial_action_criterion(scaled, G).agrees
                    dual_checked += 1
    assert dual_checked >= 20
    note(6, f"V-group criterion agreed with the λ checker on {checked} random "
            f"indicators on kG and {dual_checked} functionals on (kG)* over "
            f"Q, GF(2), GF(3), including the characteristic clause")


def test_criterion_07_equivalence_round_trip():
    examples = gpa_examples(QQ)
    assert len(examples) >= 5
    assert any(gpa.coalgebra.space.dim == 2
               and len(gpa.groupoid.identities) == 2 for _, gpa in examples)
    for name, gpa in examples:
        assert validate_groupoid_partial_action(gpa).ok, name
        act = to_kG_action(gpa)
        v = check_partial_module_coalgebra(act)
        assert v.is_partial and v.is_symmetric, name
        back = from_kG_action(act, gpa.groupoid)
        assert gpa.same_maps(back), name
        assert to_kG_action(back).slices == act.slices, name
    note(7, f"groupoid-action ↔ algebra-action round trips are exact matrix "
            f"identities on {len(examples)} constructed examples")


def action_corpus():
    out = []
    G = disjoint_union_of_cyclic([2, 3])
    Ce = groupoid_algebra(cyclic_group_groupoid(2), QQ).coalg
    act, _ = isotropy_lambda_action(G, QQ, "g1.e", carrier=Ce)
    out.append(("isotropy-indicator", act))
    H = groupoid_algebra(G, QQ)
    lam = LambdaFunctional.indicator(H, [g for g in G.elements if g.startswith("g1.")])
    out.append(("component-indicator", lambda_action(lam, nilpotent_coalgebra(QQ))))
    out.append(("regular", regular_action(H)))
    H2 = groupoid_algebra(cyclic_group_groupoid(2), QQ)
    proj = LinMap.from_rows(H2.space, H2.space, [[1, 0], [0, 0]])
    out.append(("induced", induce_partial_action(regular_action(H2), proj).action))
    for name, gpa in gpa_examples(QQ):
        out.append((f"gpa-{name}", to_kG_action(gpa)))
    return out


def test_criterion_08_dualization_round_trip():
    corpus = action_corpus()
    for name, act in corpus:
        vc = check_partial_module_coalgebra(act)
        assert vc.is_partial, name
        dual = dualize_coalgebra_action(act)
        back = undualize_algebra_action(dual, act.carrier)
        assert back.slices == act.slices, name
        assert dualize_coalgebra_action(back).slices == dual.slices, name
        va = check_partial_module_algebra(dual)
        for pmc, pma in zip(vc.report.results, va.report.results):
            assert pmc.passed == pma.passed, (name, pmc.label)
        assert vc.symmetric.passed == va.symmetric.passed, name
        assert is_global(vc) == is_global(va), name
    note(8, f"dualize∘undualize is the exact identity and PMC↔PMA verdicts "
            f"transfer axiom-by-axiom on {len(corpus)} corpus actions")


def closing_examples():
    G1 = disjoint_union_of_cyclic([2, 3])
    H1 = groupoid_algebra(G1, QQ)
    lam1 = LambdaFunctional.indicator(H1, ["g1.e"])
    a1 = lambda_action(lam1, grouplike_coalgebra(QQ, ["c0", "c1"]), "right")
    G2 = two_object_iso_groupoid()
    H2 = groupoid_algebra(G2, QQ)
    lam2 = LambdaFunctional.indicator(H2, ["e"])
    a2 = lambda_action(lam2, nilpotent_coalgebra(QQ), "right")
    return [("disjoint-components", a1, "g1.e"), ("isotropy-group", a2, "e")]


def test_criterion_09_globalization_of_closing_examples():
    for name, act, e_label in closing_examples():
        e = next(g for g in find_basis_grouplikes(act) if g.label == e_label)
        gt = standard_globalization(act, e)
        rep = check_globalization(gt)
        assert rep.ok, (name, rep.failures)
        # the induced action θ(c) ↼ᵢ h = π(θ(c)◂h) equals θ(c↼h) exactly
        for k in range(act.hopf.space.dim):
            assert (gt.theta @ act.slices[k]
                    == gt.pi @ gt.global_act.slices[k] @ gt.theta), name
    note(9, "the standard globalization of both closing λ-examples passes "
            "every checker clause and recovers the partial action exactly")


def test_criterion_10_dual_globalization_biconditional():
    triples = []
    for name, act, e_label in closing_examples():
        e = next(g for g in find_basis_grouplikes(act) if g.label == e_label)
        triples.append((name, standard_globalization(act, e)))
    for name, gt in triples:
        res = dual_globalization_transfer(gt)
        assert res.coalgebra_report.ok and res.algebra_report.ok, name

    name, gt = triples[0]
    lam0 = LambdaFunctional.indicator(gt.partial.hopf, ["g1.e", "g1.a"])
    mutations = [
        ("corrupt-pi", GlobalizationTriple(
            gt.partial, gt.D, gt.global_act, gt.theta, gt.pi.scale(2))),
        ("corrupt-theta", GlobalizationTriple(
            gt.partial, gt.D, gt.global_act, gt.theta.scale(2), gt.pi)),
        ("break-generation", GlobalizationTriple(
            gt.partial, gt.D, lambda_action(lam0, gt.D, "right"),
            gt.theta, gt.pi)),
    ]
    for mname, bad in mutations:
        res = dual_globalization_transfer(bad)
        assert not res.coalgebra_report.ok, mname
        assert not res.algebra_report.ok, mname
    note(10, "valid triples transfer to passing algebra globalizations; all "
             "three mutations (π, θ, generation) fail on both sides")


# -- criterion 11: seeded mutation sensitivity --------------------------------

def _corrupt_tensor3(entries, i, j, k, field):
    out = [[list(row) for row in plane] for plane in entries]
    out[i][j][k] = out[i][j][k] + field.one()
    return out


def _mutated_weak_hopf_detected(H, rng):
    field = H.field
    n = H.space.dim
    part = rng.choice(["mul", "comul", "antipode", "counit", "unit"])
    i, j, k = (rng.randrange(n) for _ in range(3))
    alg, coalg, antipode = H.alg, H.coalg, H.antipode
    if part == "mul":
        entries = _corrupt_tensor3(dense_entries(alg.mul), i, j, k, field)
        alg = AlgebraData.from_tensor(H.space, entries, H.unit.coords)
    elif part == "comul":
        entries = _corrupt_tensor3(dense_entries(coalg.comul), i, j, k, field)
        coalg = CoalgebraData.from_tensor(H.space, entries, coalg.counit.rows[0])
    elif part == "antipode":
        rows = [list(r) for r in antipode.rows]
        rows[i][j] = rows[i][j] + field.one()
        antipode = LinMap.from_rows(H.space, H.space, rows)
    elif part == "counit":
        row = list(coalg.counit.rows[0])
        row[i] = row[i] + field.one()
        coalg = CoalgebraData(H.space, coalg.comul,
                              LinMap.from_rows(H.space, coalg.counit.codomain, [row]))
    else:
        coords = list(H.unit.coords)
        coords[i] = coords[i] + field.one()
        alg = AlgebraData(H.space, alg.mul, Vector.from_coords(H.space, coords))
    bad = WeakHopfData(WeakBialgebraData(alg, coalg), antipode)
    if not check_weak_hopf(bad).ok:
        return True
    return not check_identities(bad).ok


def _mutated_action_detected(act, rng):
    n = act.hopf.space.dim
    m = act.space.dim
    i = rng.randrange(n)
    r = rng.randrange(m)
    c = rng.randrange(m)
    field = act.hopf.field
    slices = list(act.slices)
    rows = [list(row) for row in slices[i].rows]
    rows[r][c] = rows[r][c] + field.one()
    slices[i] = LinMap.from_rows(act.space, act.space, rows)
    bad = ActionTensor.from_slices(act.hopf, act.carrier, act.side, slices)
    v = check_partial_module_coalgebra(bad)
    return not (v.is_partial and v.is_symmetric)


def _mutated_gpa_detected(gpa, rng):
    g = rng.choice(gpa.groupoid.elements)
    which = rng.choice(["P", "theta"])
    m = gpa.coalgebra.space.dim
    r, c = rng.randrange(m), rng.randrange(m)
    field = gpa.coalgebra.space.field
    projections = dict(gpa.projections)
    isos = dict(gpa.isos)
    target = projections if which == "P" else isos
    rows = [list(row) for row in target[g].rows]
    rows[r][c] = rows[r][c] + field.one()
    target[g] = LinMap.from_rows(gpa.coalgebra.space, gpa.coalgebra.space, rows)
    bad = GroupoidPartialAction(gpa.groupoid, gpa.coalgebra, projections, isos)
    return not validate_groupoid_partial_action(bad).ok


def _mutated_triple_detected(gt, rng):
    which = rng.choice(["theta", "pi", "global"])
    field = gt.D.space.field
    if which == "global":
        n = gt.partial.hopf.space.dim
        m = gt.D.space.dim
        slices = list(gt.global_act.slices)
        i = rng.randrange(n)
        rows = [list(row) for row in slices[i].rows]
        rows[rng.randrange(m)][rng.randrange(m)] += field.one()
        slices[i] = LinMap.from_rows(gt.D.space, gt.D.space, rows)
        bad = GlobalizationTriple(
            gt.partial, gt.D,
            ActionTensor.from_slices(gt.partial.hopf, gt.D, "right", slices),
            gt.theta, gt.pi)
    else:
        target = gt.theta if which == "theta" else gt.pi
        rows = [list(row) for row in target.rows]
        rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += field.one()
        mutated = LinMap.from_rows(target.domain, target.codomain, rows)
        if which == "theta":
            bad = GlobalizationTriple(gt.partial, gt.D, gt.global_act, mutated, gt.pi)
        else:
            bad = GlobalizationTriple(gt.partial, gt.D, gt.global_act, gt.theta, mutated)
    return not check_globalization(bad).ok


def test_criterion_11_mutation_sensitivity():
    # The corpus seed is frozen: a uniformly random single-entry corruption
    # can land on a DIFFERENT valid structure (e.g. turning the zero slice of
    # an involution into a diagonal idempotent yields another genuine partial
    # action), which no sound checker can flag.  Every mutation in this
    # corpus breaks validity, and exactness makes detection deterministic.
    rng = random.Random(5)
    H = groupoid_algebra(disjoint_union_of_cyclic([2, 3]), QQ)
    Ce = groupoid_algebra(cyclic_group_groupoid(2), QQ).coalg
    act, _ = isotropy_lambda_action(disjoint_union_of_cyclic([2, 3]), QQ,
                                    "g1.e", carrier=Ce)
    gpa = gpa_examples(QQ)[1][1]   # the two-object example
    _, ract, e_label = closing_examples()[0]
    e = next(g for g in find_basis_grouplikes(ract) if g.label == e_label)
    gt = standard_globalization(ract, e)

    detected = 0
    total = 50
    for trial in range(total):
        kind = trial % 4
        if kind == 0:
            detected += _mutated_weak_hopf_detected(H, rng)
        elif kind == 1:
            detected += _mutated_action_detected(act, rng)
        elif kind == 2:
            detected += _mutated_gpa_detected(gpa, rng)
        else:
            detected += _mutated_triple_detected(gt, rng)
    assert detected == total, f"only {detected}/{total} corruptions detected"
    note(11, f"all {total} seeded single-entry corruptions were detected, "
             f"split over weak-Hopf data, action tensors, groupoid actions "
             f"and globalization triples")
