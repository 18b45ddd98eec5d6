"""A sparse kernel may hand back a stored column itself (one term with
coefficient 1), so no check may mutate a stored column or a kernel result.

Every checker runs on the shipped families with their stored columns deep-copied
before the run and compared after it, and the kernels are watched in every
module that imports them: the columns they hand back by reference must be
stored columns, nonzero and (over GF(7)) reduced into 1..p−1.
"""

import copy
import importlib
from contextlib import contextmanager

import pytest

from conftest import gpa_examples, grouplike_coalgebra, isotropy_lambda_action, regular_action

from weakhopf import (
    QQ,
    ActionTensor,
    AlgebraData,
    CoalgebraData,
    FiniteAbelianGroup,
    GlobalizationTriple,
    GroupoidPartialAction,
    LambdaFunctional,
    LinMap,
    PrimeField,
    Subspace,
    Vector,
    WeakHopfData,
    abelian_group_weak_hopf,
    check_globalization,
    check_identities,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
    check_weak_hopf,
    disjoint_union_of_cyclic,
    dual_globalization_transfer,
    dual_groupoid_algebra,
    dualize_coalgebra_action,
    find_basis_grouplikes,
    from_kG_action,
    groupoid_algebra,
    is_hopf,
    lambda_action,
    standard_globalization,
    to_kG_action,
    two_object_iso_groupoid,
    validate_groupoid_partial_action,
)
from weakhopf.weak_hopf import pointwise_product

KERNEL_MODULES = ("tensor_space", "elimination", "structures", "axioms", "weak_hopf",
                  "weak_axioms", "hopf", "identities", "actions", "partial_actions",
                  "groupoid_actions", "globalization")


def stored_columns(*objs) -> list:
    """The column dicts (and unit terms) that the given objects store."""
    out = []
    for x in objs:
        if isinstance(x, LinMap):
            out += x.cols
        elif isinstance(x, Vector):
            out.append(x.terms)
        elif isinstance(x, AlgebraData):
            out += stored_columns(x.mul, x.unit)
        elif isinstance(x, CoalgebraData):
            out += stored_columns(x.comul, x.counit)
        elif isinstance(x, WeakHopfData):
            out += stored_columns(x.alg, x.coalg, x.antipode)
        elif isinstance(x, ActionTensor):
            out += stored_columns(x.hopf, x.carrier, *x.slices)
        elif isinstance(x, GroupoidPartialAction):
            out += stored_columns(x.coalgebra, *x.projections.values(), *x.isos.values())
        elif isinstance(x, GlobalizationTriple):
            out += stored_columns(x.partial, x.D, x.global_act, x.theta, x.pi)
        else:
            raise TypeError(f"no stored columns known for {x!r}")
    return out


@contextmanager
def unchanged(*objs):
    cols = stored_columns(*objs)
    before = copy.deepcopy(cols)
    yield
    assert cols == before


@pytest.fixture
def handed_back(monkeypatch) -> list:
    """The results the sparse kernels return by reference to an operand."""
    out = []

    def watch_combine(kernel):
        def combine(cols, terms, p):
            terms = list(terms)
            got = kernel(cols, terms, p)
            if any(got is cols[k] for k, _ in terms):
                out.append(got)
            return got
        return combine

    def watch_accumulate(kernel):
        def accumulate(terms, p):
            terms = list(terms)
            got = kernel(terms, p)
            if any(got is v for v, _ in terms):
                out.append(got)
            return got
        return accumulate

    watchers = {"_combine": watch_combine, "_accumulate": watch_accumulate}
    for name in KERNEL_MODULES:
        module = importlib.import_module(f"weakhopf.{name}")
        for kernel, watch in watchers.items():
            if hasattr(module, kernel):
                monkeypatch.setattr(module, kernel, watch(getattr(module, kernel)))
    return out


def shipped_families(field):
    groupoids = [("Z2+Z3", disjoint_union_of_cyclic([2, 3])),
                 ("two-object-iso", two_object_iso_groupoid())]
    for name, G in groupoids:
        yield f"kG of {name}", groupoid_algebra(G, field), G
        yield f"(kG)* of {name}", dual_groupoid_algebra(G, field), None
    yield "averaged Z/3", abelian_group_weak_hopf(FiniteAbelianGroup((3,)), field), None


def run_every_check(field):
    for _, H, G in shipped_families(field):
        act = regular_action(H)
        with unchanged(H, act):
            check_weak_hopf(H)
            check_identities(H)
            is_hopf(H)
            check_partial_module_coalgebra(act)
            dual = dualize_coalgebra_action(act)
        with unchanged(H, act, dual):
            check_partial_module_algebra(dual)
        if G is not None:
            # what whw equiv runs on an action document
            gpa = from_kG_action(act, G)
            with unchanged(act, gpa):
                validate_groupoid_partial_action(gpa)
                back = to_kG_action(gpa)
                assert back.slices == act.slices
                assert gpa.same_maps(from_kG_action(back, G))
            lam = lambda_action(LambdaFunctional.indicator(H, [G.elements[0]]), H.coalg, "right")
            gt = standard_globalization(lam, find_basis_grouplikes(lam)[0])
            with unchanged(lam, gt):
                check_globalization(gt)
                dual_globalization_transfer(gt)
    for _, gpa in gpa_examples(field):
        with unchanged(gpa):
            validate_groupoid_partial_action(gpa)
            check_partial_module_coalgebra(to_kG_action(gpa))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_no_check_mutates_a_stored_column_and_shared_columns_are_reduced(field, handed_back):
    run_every_check(field)
    assert handed_back, "no kernel result was a stored column"
    p = field.characteristic
    for col in handed_back:
        assert all(type(v) is int and 0 < v < p for v in col.values()) if p else all(col.values())


def watch_for_no_terms(monkeypatch, kernels=("_combine",)) -> tuple[list, list]:
    """The term lists of the calls of ``kernels`` in every module that imports
    them: (those with terms, those without)."""
    calls, empty = [], []

    def watch(kernel):
        def counted(*args):
            *cols, terms, p = args
            terms = list(terms)
            (calls if terms else empty).append(terms)
            return kernel(*cols, terms, p)
        return counted

    for name in KERNEL_MODULES:
        module = importlib.import_module(f"weakhopf.{name}")
        for kernel in kernels:
            if hasattr(module, kernel):
                monkeypatch.setattr(module, kernel, watch(getattr(module, kernel)))
    return calls, empty


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_no_kernel_call_is_made_with_no_terms_on_the_action_paths(field, monkeypatch):
    """``Subspace.contains``, ``from_kG_action``'s projections, ``LinMap.apply`` on
    a zero vector and Eq 6 of ``check_globalization`` skip ``_combine`` where
    they have no terms for it, which the λ-indicator actions give them often."""
    calls, empty = watch_for_no_terms(monkeypatch)
    G = disjoint_union_of_cyclic([2, 3])
    act, _ = isotropy_lambda_action(G, field, "g1.e")
    H = act.hopf
    e0, e1 = Vector.basis(H.space, 0), Vector.basis(H.space, 1)
    line = Subspace.from_vectors(H.space, [e0])
    assert line.contains(e0) and not line.contains(e1) and line.contains(Vector(H.space, {}))
    assert act.slices[1].apply(Vector(act.carrier.space, {})).terms == {}
    from_kG_action(act, G)
    right = lambda_action(LambdaFunctional.indicator(H, ["g1.e"]),
                          grouplike_coalgebra(field, ["c0", "c1"]), "right")
    assert check_globalization(standard_globalization(right, find_basis_grouplikes(right)[0])).ok
    assert calls and not empty, f"{len(empty)} of {len(calls) + len(empty)} calls had no terms"


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_no_kernel_call_is_made_with_no_terms_by_the_weak_hopf_checkers(field, monkeypatch):
    """The weak bialgebra axioms, associativity, S-antimult, Hopf detection and the
    products and ε∘S tables of the identity catalogue skip ``_combine`` and
    ``_accumulate`` where they have no terms: on kG the product of every
    non-composable pair is 0, and on (kG)* most products of basis vectors are."""
    calls, empty = watch_for_no_terms(monkeypatch, ("_combine", "_accumulate"))
    for name, H, _ in shipped_families(field):
        if name.startswith(("kG", "(kG)*")):
            assert check_weak_hopf(H).ok and check_identities(H).ok
            is_hopf(H)
    assert calls and not empty, f"{len(empty)} of {len(calls) + len(empty)} calls had no terms"


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_pointwise_product_walks_no_product_whose_tails_multiply_to_zero(field):
    """(a1⊗a2)(b1⊗b2) looks up a2b2 before it walks a1b1: on (kG)* most products
    of basis vectors are zero, and no pair of terms whose tails multiply to zero
    walks the product of its heads, or the empty product of its tails."""
    walked = []

    class Watched(dict):
        def items(self):
            if not self:
                walked.append(self)
            return super().items()

    H = dual_groupoid_algebra(disjoint_union_of_cyclic([2, 3]), field)
    A, n = H.alg, H.space.dim
    watched = AlgebraData(A.space, LinMap(A.mul.domain, A.space, [Watched(c) for c in A.mul.cols]),
                          A.unit)
    deltas, empty_tails = [*H.coalg.comul.columns(), H.wb.delta_one], 0
    for x in deltas:
        for y in deltas:
            assert pointwise_product(watched, 2, x, y) == pointwise_product(A, 2, x, y)
            empty_tails += sum(1 for i in x.terms for j in y.terms
                               if A.mul.cols[i // n * n + j // n] and not A.mul.cols[i % n * n + j % n])
    assert empty_tails and not walked, f"{len(walked)} empty products walked"
