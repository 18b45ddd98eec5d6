"""Partial actions of a weak Hopf algebra beyond the axiom checkers of
:mod:`actions`: actions by a linear functional λ and their group criteria,
actions induced from a global one through a projection, and partial
groupoid actions on a coalgebra together with the equivalence with
symmetric partial groupoid-algebra actions.
"""

from __future__ import annotations

from functools import cache

from .errors import (
    Frozen,
    InputNotPartialAction,
    NotDirectSum,
    NotIdempotent,
    NotSymmetric,
    ShapeMismatch,
)
from .report import (CheckResult, Report, compare_maps, compare_scalars, compare_vectors,
                     first_failure)
from .structures import LEFT, CoalgebraData, WeakHopfData, _pair_label
from .tensor_space import (
    FinVec,
    LinMap,
    Subspace,
    Vector,
    _accumulate,
    _combine,
    _kron,
    left_inverse_on_image,
)

# the action core is imported where an action is built or checked, so that the
# λ conditions load none of it; its names are still offered here
_ACTION_CORE = {"ActionTensor", "check_module_algebra", "check_module_coalgebra",
                "check_partial_module_algebra", "check_partial_module_coalgebra"}


def __getattr__(name):
    if name not in _ACTION_CORE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import actions
    return getattr(actions, name)


def check_ht_hs_propositions(act: ActionTensor) -> Report:
    """Identities forced on a left partial action by elements of the target
    subalgebra (and of the source subalgebra when the action is symmetric):
    the action of H_t composes strictly, Δ(h·c) = h·c₁ ⊗ c₂, and the
    globality criterion holds on H_t; mirrored statements on H_s."""
    from .actions import _require_coalgebra, check_partial_module_coalgebra

    C = _require_coalgebra(act)
    if act.side != LEFT:
        raise ShapeMismatch("the H_t/H_s propositions are stated for left actions")
    H = act.hopf
    rep = Report("H_t and H_s action identities")
    ident = LinMap.identity(C.space)
    n = H.space.dim

    def strict_composition(basis_vectors):
        for h in basis_vectors:
            ah = act.act_by(h)
            for k in range(n):
                yield (h, k), compare_maps(
                    "", ah @ act.slices[k], act.act_by(H.product(h, Vector.basis(H.space, k))))

    def per_h(basis_vectors, sides):
        return ((h, compare_maps("", *sides(h, act.act_by(h)))) for h in basis_vectors)

    def at_h(h: Vector) -> str:
        return f"h={h.describe()}; "

    def at_hk(hk) -> str:
        return f"h={hk[0].describe()}, k={H.space.labels[hk[1]]}; "

    rep.add(first_failure("Ht-(i)", strict_composition(H.Ht.basis_vectors), at_hk))
    rep.add(first_failure("Ht-(ii)", per_h(H.Ht.basis_vectors, lambda h, ah: (
        C.comul @ ah, ah.tensor(ident) @ C.comul)), at_h))
    rep.add(first_failure("Ht-(iii)", per_h(H.Ht.basis_vectors, lambda h, ah: (
        C.counit @ ah, C.counit @ act.act_by(H.eps_s.apply(h)))), at_h))
    if check_partial_module_coalgebra(act).is_symmetric:
        rep.add(first_failure("Hs-(i)", strict_composition(H.Hs.basis_vectors), at_hk))
        rep.add(first_failure("Hs-(ii)", per_h(H.Hs.basis_vectors, lambda h, ah: (
            C.comul @ ah, ident.tensor(ah) @ C.comul)), at_h))
    return rep


# ---------------------------------------------------------------------------
# λ-characterised actions
# ---------------------------------------------------------------------------

class LambdaFunctional(Frozen):
    """A linear functional on H, as its values on the basis."""

    def __init__(self, hopf: WeakHopfData, values: tuple):
        if len(values) != hopf.space.dim:
            raise ShapeMismatch("need one value per basis vector of H")
        self.__dict__.update(hopf=hopf, values=values)

    @classmethod
    def from_values(cls, hopf: WeakHopfData, values) -> "LambdaFunctional":
        f = hopf.field
        return cls(hopf, tuple(f.coerce(v) for v in values))

    @classmethod
    def indicator(cls, hopf: WeakHopfData, labels) -> "LambdaFunctional":
        wanted = set(labels)
        f = hopf.field
        return cls(hopf, tuple(
            f.one() if l in wanted else f.zero() for l in hopf.space.labels))

    def of_terms(self, terms: dict):
        """λ of the element with the sparse coordinates ``terms``."""
        return sum((c * self.values[i] for i, c in sorted(terms.items())), self.hopf.field.zero())


def lambda_action(lf: LambdaFunctional, C: CoalgebraData, side: str = LEFT) -> ActionTensor:
    """The scaling action h⊗c ↦ λ(h)c (or c⊗h ↦ λ(h)c on the right)."""
    from .actions import ActionTensor

    ident = LinMap.identity(C.space)
    slices = [ident.scale(v) for v in lf.values]
    return ActionTensor(lf.hopf, C, side, slices)


class LambdaVerdict:
    def __init__(self, report: Report, symmetric: CheckResult | None, globality: CheckResult):
        self.report = report
        self.symmetric = symmetric
        self.globality = globality

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def is_symmetric(self) -> bool:
        return self.ok and self.symmetric is not None and self.symmetric.passed


def check_lambda_global(lf: LambdaFunctional) -> LambdaVerdict:
    """The functional identities equivalent to λ inducing a global module
    coalgebra: λ(1) = 1, λ = (λ⊗λ)Δ, and multiplicativity."""
    H = lf.hopf
    f = H.field
    rep = Report("global λ-action conditions")
    rep.add(compare_scalars("(i)", f, lf.of_terms(H.unit.terms), f.one(), context="λ(1_H)"))
    n = H.space.dim
    lam = lf.values
    rep.add(first_failure("(ii)", (
        (i, compare_scalars("", f, lam[i], sum((c * lam[p] * lam[q]
                                                for p, q, c in H.coalg.delta_pairs(i)), f.zero())))
        for i in range(n)), lambda i: f"h={H.space.labels[i]}: "))
    rep.add(first_failure("(iii)", (
        ((i, j), compare_scalars("", f, lam[i] * lam[j], lf.of_terms(H.alg.mul.cols[i * n + j])))
        for i in range(n) for j in range(n)), lambda ij: f"{_pair_label(H.space, *ij)}: "))

    globality = _lambda_globality(lf, LEFT)
    return LambdaVerdict(rep, None, globality)


def _lambda_globality(lf: LambdaFunctional, side: str) -> CheckResult:
    H = lf.hopf
    twist = H.eps_s if side == LEFT else H.eps_t
    return first_failure("globality", (
        (i, compare_scalars("", H.field, lf.values[i], lf.of_terms(twist.cols[i])))
        for i in range(H.space.dim)), lambda i: f"h={H.space.labels[i]}: ")


def check_lambda_partial(lf: LambdaFunctional, side: str = LEFT) -> LambdaVerdict:
    """The functional identities equivalent to λ inducing a partial module
    coalgebra on every coalgebra, plus the symmetric and globality variants.
    The verdict is kept on λ, one per side, as ``cached_property`` would."""
    if (verdict := lf.__dict__.get(f"_{side}_verdict")) is None:
        verdict = lf.__dict__[f"_{side}_verdict"] = _lambda_partial(lf, side)
    return verdict


def _lambda_partial(lf: LambdaFunctional, side: str) -> LambdaVerdict:
    H = lf.hopf
    f = H.field
    rep = Report(f"{side} partial λ-action conditions")
    rep.add(compare_scalars("(i)", f, lf.of_terms(H.unit.terms), f.one(), context="λ(1_H)"))

    n = H.space.dim
    lam = lf.values
    left = side == LEFT
    lam_prod = [lf.of_terms(col) for col in H.alg.mul.cols]

    def correction(i: int, j: int, symmetric: bool):
        """left λ(hk₁)λ(k₂), sym λ(k₁)λ(hk₂); right λ(h₁)λ(h₂k), sym λ(h₁k)λ(h₂):
        ``plain`` is the leg of Δ(k) (resp. Δ(h)) under a bare λ."""
        plain = 1 if left != symmetric else 0
        acc = f.zero()
        for pair in H.coalg.delta_pairs(j if left else i):
            x = pair[1 - plain]
            acc = acc + pair[2] * lam_prod[i * n + x if left else x * n + j] * lam[pair[plain]]
        return acc

    def scan(label: str, symmetric: bool) -> CheckResult:
        return first_failure(label, (
            ((i, j), compare_scalars("", f, lam[i] * lam[j], correction(i, j, symmetric)))
            for i in range(n) for j in range(n)), lambda ij: f"{_pair_label(H.space, *ij)}: ")

    rep.add(scan("(ii)", symmetric=False))
    symmetric = scan("symmetric", symmetric=True)
    globality = _lambda_globality(lf, side)
    return LambdaVerdict(rep, symmetric, globality)


class GroupCriterionVerdict:
    """Agreement between the λ-condition checker and the subset criterion for
    actions of a groupoid algebra (or its dual) on the ground field."""

    def __init__(self, V: tuple[str, ...], v_is_group: bool, group_failure: str | None,
                 values_match: bool, char_ok: bool, partial: bool):
        self.V = V
        self.v_is_group = v_is_group
        self.group_failure = group_failure
        self.values_match = values_match
        self.char_ok = char_ok
        self.partial = partial

    @property
    def criterion(self) -> bool:
        return self.v_is_group and self.values_match and self.char_ok

    @property
    def agrees(self) -> bool:
        return self.criterion == self.partial

    def report(self, title: str) -> Report:
        rep = Report(title)
        rep.add(CheckResult("V-is-group", self.v_is_group, self.group_failure))
        rep.add(CheckResult("values-match", self.values_match))
        rep.add(CheckResult("char-ok", self.char_ok))
        rep.add(CheckResult("criterion==partial", self.agrees,
                            f"criterion={self.criterion}, partial={self.partial}"
                            if not self.agrees else None))
        return rep


def _subset_is_group(G: FiniteGroupoid, V) -> tuple[bool, str | None]:
    V = list(V)
    if not V:
        return False, "V is empty"
    vset = set(V)
    for g in V:
        if G.inv[g] not in vset:
            return False, f"inverse of {g} missing"
        for h in V:
            gh = G.product(g, h)
            if gh is None:
                return False, f"({g},{h}) not composable"
            if gh not in vset:
                return False, f"{g}{h} = {gh} escapes V"
    return True, None


def _group_criterion(lf: LambdaFunctional, G: FiniteGroupoid, in_V,
                     value_on) -> GroupCriterionVerdict:
    """The verdict for V = {g : in_V(λ, g)}, with λ read as a dict on G, when λ
    must be ``value_on(|V|)`` on V and 0 off it; ``value_on`` gives None where
    the characteristic divides |V|."""
    if lf.hopf.space.dim != len(G.elements):
        raise ShapeMismatch("functional does not live on the (dual) groupoid algebra")
    lam = dict(zip(G.elements, lf.values))
    V = tuple(g for g in G.elements if in_V(lam, g))
    is_group, why = _subset_is_group(G, V)
    expected, vset, zero = value_on(len(V)), set(V), lf.hopf.field.zero()
    values_match = expected is not None and all(
        v == (expected if g in vset else zero) for g, v in lam.items())
    return GroupCriterionVerdict(V, is_group, why, values_match, expected is not None,
                                 check_lambda_partial(lf).ok)


def check_k_partial_action_group_criterion(
        lf: LambdaFunctional, G: FiniteGroupoid) -> GroupCriterionVerdict:
    """For a groupoid algebra acting on the ground field through λ: the action
    is partial iff λ is the indicator of V = {g : λ(δ_g) = 1 = λ(δ_{d(g)})}
    and V is a group."""
    one = lf.hopf.field.one()
    return _group_criterion(lf, G, lambda lam, g: lam[g] == one == lam[G.d[g]],
                            lambda size: one)


def check_dual_k_partial_action_criterion(
        lf: LambdaFunctional, G: FiniteGroupoid) -> GroupCriterionVerdict:
    """For the dual groupoid algebra acting on the ground field through λ:
    partial iff V = {g : λ(p_g) ≠ 0 ≠ λ(p_{g⁻¹})} is a group, the
    characteristic does not divide |V|, and λ = (1/|V|)·1_V."""
    f = lf.hopf.field
    return _group_criterion(lf, G, lambda lam, g: lam[g] and lam[G.inv[g]], lambda size: (
        f.inv(f.from_int(size)) if size and not f.char_divides(size) else None))


# ---------------------------------------------------------------------------
# partial actions induced from a global one
# ---------------------------------------------------------------------------

class InducedActionResult:
    """The candidate ``action`` on D in D coordinates, the ``report`` of
    conditions (i) and (ii), and the ``inclusion`` D → C."""

    def __init__(self, action: ActionTensor, report: Report, symmetric: CheckResult,
                 D: CoalgebraData, inclusion: LinMap):
        self.action = action
        self.report = report
        self.symmetric = symmetric
        self.D = D
        self.inclusion = inclusion

    @property
    def ok(self) -> bool:
        return self.report.ok


def induce_partial_action(global_act: ActionTensor, proj: LinMap) -> InducedActionResult:
    """Restrict a global left module-coalgebra action through a projection π
    onto a subcoalgebra D = π(C): the candidate action is h⊗d ↦ π(h▷d).

    The report records the two conditions equivalent to the candidate being
    a partial action: (i) (π⊗π)Δ(h▷d) = Δ(π(h▷d)), as two composite maps
    D → C⊗C per h, and (ii) the counit-weighted composition rule, which with
    its symmetric variant is PMC3 of the candidate, decided in the action
    pair scan.  D is a subcoalgebra and ι is injective, so a case fails in D
    coordinates iff it fails in C coordinates, where its witness is written.
    """
    from .actions import (ActionTensor, _pair_checks, _pmc3_rhs, _require_coalgebra,
                          check_module_coalgebra)

    C = _require_coalgebra(global_act)
    if global_act.side != LEFT:
        raise ShapeMismatch("induction is implemented for left actions")
    if not check_module_coalgebra(global_act).ok:
        raise InputNotPartialAction("the ambient action is not a global module coalgebra")
    if proj.domain != C.space or proj.codomain != C.space:
        raise ShapeMismatch("projection must be an endomorphism of the carrier")
    if proj @ proj != proj:
        raise NotIdempotent("π∘π ≠ π")

    H = global_act.hopf
    d_vectors = Subspace.from_vectors(C.space, proj.columns()).basis_vectors
    dspace = FinVec(C.space.field, tuple(f"d{i}" for i in range(len(d_vectors))))
    incl = LinMap.from_images(dspace, C.space, d_vectors)
    back = left_inverse_on_image(incl)
    D = C.restrict(incl, back)
    # π∘(h_i·–)∘ι, and the action in D coordinates: back∘π∘(h_i·–)∘ι
    moved = [proj @ (s @ incl) for s in global_act.slices]
    induced = ActionTensor(H, D, LEFT, [back @ s for s in moved])

    rep = Report("induced partial action conditions")
    squared, where = proj.tensor(proj) @ C.comul, (C.field, C.comul.codomain.labels.__getitem__)
    rep.add(first_failure("(i)", (
        ((i, d), compare_vectors("", a, b, where))
        for i, s in enumerate(global_act.slices)
        for d, (a, b) in enumerate(zip((squared @ (s @ incl)).cols, (C.comul @ moved[i]).cols))),
        lambda c: f"h={H.space.labels[c[0]]}, d={d_vectors[c[1]].describe()}; "))

    def witness(lhs: tuple, rhs: tuple) -> str:
        """The first failing d, with its columns mapped back into C by ι."""
        d = next(d for d, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
        diff = compare_vectors("", *(incl.apply(Vector(dspace, side[d])) for side in (lhs, rhs)))
        return f", d={d_vectors[d].describe()}; {diff.witness}"

    two, symmetric = _pair_checks(induced, {"(ii)": _pmc3_rhs(induced, symmetric=False),
                                            "symmetric": _pmc3_rhs(induced, symmetric=True)},
                                  witness)
    rep.add(two)
    return InducedActionResult(induced, rep, symmetric, D, incl)


# ---------------------------------------------------------------------------
# groupoid partial actions on coalgebras
# ---------------------------------------------------------------------------

class GroupoidPartialAction:
    """A family of subcoalgebras C_g = im(P_g) with isomorphisms
    θ_g: C_{g⁻¹} → C_g, stored as carrier endomorphisms vanishing off their
    supports."""

    def __init__(self, groupoid: FiniteGroupoid, coalgebra: CoalgebraData, projections: dict,
                 isos: dict):
        self.groupoid = groupoid
        self.coalgebra = coalgebra
        self.projections = projections
        self.isos = isos

    def P(self, g: str) -> LinMap:
        return self.projections[g]

    def theta(self, g: str) -> LinMap:
        return self.isos[g]

    def subcoalgebra(self, g: str) -> Subspace:
        return Subspace.from_vectors(self.coalgebra.space, self.P(g).columns())

    def same_maps(self, other: "GroupoidPartialAction") -> bool:
        return (
            self.groupoid.elements == other.groupoid.elements
            and all(self.P(g) == other.P(g) for g in self.groupoid.elements)
            and all(self.theta(g) == other.theta(g) for g in self.groupoid.elements)
        )


def validate_groupoid_partial_action(gpa: GroupoidPartialAction) -> Report:
    """All defining conditions of a partial groupoid action on a coalgebra,
    their first consequences, and coalgebra-isomorphism checks for every θ_g."""
    G = gpa.groupoid
    C = gpa.coalgebra
    rep = Report("groupoid partial action")

    missing = [g for g in G.elements if g not in gpa.projections or g not in gpa.isos]
    rep.add(CheckResult("shapes", not missing,
                        f"missing maps for {missing}" if missing else None))
    if missing:
        return rep

    m, p, labels = C.space.dim, C.field.characteristic, C.space.labels
    P, TH = ({g: f(g).cols for g in G.elements}.__getitem__ for f in (gpa.P, gpa.theta))
    inv, r, mul, comul, counit = G.inv, G.r, G.mul, C.comul.cols, C.counit.cols

    def comp(*maps) -> tuple:
        """The composite of maps given as column tuples, applied right to left:
        an empty column passes through, and a zero composite ends the product."""
        out = maps[-1]
        for f in reversed(maps[:-1]):
            if not any(out):
                break
            out = tuple(col and _combine(f, col.items(), p) for col in out)
        return out

    def square(f, cols) -> tuple:
        """f⊗f applied to columns on C⊗C."""
        return tuple(_accumulate(((_kron(f[t // m], f[t % m], m, p), c) for t, c in col.items()), p)
                     for col in cols)

    # the composites that two sides share are built once per element or pair
    # (exact composition is associative): θ_g∘P_{g⁻¹}, θ_h∘P_{(gh)⁻¹}∘P_{h⁻¹},
    # θ_{g⁻¹}∘θ_g, Δ∘P_g and ε∘P_g
    th_p = cache(lambda g: comp(TH(g), P(inv[g])))
    th_p_p = cache(lambda gh: comp(TH(gh[1]), P(inv[mul[gh]]), P(inv[gh[1]])))
    th_th = cache(lambda g: comp(TH(inv[g]), TH(g)))
    comul_p, eps_p = (cache(lambda g, f=f: comp(f, P(g))) for f in (comul, counit))

    def quasi(g: str, flip: bool) -> tuple:
        """Σ ε(P_g(c₂))P_{r(g)}(c₁), or with the legs of Δ(c) flipped."""
        eps = [col.get(0) for col in eps_p(g)]
        return tuple(_combine(P(r[g]), [(t[flip], t[2] * eps[t[not flip]])
                                         for t in C.delta_pairs(c) if eps[t[not flip]]], p)
                     for c in range(m))

    sub = cache(gpa.subcoalgebra)       # each C_g is eliminated once

    def iso_check(g: str) -> CheckResult:
        dom = sub(inv[g])
        img = Subspace.from_vectors(C.space, [gpa.theta(g).apply(v) for v in dom.basis_vectors])
        if img != sub(g):
            return CheckResult("", False, "θ image differs from C_g")
        if dom.dim != img.dim:
            return CheckResult("", False, "θ not injective on C_{g⁻¹}")
        return CheckResult("", True)

    def maps(lhs, rhs, cod=labels):     # cod: the codomain labels
        where = (C.field, lambda j, i: (labels[j], cod[i]))
        return lambda x: (a := lhs(x)) == (b := rhs(x)) or compare_maps("", a, b, where)

    CC, K = C.comul.codomain.labels, C.counit.codomain.labels     # the labels of C⊗C and k
    elements = G.elements
    comp_pairs = sorted(G.composable)
    # Eq 1 is symmetric, and it holds at g = h with both sides one composite
    pairs = [(g, h) for a, g in enumerate(elements) for h in elements[a + 1:]]
    conditions = [
        ("theta-support", elements, maps(TH, th_p)),
        ("(i)-projection", elements, maps(lambda g: comp(P(g), P(g)), P)),
        ("(i)-comulti", elements, maps(lambda g: square(P(g), comul), comul_p, CC)),
        ("(i)-quasi-a", elements, maps(lambda g: quasi(g, flip=False), P)),
        ("(i)-quasi-b", elements, maps(lambda g: quasi(g, flip=True), P)),
        ("(ii)-theta-objects", G.identities, maps(TH, P)),
        ("Eq 1", pairs, maps(lambda gh: comp(P(gh[0]), P(gh[1])),
                             lambda gh: comp(P(gh[1]), P(gh[0])))),
        ("Eq 2", comp_pairs, maps(lambda gh: comp(th_p(inv[gh[1]]), P(inv[gh[0]])),
                                  lambda gh: comp(P(inv[mul[gh]]), th_p(inv[gh[1]])))),
        ("Eq 3", comp_pairs, maps(lambda gh: comp(TH(gh[0]), th_p_p(gh)),
                                  lambda gh: comp(th_p(mul[gh]), P(inv[gh[1]])))),
        ("Eq 4", elements, maps(lambda g: comp(P(r[g]), P(g)), P)),
        ("Lemma-(i)a", elements, maps(lambda g: comp(TH(r[g]), TH(g)), TH)),
        ("Lemma-(i)b", elements, maps(lambda g: comp(TH(r[g]), P(g)), P)),
        ("Lemma-(ii)a", elements, maps(th_th, lambda g: P(inv[g]))),
        ("Lemma-(ii)b", elements, maps(lambda g: th_th(inv[g]), P)),
        ("Lemma-(iii)", comp_pairs, maps(lambda gh: comp(P(inv[gh[0]]), TH(gh[1])), th_p_p)),
        ("theta-iso", elements, iso_check),
        ("theta-comult", elements, maps(lambda g: comp(comul, TH(g)),
                                        lambda g: square(TH(g), comul_p(inv[g])), CC)),
        ("theta-counit", elements, maps(lambda g: comp(counit, TH(g)), lambda g: eps_p(inv[g]), K)),
    ]
    for label, items, check in conditions:
        rep.add(first_failure(label, ((x, check(x)) for x in items), lambda x: f"at {x}: "))
    return rep


def to_kG_action(gpa: GroupoidPartialAction) -> ActionTensor:
    """The groupoid-algebra action δ_g·c = θ_g(P_{g⁻¹}(c)) attached to a
    partial groupoid action whose identity pieces decompose the carrier."""
    from .actions import ActionTensor
    from .groupoid import groupoid_algebra

    G = gpa.groupoid
    C = gpa.coalgebra
    total = LinMap.zero(C.space, C.space)
    for e in G.identities:
        total = total + gpa.P(e)
    if total != LinMap.identity(C.space):
        raise NotDirectSum("Σ_e P_e ≠ id")
    for e in G.identities:
        for f_ in G.identities:
            if e != f_ and (gpa.P(e) @ gpa.P(f_)) != LinMap.zero(C.space, C.space):
                raise NotDirectSum(f"P_{e}∘P_{f_} ≠ 0")
    hopf = groupoid_algebra(G, C.space.field)
    slices = [gpa.theta(g) @ gpa.P(G.inv[g]) for g in G.elements]
    return ActionTensor(hopf, C, LEFT, slices)


def from_kG_action(act: ActionTensor, G: FiniteGroupoid) -> GroupoidPartialAction:
    """Recover the projections and isomorphisms of a partial groupoid action
    from a symmetric partial groupoid-algebra action:
    P_g(c) = ε(δ_{g⁻¹}·c₁)(δ_{r(g)}·c₂) and θ_g = (δ_g· )∘P_{g⁻¹}."""
    from .actions import _require_coalgebra, check_partial_module_coalgebra

    C = _require_coalgebra(act)
    if act.side != LEFT or act.hopf.space.dim != len(G.elements):
        raise ShapeMismatch("expected a left action of the groupoid algebra")
    verdict = check_partial_module_coalgebra(act)
    if not (verdict.is_partial and verdict.is_symmetric):
        raise NotSymmetric("the action is not a symmetric partial module coalgebra")

    projections = {}
    isos = {}
    for g in G.elements:
        eps_gi = act.counit_table[G.index(G.inv[g])]
        r_cols = act.slices[G.index(G.r[g])].cols
        projections[g] = LinMap(C.space, C.space, [_combine(
            r_cols, [(b, cc * eps_gi[a]) for a, b, cc in C.delta_pairs(c) if a in eps_gi],
            C.field.characteristic) for c in range(C.space.dim)])
    for g in G.elements:
        isos[g] = act.slices[G.index(g)] @ projections[G.inv[g]]
    return GroupoidPartialAction(G, C, projections, isos)
