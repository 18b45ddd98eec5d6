"""Partial actions of a weak Hopf algebra beyond the axiom checkers of
:mod:`actions`: actions by a linear functional λ and their group criteria,
actions induced from a global one through a projection, and partial
groupoid actions on a coalgebra together with the equivalence with
symmetric partial groupoid-algebra actions.
"""

from __future__ import annotations

from functools import cache

# the MA/PMA checkers are not used here; they are imported so that this module
# still offers every action checker by name
from .actions import (
    LEFT,
    ActionTensor,
    _pair_label,
    _require_coalgebra,
    check_module_algebra,
    check_module_coalgebra,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
)
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
from .structures import CoalgebraData, WeakHopfData
from .tensor_space import (
    FinVec,
    LinMap,
    Subspace,
    Vector,
    _accumulate,
    _combine,
    left_inverse_on_image,
)


def check_ht_hs_propositions(act: ActionTensor) -> Report:
    """Identities forced on a left partial action by elements of the target
    subalgebra (and of the source subalgebra when the action is symmetric):
    the action of H_t composes strictly, Δ(h·c) = h·c₁ ⊗ c₂, and the
    globality criterion holds on H_t; mirrored statements on H_s."""
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

    def of_basis(self, i: int):
        return self.values[i]

    def of_vec(self, v: Vector):
        return self.of_terms(v.terms)

    def of_terms(self, terms: dict):
        """λ of the element with the sparse coordinates ``terms``."""
        return sum((c * self.values[i] for i, c in sorted(terms.items())), self.hopf.field.zero())


def lambda_action(lf: LambdaFunctional, C: CoalgebraData, side: str = LEFT) -> ActionTensor:
    """The scaling action h⊗c ↦ λ(h)c (or c⊗h ↦ λ(h)c on the right)."""
    ident = LinMap.identity(C.space)
    slices = [ident.scale(v) for v in lf.values]
    return ActionTensor.from_slices(lf.hopf, C, side, slices)


class LambdaVerdict:
    def __init__(self, report: Report, symmetric: CheckResult | None, globality: CheckResult):
        self.report = report
        self.symmetric = symmetric
        self.globality = globality

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def is_partial(self) -> bool:
        return self.ok

    @property
    def is_symmetric(self) -> bool:
        return self.ok and self.symmetric is not None and self.symmetric.passed

    @property
    def is_global(self) -> bool:
        return self.ok and self.globality.passed


def check_lambda_global(lf: LambdaFunctional) -> LambdaVerdict:
    """The functional identities equivalent to λ inducing a global module
    coalgebra: λ(1) = 1, λ = (λ⊗λ)Δ, and multiplicativity."""
    H = lf.hopf
    f = H.field
    rep = Report("global λ-action conditions")
    rep.add(compare_scalars("(i)", f, lf.of_vec(H.unit), f.one(), context="λ(1_H)"))
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
    coalgebra on every coalgebra, plus the symmetric and globality variants."""
    H = lf.hopf
    f = H.field
    rep = Report(f"{side} partial λ-action conditions")
    rep.add(compare_scalars("(i)", f, lf.of_vec(H.unit), f.one(), context="λ(1_H)"))

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


def check_k_partial_action_group_criterion(
        lf: LambdaFunctional, G: FiniteGroupoid) -> GroupCriterionVerdict:
    """For a groupoid algebra acting on the ground field through λ: the action
    is partial iff λ is the indicator of V = {g : λ(δ_g) = 1 = λ(δ_{d(g)})}
    and V is a group."""
    H = lf.hopf
    if H.space.dim != len(G.elements):
        raise ShapeMismatch("functional does not live on the groupoid algebra")
    f = H.field
    one = f.one()
    V = tuple(
        g for i, g in enumerate(G.elements)
        if lf.of_basis(i) == one and lf.of_basis(G.index(G.d[g])) == one
    )
    is_group, why = _subset_is_group(G, V)
    vset = set(V)
    values_match = all(
        lf.of_basis(i) == (one if g in vset else f.zero())
        for i, g in enumerate(G.elements)
    )
    partial = check_lambda_partial(lf).ok
    return GroupCriterionVerdict(V, is_group, why, values_match, True, partial)


def check_dual_k_partial_action_criterion(
        lf: LambdaFunctional, G: FiniteGroupoid) -> GroupCriterionVerdict:
    """For the dual groupoid algebra acting on the ground field through λ:
    partial iff V = {g : λ(p_g) ≠ 0 ≠ λ(p_{g⁻¹})} is a group, the
    characteristic does not divide |V|, and λ = (1/|V|)·1_V."""
    H = lf.hopf
    if H.space.dim != len(G.elements):
        raise ShapeMismatch("functional does not live on the dual groupoid algebra")
    f = H.field
    V = tuple(
        g for i, g in enumerate(G.elements)
        if lf.of_basis(i) != f.zero()
        and lf.of_basis(G.index(G.inv[g])) != f.zero()
    )
    is_group, why = _subset_is_group(G, V)
    char_ok = bool(V) and not f.char_divides(len(V))
    values_match = False
    if char_ok:
        expected = f.inv(f.from_int(len(V)))
        vset = set(V)
        values_match = all(
            lf.of_basis(i) == (expected if g in vset else f.zero())
            for i, g in enumerate(G.elements)
        )
    partial = check_lambda_partial(lf).ok
    return GroupCriterionVerdict(V, is_group, why, values_match, char_ok, partial)


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
    a partial action, (π⊗π)Δ(h▷d) = Δ(π(h▷d)) and the counit-weighted
    composition rule, plus the symmetric variant.
    """
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

    rep = Report("induced partial action conditions")
    n, m, p = H.space.dim, C.space.dim, C.field.characteristic
    pp = proj.tensor(proj)
    rep.add(first_failure("(i)", (
        ((i, d), compare_vectors("", pp.apply(C.delta(moved)), C.delta(proj.apply(moved))))
        for i in range(n) for d in d_vectors for moved in (global_act.slices[i].apply(d),)),
        lambda c: f"h={H.space.labels[c[0]]}, d={c[1].describe()}; "))

    # ε(π(h_q·e_b)) and π(h_i h_p·e_a), the two legs of the correction side
    eps_pi = [{b: col[0] for b, col in enumerate((C.counit @ proj @ s).cols) if col}
              for s in global_act.slices]
    pi_prod = [(proj @ s).cols for s in global_act.product_slices]
    pi_sl = [proj @ s for s in global_act.slices]

    def condition_two(label: str, symmetric: bool) -> CheckResult:
        """π(h·π(k·d)) = π(hk₁·d₁)ε(π(k₂·d₂)), sym ε(π(k₁·d₁))π(hk₂·d₂):
        ``eps_leg`` is the leg of Δ(d) and Δ(k) under ε."""
        eps_leg = 0 if symmetric else 1

        def rhs(i: int, j: int, d: Vector) -> dict:
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
    symmetric = condition_two("symmetric", symmetric=True)

    # the action in D coordinates: back∘π∘(h_i·–)∘ι
    induced = ActionTensor.from_slices(H, D, LEFT, [back @ (s @ incl) for s in pi_sl])
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

    P, TH, p = gpa.P, gpa.theta, C.field.characteristic
    inv, r, mul = G.inv, G.r, G.mul

    def quasi(g: str, flip: bool) -> CheckResult:
        """Σ ε(P_g(c₂))P_{r(g)}(c₁), or with the legs of Δ(c) flipped, is P_g(c)."""
        eps_p = [col.get(0) for col in (C.counit @ P(g)).cols]
        cols = [_combine(P(r[g]).cols, [(t[flip], t[2] * eps_p[t[not flip]])
                                        for t in C.delta_pairs(c) if eps_p[t[not flip]]], p)
                for c in range(C.space.dim)]
        return compare_maps("", LinMap(C.space, C.space, cols), P(g))

    def iso_check(g: str) -> CheckResult:
        dom = gpa.subcoalgebra(inv[g])
        img = Subspace.from_vectors(C.space, [TH(g).apply(v) for v in dom.basis_vectors])
        target = gpa.subcoalgebra(g)
        if img != target:
            return CheckResult("", False, "θ image differs from C_g")
        if dom.dim != img.dim:
            return CheckResult("", False, "θ not injective on C_{g⁻¹}")
        return CheckResult("", True)

    def maps(lhs, rhs):
        return lambda x: compare_maps("", lhs(x), rhs(x))

    comp = sorted(G.composable)
    elements = G.elements
    pairs = [(g, h) for a, g in enumerate(elements) for h in elements[a:]]   # Eq 1 is symmetric
    p_p = cache(lambda gh: P(inv[mul[gh]]) @ P(inv[gh[1]]))    # Eq 3 and Lemma-(iii)
    conditions = [
        ("theta-support", elements, maps(TH, lambda g: TH(g) @ P(inv[g]))),
        ("(i)-projection", elements, maps(lambda g: P(g) @ P(g), P)),
        ("(i)-comulti", elements, maps(lambda g: P(g).tensor(P(g)) @ C.comul,
                                       lambda g: C.comul @ P(g))),
        ("(i)-quasi-a", elements, lambda g: quasi(g, flip=False)),
        ("(i)-quasi-b", elements, lambda g: quasi(g, flip=True)),
        ("(ii)-theta-objects", G.identities, maps(TH, P)),
        ("Eq 1", pairs, maps(lambda gh: P(gh[0]) @ P(gh[1]), lambda gh: P(gh[1]) @ P(gh[0]))),
        ("Eq 2", comp, maps(lambda gh: TH(inv[gh[1]]) @ P(gh[1]) @ P(inv[gh[0]]),
                            lambda gh: P(inv[mul[gh]]) @ TH(inv[gh[1]]) @ P(gh[1]))),
        ("Eq 3", comp, maps(lambda gh: TH(gh[0]) @ TH(gh[1]) @ p_p(gh),
                            lambda gh: TH(mul[gh]) @ p_p(gh))),
        ("Eq 4", elements, maps(lambda g: P(r[g]) @ P(g), P)),
        ("Lemma-(i)a", elements, maps(lambda g: TH(r[g]) @ TH(g), TH)),
        ("Lemma-(i)b", elements, maps(lambda g: TH(r[g]) @ P(g), P)),
        ("Lemma-(ii)a", elements, maps(lambda g: TH(inv[g]) @ TH(g), lambda g: P(inv[g]))),
        ("Lemma-(ii)b", elements, maps(lambda g: TH(g) @ TH(inv[g]), P)),
        ("Lemma-(iii)", comp, maps(lambda gh: P(inv[gh[0]]) @ TH(gh[1]),
                                   lambda gh: TH(gh[1]) @ p_p(gh))),
        ("theta-iso", elements, iso_check),
        ("theta-comult", elements, maps(lambda g: C.comul @ TH(g),
                                        lambda g: TH(g).tensor(TH(g)) @ C.comul @ P(inv[g]))),
        ("theta-counit", elements, maps(lambda g: C.counit @ TH(g),
                                        lambda g: C.counit @ P(inv[g]))),
    ]
    for label, items, check in conditions:
        rep.add(first_failure(label, ((x, check(x)) for x in items), lambda x: f"at {x}: "))
    return rep


def to_kG_action(gpa: GroupoidPartialAction) -> ActionTensor:
    """The groupoid-algebra action δ_g·c = θ_g(P_{g⁻¹}(c)) attached to a
    partial groupoid action whose identity pieces decompose the carrier."""
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
    return ActionTensor.from_slices(hopf, C, LEFT, slices)


def from_kG_action(act: ActionTensor, G: FiniteGroupoid) -> GroupoidPartialAction:
    """Recover the projections and isomorphisms of a partial groupoid action
    from a symmetric partial groupoid-algebra action:
    P_g(c) = ε(δ_{g⁻¹}·c₁)(δ_{r(g)}·c₂) and θ_g = (δ_g· )∘P_{g⁻¹}."""
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
