"""Partial groupoid actions on a coalgebra: their conditions, the equivalence
with symmetric partial groupoid-algebra actions, the partial action that a
projection induces from a global one, and the identities H_t and H_s force.
"""

from __future__ import annotations

from functools import cache

from .elimination import Subspace
from .errors import (InputNotPartialAction, MalformedInput, NotDirectSum, NotIdempotent,
                     NotSymmetric, Refused, ShapeMismatch)
from .jsonio import _get, _matrix, _object, _same_field, action_from_json, coalgebra_from_json
from .report import CheckResult, Report, compare_maps, compare_vectors, first_failure
from .structures import LEFT
from .tensor_space import LinMap, Vector, _accumulate, _combine, _kron


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
        return tuple(col and _accumulate(((_kron(f[t // m], f[t % m], m, p), c)
                                          for t, c in col.items()), p) for col in cols)

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
        terms = ([(t[flip], t[2] * eps[t[not flip]]) for t in C.delta_pairs(c) if eps[t[not flip]]]
                 for c in range(m))
        return tuple(_combine(P(r[g]), ts, p) if ts else {} for ts in terms)

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
        projections[g] = LinMap(C.space, C.space, [
            _combine(r_cols, ts, C.field.characteristic) if ts else {} for ts in (
                [(b, cc * eps_gi[a]) for a, b, cc in C.delta_pairs(c) if a in eps_gi]
                for c in range(C.space.dim))])
    for g in G.elements:
        isos[g] = act.slices[G.index(g)] @ projections[G.inv[g]]
    return GroupoidPartialAction(G, C, projections, isos)


def gpa_from_json(d: dict) -> GroupoidPartialAction:
    from .groupoid import groupoid_from_spec

    G = groupoid_from_spec(_get(d, "groupoid", ""), "groupoid.")
    C = coalgebra_from_json(_get(d, "coalgebra", ""), "coalgebra.")
    _same_field(d, C.field)
    return GroupoidPartialAction(G, C, _map_table(d, "projections", G, C.space),
                                 _map_table(d, "isos", G, C.space))


def _map_table(d: dict, key: str, G: FiniteGroupoid, X: FinVec) -> dict:
    """The endomorphisms of X that the object ``d[key]`` holds for the elements of G."""
    table = _object(_get(d, key, ""), f"{key}.")
    if missing := [g for g in G.elements if g not in table]:
        raise MalformedInput(f"{key}.{missing[0]}: missing")
    return {g: _matrix(table[g], X, X, f"{key}.{g}") for g in G.elements}


def action_groupoid_from_json(d: dict, hopf: WeakHopfData) -> FiniteGroupoid | None:
    """The document's groupoid, whose groupoid algebra must be the action's ``hopf``."""
    if "groupoid" in d:
        from .groupoid import _builds, groupoid_algebra, groupoid_from_spec
        return _builds(groupoid_from_spec(_get(d, "groupoid", ""), "groupoid."), hopf,
                       groupoid_algebra)
    return None


def equiv_command(args):
    """``whw equiv``: the equivalence round trip of the groupoid partial action or
    the kG action ``args.doc`` through the other side and back."""
    from .actions import check_partial_module_coalgebra

    doc, rep = args.doc, Report("equivalence round-trip")
    if doc.get("schema") == "groupoid-action":
        gpa = gpa_from_json(doc)
        rep.extend(validate_groupoid_partial_action(gpa), prefix="input-")
        act = to_kG_action(gpa)
        verdict = check_partial_module_coalgebra(act)
        rep.add(CheckResult("to-kG-symmetric-PMC",
                            verdict.is_partial and verdict.is_symmetric))
        back = from_kG_action(act, gpa.groupoid)
        rep.add(CheckResult("from(to(θ,P)) == (θ,P)", gpa.same_maps(back)))
        act2 = to_kG_action(back)
        rep.add(CheckResult("to(from(action)) == action", act2.slices == act.slices))
    elif doc.get("schema") == "action":
        act = action_from_json(doc)
        G = action_groupoid_from_json(doc, act.hopf)
        if G is None:
            raise Refused("action document needs a 'groupoid' entry for equiv", 3)
        gpa = from_kG_action(act, G)
        rep.extend(validate_groupoid_partial_action(gpa), prefix="derived-")
        act2 = to_kG_action(gpa)
        same = act2.slices == act.slices
        rep.add(CheckResult("to(from(action)) == action", same))
        # from_kG_action reads only the slices, so equal slices give gpa back
        rep.add(CheckResult("from(to(θ,P)) == (θ,P)",
                            same or gpa.same_maps(from_kG_action(act2, G))))
    else:
        raise Refused("expected a groupoid-action or action document", 3)
    return [rep], None


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
    from .globalization import restrict

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
    incl, back = Subspace.from_vectors(C.space, proj.columns()).inclusion("d")
    D = restrict(C, incl, back)
    # π∘(h_i·–)∘ι, and the action in D coordinates: back∘π∘(h_i·–)∘ι
    moved = [proj @ (s @ incl) for s in global_act.slices]
    induced = ActionTensor(H, D, LEFT, [back @ s for s in moved])

    rep = Report("induced partial action conditions")
    squared, where = proj.tensor(proj) @ C.comul, (C.field, C.comul.codomain.labels.__getitem__)
    rep.add(first_failure("(i)", (
        ((i, d), compare_vectors("", a, b, where))
        for i, s in enumerate(global_act.slices)
        for d, (a, b) in enumerate(zip((squared @ (s @ incl)).cols, (C.comul @ moved[i]).cols))),
        lambda c: f"h={H.space.labels[c[0]]}, d={incl.column(c[1]).describe()}; "))

    def witness(lhs: tuple, rhs: tuple) -> str:
        """The first failing d, with its columns mapped back into C by ι."""
        d = next(d for d, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
        diff = compare_vectors("", *(incl.apply(Vector(D.space, side[d])) for side in (lhs, rhs)))
        return f", d={incl.column(d).describe()}; {diff.witness}"

    two, symmetric = _pair_checks(induced, {"(ii)": _pmc3_rhs(induced, symmetric=False),
                                            "symmetric": _pmc3_rhs(induced, symmetric=True)},
                                  witness)
    rep.add(two)
    return InducedActionResult(induced, rep, symmetric, D, incl)


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
