"""Globalization of right partial module-coalgebra actions.

A globalization packages a global right module coalgebra D, a coalgebra
monomorphism θ: C → D and a projection π of D onto θ(C) that together
recover the partial action as θ(c↼h) = π(θ(c)◂h) and generate D from θ(C).

When H contains a grouplike element e absorbed by the action (c↼he = c↼h),
the standard construction D = C⊗eH with θ(c) = c⊗e and
π(c⊗eh) = (c↼eh)⊗e produces such a triple.

The dual transfer turns a globalization of (C, ↼) into a globalization of
the left partial module algebra C* inside D*, through φ(α) = α∘θ⁻¹∘π, and
the two verdicts agree; both directions are checked exactly.
"""

from __future__ import annotations

from .actions import RIGHT, ActionTensor, check_module_algebra, check_module_coalgebra
from .axioms import check_coalgebra
from .dualization import dualize_right_coalgebra_action
from .elimination import Subspace, left_inverse_on_image
from .errors import (Frozen, HypothesisViolated, NotInjective, NotSubcoalgebra, Refused,
                     ShapeMismatch)
from .jsonio import _action, _get, _matrix, _same_field, action_from_json, coalgebra_from_json
from .report import CheckResult, Report, compare_maps, compare_vectors, first_failure
from .structures import CoalgebraData, WeakHopfData
from .tensor_space import LinMap, Vector, _accumulate, _combine, _kron, tensor_product


def restrict(C: CoalgebraData, incl: LinMap, back: LinMap) -> CoalgebraData:
    """The subcoalgebra D that the injection ``incl`` ι includes into C, with
    Δ_D = (back⊗back)∘Δ∘ι and ε_D = ε∘ι for a left inverse ``back`` of ι.
    Raises NotSubcoalgebra at the first basis vector where
    (ι⊗ι)∘Δ_D ≠ Δ∘ι."""
    image = C.comul @ incl
    comul = back.tensor(back) @ image
    for j, col in enumerate((incl.tensor(incl) @ comul).cols):
        if col != image.cols[j]:
            raise NotSubcoalgebra(f"Δ({incl.column(j).describe()}) escapes D⊗D")
    return CoalgebraData(incl.domain, comul, C.counit @ incl)


class GrouplikeElement(Frozen):
    """An element e with Δ(e) = e⊗e (hence ε(e) = 1)."""

    def __init__(self, element: Vector, label: str):
        self.__dict__.update(element=element, label=label)


def is_grouplike(H: WeakHopfData, v: Vector) -> bool:
    return not v.is_zero and H.delta(v) == v.tensor(v)


def absorbed_by(act: ActionTensor, v: Vector) -> bool:
    """Whether c↼(hv) = c↼h for all c and h, compared slice by slice."""
    rmul_v = act.hopf.alg.rmul(v)
    return all(act.act_by(rmul_v.column(k)) == s for k, s in enumerate(act.slices))


def find_basis_grouplikes(act: ActionTensor) -> list[GrouplikeElement]:
    """Grouplike elements absorbed by a right partial action, among the basis
    vectors of H: no sum of several grouplike basis vectors is grouplike, and
    other grouplikes are not searched, so the list may be empty."""
    if act.side != RIGHT or not act.is_coalgebra_action():
        raise ShapeMismatch("grouplike search expects a right action on a coalgebra")
    H = act.hopf
    out = []
    for i, label in enumerate(H.space.labels):
        if is_grouplike(H, v := Vector.basis(H.space, i)) and absorbed_by(act, v):
            out.append(GrouplikeElement(v, label))
    return out


class GlobalizationTriple(Frozen):
    """A right partial action ↼ on C, a right global action ◂ on D, θ: C → D
    and π: D → D, the projection onto θ(C)."""

    def __init__(self, partial: ActionTensor, D: CoalgebraData, global_act: ActionTensor,
                 theta: LinMap, pi: LinMap):
        C = partial.carrier.space
        Ds = D.space
        if theta.domain != C or theta.codomain != Ds:
            raise ShapeMismatch("θ must map C into D")
        if pi.domain != Ds or pi.codomain != Ds:
            raise ShapeMismatch("π must be an endomorphism of D")
        if global_act.carrier.space != Ds:
            raise ShapeMismatch("the global action must live on D")
        self.__dict__.update(partial=partial, D=D, global_act=global_act, theta=theta, pi=pi)


def triple_from_json(d: dict) -> GlobalizationTriple:
    partial = action_from_json(_get(d, "partial", ""), "partial.")
    _same_field(d, partial.hopf.field)
    D = coalgebra_from_json(_get(d, "D", ""), "D.")
    _same_field(_get(d, "D", ""), partial.hopf.field, "D.")
    global_act = _action(partial.hopf, D, "right", _get(d, "global_tensor", ""), "global_tensor")
    theta = _matrix(_get(d, "theta", ""), partial.carrier.space, D.space, "theta")
    pi = _matrix(_get(d, "pi", ""), D.space, D.space, "pi")
    return GlobalizationTriple(partial, D, global_act, theta, pi)


def check_globalization(gt: GlobalizationTriple) -> Report:
    """Every clause of the globalization definition, exactly:

    (i) D is a coalgebra carrying a global right action; (ii) θ is a
    coalgebra monomorphism; (iii) π is a projection onto θ(C) satisfying the
    comultiplication compatibility, the counit-weighted projection rule, and
    the recovery of the partial action; (iv) θ(C) generates D under ◂.
    """
    rep = Report("globalization triple")
    C = gt.partial.carrier
    D = gt.D
    H = gt.partial.hopf

    rep.extend(check_coalgebra(D), prefix="(i)-")
    rep.extend(check_module_coalgebra(gt.global_act), prefix="(i)-")

    injective = gt.theta.rank == C.space.dim
    rep.add(CheckResult("(ii)-theta-injective", injective,
                        None if injective else f"rank {gt.theta.rank} < {C.space.dim}"))
    rep.add(compare_maps("(ii)-theta-comult",
                         D.comul @ gt.theta,
                         gt.theta.tensor(gt.theta) @ C.comul))
    rep.add(compare_maps("(ii)-theta-counit", D.counit @ gt.theta, C.counit))

    rep.add(compare_maps("(iii)-pi-projection", gt.pi @ gt.pi, gt.pi))
    im_pi = Subspace.from_vectors(D.space, gt.pi.columns())
    im_theta = Subspace.from_vectors(D.space, gt.theta.columns())
    rep.add(CheckResult("(iii)-pi-image", im_pi == im_theta,
                        None if im_pi == im_theta else "im π ≠ θ(C)"))

    rep.add(compare_maps("Eq 5", gt.pi.tensor(gt.pi) @ D.comul, D.comul @ gt.pi))

    # Eq 6  π(π(d)◂h) = ε(π(d₁)) π(d₂◂h)
    eps_pi, p = [col.get(0) for col in (D.counit @ gt.pi).cols], D.field.characteristic

    def eq6(pi_k: LinMap) -> CheckResult:
        rhs = [_combine(pi_k.cols, ts, p) if ts else {} for ts in (
            [(b, c * eps_pi[a]) for a, b, c in D.delta_pairs(d) if eps_pi[a]]
            for d in range(D.space.dim))]
        return compare_maps("", pi_k @ gt.pi, LinMap(D.space, D.space, rhs))

    def at_h(k: int) -> str:
        return f"h={H.space.labels[k]}; "

    ks = range(H.space.dim)
    rep.add(first_failure("Eq 6", ((k, eq6(gt.pi @ gt.global_act.slices[k])) for k in ks), at_h))
    rep.add(first_failure("Eq 7", ((k, compare_maps(
        "", gt.theta @ gt.partial.slices[k], gt.pi @ gt.global_act.slices[k] @ gt.theta))
        for k in ks), at_h))

    generated = Subspace.from_vectors(
        D.space,
        [gt.global_act.slices[k].apply(gt.theta.column(i))
         for i in range(C.space.dim) for k in range(H.space.dim)],
    )
    rep.add(CheckResult("(iv)-generation", generated.dim == D.space.dim,
                        None if generated.dim == D.space.dim
                        else f"θ(C)◂H spans {generated.dim} of {D.space.dim} dimensions"))
    return rep


def standard_globalization(act: ActionTensor, e) -> GlobalizationTriple:
    """The globalization D = C⊗eH of a right partial action, built from a
    grouplike e that the action absorbs.

    θ(c) = c⊗e, the global action multiplies the right tensor factor, and
    π(c⊗eh) = (c↼eh)⊗e.  Raises HypothesisViolated if Δ(e) ≠ e⊗e or if
    c↼he ≠ c↼h for some basis pair.
    """
    if act.side != RIGHT or not act.is_coalgebra_action():
        raise ShapeMismatch("standard globalization expects a right action on a coalgebra")
    H = act.hopf
    C = act.carrier
    evec = e.element if isinstance(e, GrouplikeElement) else e
    if not is_grouplike(H, evec):
        raise HypothesisViolated("grouplike", "Δ(e) ≠ e⊗e or e = 0")
    if not absorbed_by(act, evec):
        raise HypothesisViolated("absorption", "c↼he ≠ c↼h for some basis pair")

    # eH through its inclusion ι into H and a left inverse back of ι
    incl, back = Subspace.from_vectors(H.space, H.alg.lmul(evec).columns()).inclusion("eh")
    t, m, p = incl.domain.dim, C.space.dim, C.field.characteristic
    try:
        eH_coalg = restrict(H.coalg, incl, back)
    except NotSubcoalgebra:
        raise HypothesisViolated("grouplike", "Δ(eH) escapes eH⊗eH") from None
    dspace = tensor_product(C.space, incl.domain)

    # Δ(c_i⊗f_j) = Σ (c_i₁⊗f_p) ⊗ (c_i₂⊗f_q) over Δ(f_j) = Σ f_p⊗f_q
    comul = LinMap(dspace, tensor_product(dspace, dspace), [_accumulate((
        ({(a * t + pq // t) * dspace.dim + b * t + pq % t: cc}, ch)
        for a, b, cc in C.delta_pairs(i) for pq, ch in eH_coalg.comul.cols[j].items()), p)
        for i in range(m) for j in range(t)])
    counit = LinMap(dspace, C.counit.codomain, C.counit.tensor(eH_coalg.counit).cols)
    D = CoalgebraData(dspace, comul, counit)

    # the right action on the last tensor factor
    ident_c = LinMap.identity(C.space)
    global_act = ActionTensor(H, D, RIGHT, [
        ident_c.tensor(back @ (H.alg.rmul(Vector.basis(H.space, k)) @ incl))
        for k in range(H.space.dim)])

    # θ(c) = c⊗e and π(c⊗f_j) = (c↼f_j)⊗e, against the eH-coordinates of e
    e_coords = back.apply(evec).terms
    theta = LinMap(C.space, dspace, [_kron({i: C.field.one()}, e_coords, t, p)
                                     for i in range(m)])
    moved = [act.act_by(f).cols for f in incl.columns()]
    pi = LinMap(dspace, dspace, [_kron(moved[j][i], e_coords, t, p)
                                 for i in range(m) for j in range(t)])
    return GlobalizationTriple(act, D, global_act, theta, pi)


# ---------------------------------------------------------------------------
# dual transfer
# ---------------------------------------------------------------------------

class DualGlobalizationResult:
    """Both sides of the globalization equivalence: the coalgebra-side report
    for the input triple, and the algebra-side report for (H▷φ(C*), φ), from
    the left partial action ⇀ on C* and the left global action ▷ on D*."""

    def __init__(self, coalgebra_report: Report, algebra_report: Report):
        self.coalgebra_report = coalgebra_report
        self.algebra_report = algebra_report

    @property
    def ok(self) -> bool:
        return self.coalgebra_report.ok and self.algebra_report.ok


def dual_globalization_transfer(gt: GlobalizationTriple) -> DualGlobalizationResult:
    """Transfer a globalization triple to the dual side and verify the
    algebra-globalization conditions for (B, φ) with B = H▷φ(C*) ⊆ D* and
    φ(α) = α∘θ⁻¹∘π.

    Both reports are produced whether or not the input passes
    check_globalization, so the two sides of the equivalence can be compared
    on corrupted inputs too.
    """
    coalg_rep = check_globalization(gt)
    rep = Report("dual algebra globalization")
    H = gt.partial.hopf

    # left partial action on C* and left global action on D* by transposition
    partial_dual = dualize_right_coalgebra_action(gt.partial, check=False)
    global_dual = dualize_right_coalgebra_action(gt.global_act, check=False)
    Cstar, Dstar = partial_dual.carrier, global_dual.carrier

    try:
        theta_li = left_inverse_on_image(gt.theta)
    except NotInjective:
        rep.add(CheckResult("(i)-phi-injective", False, "θ is not injective"))
        return DualGlobalizationResult(coalg_rep, rep)

    n_map = theta_li @ gt.pi                       # D → C
    phi = LinMap(Cstar.space, Dstar.space, n_map.transposed_rows())

    rep.extend(check_module_algebra(global_dual), prefix="Dstar-")

    b_gens = [global_dual.slices[k].apply(phi.column(a))
              for k in range(H.space.dim) for a in range(Cstar.space.dim)]
    B = Subspace.from_vectors(Dstar.space, b_gens)

    rep.add(first_failure("B-closed-product", (
        ((b1, b2), B.contains(Dstar.product(b1, b2)))
        for b1 in B.basis_vectors for b2 in B.basis_vectors),
        lambda b: f"{b[0].describe()} · {b[1].describe()} escapes B"))
    rep.add(first_failure("B-closed-action", (
        (k, B.contains(global_dual.slices[k].apply(b)))
        for k in range(H.space.dim) for b in B.basis_vectors),
        lambda k: f"h={H.space.labels[k]} moves B outside itself"))

    injective = phi.rank == Cstar.space.dim
    rep.add(CheckResult("(i)-phi-injective", injective,
                        None if injective else "φ has a kernel"))
    rep.add(compare_maps("(i)-phi-multiplicative",
                         phi @ Cstar.mul, Dstar.mul @ phi.tensor(phi)))

    phi_image = Subspace.from_vectors(Dstar.space, phi.columns())
    alphas = range(Cstar.space.dim)
    rep.add(first_failure("(i)-right-ideal", (
        ((a, b), phi_image.contains(Dstar.product(phi.column(a), b)))
        for a in alphas for b in b_gens),
        lambda ab: f"φ({Cstar.space.labels[ab[0]]})·b escapes φ(C*) for b={ab[1].describe()}"))

    phi_one = phi.apply(Cstar.unit)
    rep.add(first_failure("(ii)-induced-action", (
        ((k, a), compare_vectors(
            "", phi.apply(partial_dual.slices[k].column(a)),
            Dstar.product(phi_one, global_dual.slices[k].apply(phi.column(a)))))
        for k in range(H.space.dim) for a in alphas),
        lambda ka: f"h={H.space.labels[ka[0]]}, α={Cstar.space.labels[ka[1]]}; "))

    contains_phi = all(B.contains(phi.column(a)) for a in range(Cstar.space.dim))
    rep.add(CheckResult("(iii)-generation", contains_phi,
                        None if contains_phi
                        else "φ(C*) ⊄ H▷φ(C*) (the unit slice is corrupted)"))

    return DualGlobalizationResult(coalg_rep, rep)


def globalize_command(args):
    """``whw globalize``: the standard globalization of ``args.doc`` at the absorbed
    grouplike ``args.grouplike`` (or the first one) and the reports of its dual transfer."""
    from .jsonwrite import triple_to_json

    act, wanted = action_from_json(args.doc), args.grouplike
    found = [g for g in find_basis_grouplikes(act) if not wanted or g.label == wanted]
    if not found:
        raise Refused(f"no absorbed grouplike labelled {wanted!r}" if wanted
                      else "no absorbed grouplike basis element found", 4)
    gt = standard_globalization(act, found[0])
    transfer = dual_globalization_transfer(gt)
    return ([transfer.coalgebra_report, transfer.algebra_report],
            triple_to_json(gt) if args.output else None)
