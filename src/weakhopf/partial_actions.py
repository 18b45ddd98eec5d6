"""Partial actions of a weak Hopf algebra given by a linear functional λ:
the λ conditions, their group criteria for (dual) groupoid algebras acting on
the ground field, and the λ document.  The axiom checkers of actions are in
:mod:`actions`, partial groupoid actions in :mod:`groupoid_actions`.
"""

from __future__ import annotations

from .errors import Frozen, MalformedInput, ShapeMismatch, forward
from .jsonio import _decode, _field, _get, _same_field, _side, weakhopf_from_json
from .report import CheckResult, PartialActionVerdict, Report, compare_scalars, first_failure
from .structures import LEFT, CoalgebraData, WeakHopfData, _pair_label
from .tensor_space import LinMap

# the action core is imported where an action is built or checked, so that the λ
# conditions load none of it; its names and those of groupoid actions are offered here
__getattr__ = forward(globals(), {
    **dict.fromkeys("ActionTensor check_module_algebra check_module_coalgebra "
                    "check_partial_module_algebra check_partial_module_coalgebra".split(),
                    "actions"),
    **dict.fromkeys("GroupoidPartialAction check_ht_hs_propositions from_kG_action "
                    "induce_partial_action to_kG_action validate_groupoid_partial_action".split(),
                    "groupoid_actions")})


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


def check_lambda_global(lf: LambdaFunctional) -> PartialActionVerdict:
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
    return PartialActionVerdict(rep, None, globality)


def _lambda_globality(lf: LambdaFunctional, side: str) -> CheckResult:
    H = lf.hopf
    twist = H.eps_s if side == LEFT else H.eps_t
    return first_failure("globality", (
        (i, compare_scalars("", H.field, lf.values[i], lf.of_terms(twist.cols[i])))
        for i in range(H.space.dim)), lambda i: f"h={H.space.labels[i]}: ")


def check_lambda_partial(lf: LambdaFunctional, side: str = LEFT) -> PartialActionVerdict:
    """The functional identities equivalent to λ inducing a partial module
    coalgebra on every coalgebra, plus the symmetric and globality variants.
    The verdict is kept on λ, one per side, as ``cached_property`` would."""
    if (verdict := lf.__dict__.get(f"_{side}_verdict")) is None:
        verdict = lf.__dict__[f"_{side}_verdict"] = _lambda_partial(lf, side)
    return verdict


def _lambda_partial(lf: LambdaFunctional, side: str) -> PartialActionVerdict:
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
    return PartialActionVerdict(rep, symmetric, globality)


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
                                 check_lambda_partial(lf).is_partial)


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


def lambda_from_json(d: dict):
    """Returns (functional, groupoid_or_None, hopf_kind_or_None, side)."""
    from .groupoid import _builds, dual_groupoid_algebra, groupoid_algebra, groupoid_from_spec

    G = groupoid_from_spec(_get(d, "groupoid", ""), "groupoid.") if "groupoid" in d else None
    kind = d.get("hopf_kind")
    if kind not in (None, "kG", "kG-dual"):
        raise MalformedInput(f"hopf_kind: expected 'kG' or 'kG-dual', got {kind!r}")
    if "hopf" in d:
        hopf = weakhopf_from_json(_get(d, "hopf", ""), "hopf.")
        if G is not None and kind is not None:
            _builds(G, hopf, groupoid_algebra if kind == "kG" else dual_groupoid_algebra)
    elif G is not None and kind is not None:
        hopf = (groupoid_algebra if kind == "kG" else dual_groupoid_algebra)(G, _field(d, ""))
    else:
        raise MalformedInput("lambda document needs 'hopf' or 'groupoid'+'hopf_kind'")
    _same_field(d, hopf.field)
    n = hopf.space.dim
    [values] = _decode(hopf.field, (_get(d, "values", ""), (n,), "values", n))[0]
    lf = LambdaFunctional.from_values(hopf, [values.get(i, 0) for i in range(n)])
    return lf, G, kind, _side(d.get("side", "left"), "")


def lambda_reports(doc: dict) -> list[Report]:
    """``whw check lambda``: the λ conditions of ``doc``, a summary of its verdicts,
    and the V-group criterion when the document names a groupoid and its kind."""
    lf, G, hopf_kind, side = lambda_from_json(doc)
    verdict = check_lambda_partial(lf, side)
    glob = check_lambda_global(lf)
    reports = [verdict.report, Report("λ summary", [
        CheckResult("partial [info]", True, f"holds={verdict.is_partial}"),
        CheckResult("symmetric [info]", True, f"holds={verdict.is_symmetric}"),
        CheckResult("global [info]", True, f"holds={glob.is_partial}")])]
    if G is not None and hopf_kind == "kG":
        reports.append(check_k_partial_action_group_criterion(lf, G)
                       .report("V-group criterion"))
    elif G is not None and hopf_kind == "kG-dual":
        reports.append(check_dual_k_partial_action_criterion(lf, G)
                       .report("dual V-group criterion"))
    return reports
