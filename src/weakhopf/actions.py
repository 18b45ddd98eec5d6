"""Action tensors of a weak Hopf algebra on coalgebras and algebras, and
the global and partial module-coalgebra and module-algebra axioms (left and
right).

Axiom conventions.  For a left partial action ``h·c``:

    PMC1  1·c = c
    PMC2  Δ(h·c) = h₁·c₁ ⊗ h₂·c₂
    PMC3  h·(k·c) = (hk₁·c₁) ε(k₂·c₂)
    sym   h·(k·c) = ε(k₁·c₁) (hk₂·c₂)

and the action is global iff ε(h·c) = ε(ε_s(h)·c).  The right-sided
counterparts are the mirror images,

    (c↼h)↼k = ε(c₁↼h₁) (c₂↼h₂k),     sym: (c↼h)↼k = (c₁↼h₁k) ε(c₂↼h₂),

with globality criterion ε(c↼h) = ε(c↼ε_t(h)); these are exactly the
formulas whose duals are the partial module-algebra axioms.
"""

from __future__ import annotations

from functools import cached_property

from .errors import Frozen, ShapeMismatch
from .report import CheckResult, Report, compare_maps, compare_vectors, first_failure
from .structures import AlgebraData, CoalgebraData, WeakHopfData
from .tensor_space import FinVec, LinMap, Vector, _accumulate, _combine, _kron, tensor_product

LEFT = "left"
RIGHT = "right"


class ActionTensor(Frozen):
    """A rank-3 action tensor: H⊗X → X (left) or X⊗H → X (right).

    The carrier X is the coalgebra or algebra being acted on; which one it is
    decides which checkers apply.
    """

    def __init__(self, hopf: WeakHopfData, carrier: CoalgebraData | AlgebraData, side: str,
                 action: LinMap):
        if side not in (LEFT, RIGHT):
            raise ShapeMismatch(f"side must be left or right, not {side!r}")
        X = carrier.space
        H = hopf.space
        expected = tensor_product(H, X) if side == LEFT else tensor_product(X, H)
        if action.domain != expected or action.codomain != X:
            raise ShapeMismatch("action tensor shape does not match H and the carrier")
        self.__dict__.update(hopf=hopf, carrier=carrier, side=side, action=action)

    @classmethod
    def from_slices(cls, hopf: WeakHopfData, carrier, side: str, slices) -> "ActionTensor":
        """Assemble the tensor from one carrier endomorphism per H basis vector."""
        X = carrier.space
        H = hopf.space
        if len(slices) != H.dim:
            raise ShapeMismatch("need one slice per basis vector of H")
        if side == LEFT:
            dom = tensor_product(H, X)
            cols = [slices[i].cols[j] for i in range(H.dim) for j in range(X.dim)]
        else:
            dom = tensor_product(X, H)
            cols = [slices[i].cols[j] for j in range(X.dim) for i in range(H.dim)]
        return cls(hopf, carrier, side, LinMap(dom, X, cols))

    @property
    def space(self) -> FinVec:
        return self.carrier.space

    @cached_property
    def slices(self) -> tuple[LinMap, ...]:
        """The endomorphism of the carrier given by each basis vector of H."""
        X = self.space
        H = self.hopf.space
        cols = self.action.cols
        if self.side == LEFT:
            return tuple(LinMap(X, X, cols[i * X.dim:(i + 1) * X.dim]) for i in range(H.dim))
        return tuple(LinMap(X, X, cols[i::H.dim]) for i in range(H.dim))

    def act_by(self, h: Vector) -> LinMap:
        return self._slice_sum(h.terms)

    def _slice_sum(self, terms: dict) -> LinMap:
        """Σ c·slices[i] over the ``{i: c}`` terms, column by column from the
        action tensor."""
        m = self.space.dim
        step, stride = (m, 1) if self.side == LEFT else (1, self.hopf.space.dim)
        cols = self.action.cols
        return LinMap(self.space, self.space,
                      [_combine(cols, [(i * step + t * stride, c) for i, c in terms.items()])
                       for t in range(m)])

    @cached_property
    def product_slices(self) -> tuple[LinMap, ...]:
        """``product_slices[i·n + j]`` is ``act_by(e_i·e_j)``, built once per
        distinct product column of H (on kG and (kG)*, at most n + 1 maps)."""
        memo = {}
        return tuple(memo[key] if (key := frozenset(col.items())) in memo
                     else memo.setdefault(key, self._slice_sum(col))
                     for col in self.hopf.alg.mul.cols)

    @cached_property
    def counit_table(self) -> tuple[dict, ...]:
        """``counit_table[q]`` is ``{b: ε(h_q·c_b)}`` over its nonzero values,
        for a coalgebra carrier; built once from ε∘slices[q]."""
        counit = self.carrier.counit
        return tuple({b: col[0] for b, col in enumerate((counit @ s).cols) if col}
                     for s in self.slices)

    def is_coalgebra_action(self) -> bool:
        return isinstance(self.carrier, CoalgebraData)

    def is_algebra_action(self) -> bool:
        return isinstance(self.carrier, AlgebraData)


def _require_coalgebra(act: ActionTensor) -> CoalgebraData:
    if not act.is_coalgebra_action():
        raise ShapeMismatch("this checker needs a coalgebra carrier")
    return act.carrier


def _require_algebra(act: ActionTensor) -> AlgebraData:
    if not act.is_algebra_action():
        raise ShapeMismatch("this checker needs an algebra carrier")
    return act.carrier


def _unit_slice(act: ActionTensor) -> LinMap:
    return act.act_by(act.hopf.unit)


def _pair_label(H: FinVec, i: int, j: int) -> str:
    return f"h={H.labels[i]}, k={H.labels[j]}"


# ---------------------------------------------------------------------------
# module coalgebra checkers
# ---------------------------------------------------------------------------

def _mc2_check(act: ActionTensor, label: str) -> CheckResult:
    """Δ(h·c) = h₁·c₁ ⊗ h₂·c₂ (either side), as a map equality on the
    action's domain."""
    C = act.carrier
    n = act.hopf.space.dim
    m = C.space.dim
    sl = [s.cols for s in act.slices]

    # live[j][p]: the Δ(c_j) terms (a, b, cc) whose column sl[p][a] is not empty
    live = [[[(a, b, cc) for a, b, cc in C.delta_pairs(j) if s[a]] for s in sl]
            for j in range(m)]

    def column(i: int, j: int) -> dict:
        return _accumulate((_kron(sl[p][a], sl[q][b], m), ch * cc)
                           for p, q, ch in act.hopf.coalg.delta_pairs(i)
                           for a, b, cc in live[j][p] if sl[q][b])

    cols = ([column(i, j) for i in range(n) for j in range(m)] if act.side == LEFT
            else [column(i, j) for j in range(m) for i in range(n)])
    rhs = LinMap(act.action.domain, tensor_product(C.space, C.space), cols)
    return compare_maps(label, C.comul @ act.action, rhs)


def _pair_checks(act: ActionTensor, checks: dict) -> list[CheckResult]:
    """Compare the iterated action h_i·(h_j·–) (resp. (–↼h_i)↼h_j) of each
    basis pair with ``rhs(i, j)`` for every ``label: rhs`` of ``checks``, in
    one scan that builds each composite once; each check reports its own
    smallest failing pair and is not evaluated past it."""
    H, s, left, found = act.hopf.space, act.slices, act.side == LEFT, {}
    for i, j in ((i, j) for i in range(H.dim) for j in range(H.dim)):
        if len(found) == len(checks):
            break
        lhs = s[i] @ s[j] if left else s[j] @ s[i]
        for label, rhs in checks.items():
            if label not in found and not (r := compare_maps("", lhs, rhs(i, j))).passed:
                found[label] = CheckResult(label, False, f"{_pair_label(H, i, j)}; {r.witness}")
    return [found.get(label) or CheckResult(label, True) for label in checks]


def _strict_rhs(act: ActionTensor):
    """Acting by the product h_i h_j: the MC3 and MA3 side, for either side."""
    return lambda i, j: act.product_slices[i * act.hopf.space.dim + j]


def check_module_coalgebra(act: ActionTensor) -> Report:
    """The global module-coalgebra axioms MC1-MC4.

    Over a weak Hopf algebra MC4 follows from MC1-MC3, so the report carries
    an internal-consistency entry that fails only if this implication is
    violated by the computed verdicts.
    """
    C = _require_coalgebra(act)
    mc1 = compare_maps("MC1", _unit_slice(act), LinMap.identity(C.space))
    mc2 = _mc2_check(act, "MC2")
    [mc3] = _pair_checks(act, {"MC3": _strict_rhs(act)})
    mc4 = _globality_criterion(act, "MC4")
    implied = not (mc1.passed and mc2.passed and mc3.passed and not mc4.passed)
    return Report(f"{act.side} module coalgebra", [
        mc1, mc2, mc3, mc4, CheckResult("MC4-consistency", implied,
                                        None if implied else "MC1-MC3 hold but MC4 fails")])


def _globality_criterion(act: ActionTensor, label: str) -> CheckResult:
    """ε(h·c) = ε(ε_s(h)·c) for left actions; ε(c↼h) = ε(c↼ε_t(h)) for right."""
    C = act.carrier
    H = act.hopf
    ident_c = LinMap.identity(C.space)
    if act.side == LEFT:
        twisted = act.action @ H.eps_s.tensor(ident_c)
    else:
        twisted = act.action @ ident_c.tensor(H.eps_t)
    return compare_maps(label, C.counit @ act.action, C.counit @ twisted)


class PartialActionVerdict:
    """Outcome of the partial module-coalgebra (or -algebra) checks; ``report``
    holds the required partial axioms."""

    def __init__(self, report: Report, symmetric: CheckResult, globality: CheckResult,
                 consistency: CheckResult | None = None):
        self.report = report
        self.symmetric = symmetric
        self.globality = globality
        self.consistency = consistency

    @property
    def is_partial(self) -> bool:
        return self.report.ok

    @property
    def is_symmetric(self) -> bool:
        return self.is_partial and self.symmetric.passed

    @property
    def is_global(self) -> bool:
        return self.is_partial and self.globality.passed

    def full_report(self) -> Report:
        rep = Report(self.report.title)
        rep.results = list(self.report.results)
        rep.add(CheckResult("symmetric [info]", True,
                            f"holds={self.symmetric.passed}"))
        rep.add(CheckResult("globality [info]", True,
                            f"holds={self.globality.passed}"))
        if self.consistency is not None:
            rep.add(self.consistency)
        return rep


def _pmc3_rhs(act: ActionTensor, symmetric: bool):
    """The correction side of PMC3 (or its symmetric variant) as a function
    of the basis pair (h_i, h_j) to an endomorphism of the carrier:

        left   (h k₁ · c₁) ε(k₂ · c₂),    sym  ε(k₁ · c₁) (h k₂ · c₂),
        right  ε(c₁ ↼ h₁) (c₂ ↼ h₂k),    sym  (c₁ ↼ h₁k) ε(c₂ ↼ h₂).

    ``eps_leg`` is the leg of Δ(c) (and of Δ(k), resp. Δ(h)) under ε; the
    other leg is acted on by the product.  Δ(c)'s terms are grouped by their
    ε-leg, so only the pairs with a nonzero counit-table entry are visited."""
    C = act.carrier
    n = act.hopf.space.dim
    left = act.side == LEFT
    eps_leg = 1 if left != symmetric else 0
    eps_table = act.counit_table
    by_eps_leg = []
    for cidx in range(C.space.dim):
        group = {}
        for cpair in C.delta_pairs(cidx):
            group.setdefault(cpair[eps_leg], []).append((cpair[1 - eps_leg], cpair[2]))
        by_eps_leg.append(group)

    def rhs(i: int, j: int) -> LinMap:
        terms = []      # (product slice columns, coefficient, ε-row) per Δ(k) term
        for hpair in act.hopf.coalg.delta_pairs(j if left else i):
            if row := eps_table[hpair[eps_leg]]:
                x = hpair[1 - eps_leg]
                prod = act.product_slices[i * n + x if left else x * n + j].cols
                terms.append((prod, hpair[2], row))
        return LinMap(C.space, C.space, [
            _accumulate((prod[y], ch * cc * row[b])
                        for prod, ch, row in terms
                        for b in row.keys() & group.keys()
                        for y, cc in group[b])
            for group in by_eps_leg])
    return rhs


def check_partial_module_coalgebra(act: ActionTensor) -> PartialActionVerdict:
    """PMC1-PMC3, the symmetric variant, and the globality criterion.

    The verdict also cross-checks the characterisation ``partial + criterion
    ⇔ global``: when PMC1-PMC3 hold, the full MC checker must agree with the
    criterion.  A disagreement is reported as an internal-consistency failure.
    The verdict is kept on the action, as ``cached_property`` would.
    """
    C = _require_coalgebra(act)
    if (verdict := act.__dict__.get("_pmc_verdict")) is not None:
        return verdict
    rep = Report(f"{act.side} partial module coalgebra")
    rep.add(compare_maps("PMC1", _unit_slice(act), LinMap.identity(C.space)))
    rep.add(_mc2_check(act, "PMC2"))
    pmc3, symmetric, mc3 = _pair_checks(act, {"PMC3": _pmc3_rhs(act, symmetric=False),
                                              "symmetric": _pmc3_rhs(act, symmetric=True),
                                              "MC3": _strict_rhs(act)})
    rep.add(pmc3)
    globality = _globality_criterion(act, "globality")

    consistency = None
    if rep.ok:      # MC1, MC2 and MC4 are PMC1, PMC2 and the criterion
        agree = mc3.passed or not globality.passed
        consistency = CheckResult(
            "global-iff-criterion", agree,
            None if agree else "globality criterion disagrees with the MC axioms")
    return act.__dict__.setdefault("_pmc_verdict", PartialActionVerdict(
        rep, symmetric, globality, consistency))

# ---------------------------------------------------------------------------
# module algebra checkers
# ---------------------------------------------------------------------------

def check_module_algebra(act: ActionTensor) -> Report:
    """The global module-algebra axioms MA1-MA4 (either side)."""
    A = _require_algebra(act)
    [ma3] = _pair_checks(act, {"MA3": _strict_rhs(act)})
    return _module_algebra(act, compare_maps("MA1", _unit_slice(act), LinMap.identity(A.space)),
                           _ma2_check(act, "MA2"), ma3)


def _module_algebra(act: ActionTensor, *ma: CheckResult) -> Report:
    """The MA report, given the MA1-MA3 verdicts."""
    return Report(f"{act.side} module algebra", [*ma, _ma4_check(act, "MA4")])


def _ma2_check(act: ActionTensor, label: str) -> CheckResult:
    """h▷(ab) = (h₁▷a)(h₂▷b), resp. (ab)↼h = (a↼h₁)(b↼h₂)."""
    A = act.carrier
    H = act.hopf.space
    m = A.space.dim
    sl = [s.cols for s in act.slices]

    def cases():
        for i in range(H.dim):
            pairs = act.hopf.coalg.delta_pairs(i)
            for a in range(m):
                for b in range(m):
                    lhs = _combine(sl[i], A.mul.cols[a * m + b].items())
                    rhs = _accumulate((A.times(sl[p][a], sl[q][b]), ch) for p, q, ch in pairs)
                    yield (i, a, b), compare_vectors(
                        "", Vector(A.space, lhs), Vector(A.space, rhs))

    return first_failure(label, cases(), lambda c: (
        f"h={H.labels[c[0]]}, a={A.space.labels[c[1]]}, b={A.space.labels[c[2]]}; "))


def _ma4_check(act: ActionTensor, label: str) -> CheckResult:
    """h▷1 = ε_t(h)▷1 for left actions; 1↼h = 1↼ε_s(h) for right actions."""
    A = act.carrier
    H = act.hopf.space
    twist = act.hopf.eps_t if act.side == LEFT else act.hopf.eps_s
    return first_failure(label, (
        (i, compare_vectors("", act.slices[i].apply(A.unit),
                            act.act_by(twist.column(i)).apply(A.unit)))
        for i in range(H.dim)), lambda i: f"h={H.labels[i]}: ")


def _pma3_rhs(act: ActionTensor, symmetric: bool):
    """The correction side of PMA3 (or its symmetric variant) as a function
    of the basis pair (h_i, h_j) to an endomorphism of the carrier:

        left   (h₁·1)(h₂k·a),    sym  (h₁k·a)(h₂·1),
        right  (a↼hk₁)(1↼k₂),    sym  (1↼k₁)(a↼hk₂).

    ``unit_leg`` is the leg of Δ(h) (resp. Δ(k)) acting on 1; the unit
    factor stands left of the product iff it is the first leg."""
    A = act.carrier
    n = act.hopf.space.dim
    left = act.side == LEFT
    unit_leg = 0 if left != symmetric else 1
    units = [_combine(s.cols, A.unit.terms.items()) for s in act.slices]
    prods = act.product_slices

    def rhs(i: int, j: int) -> LinMap:
        terms = [(units[pair[unit_leg]], prods[pair[1 - unit_leg] * n + j if left
                                               else i * n + pair[1 - unit_leg]].cols, pair[2])
                 for pair in act.hopf.coalg.delta_pairs(i if left else j)]
        return LinMap(A.space, A.space, [_accumulate(
            (A.times(u, moved[aidx]) if unit_leg == 0 else A.times(moved[aidx], u), c)
            for u, moved, c in terms) for aidx in range(A.space.dim)])
    return rhs


def check_partial_module_algebra(act: ActionTensor) -> PartialActionVerdict:
    """PMA1-PMA3 and the symmetric variant; the globality slot reports whether
    the full global MA axioms hold as well."""
    A = _require_algebra(act)
    rep = Report(f"{act.side} partial module algebra")
    pma1 = rep.add(compare_maps("PMA1", _unit_slice(act), LinMap.identity(A.space)))
    pma2 = rep.add(_ma2_check(act, "PMA2"))
    pma3, symmetric, ma3 = _pair_checks(act, {"PMA3": _pma3_rhs(act, symmetric=False),
                                              "symmetric": _pma3_rhs(act, symmetric=True),
                                              "MA3": _strict_rhs(act)})
    rep.add(pma3)
    ma = _module_algebra(act, pma1, pma2, ma3)     # MA1 and MA2 are PMA1 and PMA2
    globality = CheckResult("global-MA", ma.ok,
                            None if ma.ok else ma.failures[0].witness)
    return PartialActionVerdict(rep, symmetric, globality)
