"""Actions of a weak Hopf algebra on coalgebras and algebras, stored as
slices, and the global and partial module-coalgebra and module-algebra
axioms (left and right).

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

from .errors import FieldMismatch, Frozen, ShapeMismatch
from .report import (CheckResult, PartialActionVerdict, Report, compare_maps,
                     compare_vectors, first_failure)
from .structures import LEFT, RIGHT, AlgebraData, CoalgebraData, WeakHopfData, _pair_label
from .tensor_space import FinVec, LinMap, Vector, _accumulate, _combine, _kron, tensor_product


class ActionTensor(Frozen):
    """An action of H on a carrier X, stored as its slices: ``slices[i]`` is
    the endomorphism x ↦ h_i·x (left) or x ↦ x↼h_i (right) of X.

    The carrier X is the coalgebra or algebra being acted on; which one it is
    decides which checkers apply.
    """

    def __init__(self, hopf: WeakHopfData, carrier: CoalgebraData | AlgebraData, side: str,
                 slices):
        if side not in (LEFT, RIGHT):
            raise ShapeMismatch(f"side must be left or right, not {side!r}")
        X, slices = carrier.space, tuple(slices)
        if X.field != hopf.field:
            raise FieldMismatch("the carrier and H are over different fields")
        if len(slices) != hopf.space.dim:
            raise ShapeMismatch("need one slice per basis vector of H")
        if any(s.domain != X or s.codomain != X for s in slices):
            raise ShapeMismatch("every slice must be an endomorphism of the carrier")
        self.__dict__.update(hopf=hopf, carrier=carrier, side=side, slices=slices)

    @classmethod
    def from_slices(cls, hopf: WeakHopfData, carrier, side: str, slices) -> "ActionTensor":
        """The constructor, by the name that scripts build actions with."""
        return cls(hopf, carrier, side, slices)

    @property
    def space(self) -> FinVec:
        return self.carrier.space

    def act_by(self, h: Vector) -> LinMap:
        """Σ c·slices[i] over the terms c·h_i of h, column by column."""
        p, sl = self.space.field.characteristic, self.slices
        return LinMap(self.space, self.space,
                      [_accumulate(((sl[i].cols[t], c) for i, c in h.terms.items()), p)
                       if h.terms else {} for t in range(self.space.dim)])

    @cached_property
    def product_slices(self) -> tuple[LinMap, ...]:
        """``product_slices[i·n + j]`` is ``act_by(e_i·e_j)``, built once per
        distinct product column of H (on kG and (kG)*, at most n + 1 maps)."""
        memo = {}
        return tuple(memo[key] if (key := frozenset(col.items())) in memo
                     else memo.setdefault(key, self.act_by(Vector(self.hopf.space, col)))
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


def _layout(hopf: WeakHopfData, X: FinVec, side: str) -> tuple[FinVec, list]:
    """The domain of an action tensor and, in order, the (i, j) of its columns: h_i on x_j."""
    n, m = hopf.space.dim, X.dim
    if side == LEFT:
        return tensor_product(hopf.space, X), [(i, j) for i in range(n) for j in range(m)]
    return tensor_product(X, hopf.space), [(i, j) for j in range(m) for i in range(n)]


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


# ---------------------------------------------------------------------------
# module coalgebra checkers
# ---------------------------------------------------------------------------

def _mc2_check(act: ActionTensor, label: str) -> CheckResult:
    """Δ(h·c) = h₁·c₁ ⊗ h₂·c₂ (either side), as a map equality on the
    action's domain, scanned up to its first failing column."""
    C = act.carrier
    m, p = C.space.dim, C.field.characteristic
    sl = [s.cols for s in act.slices]

    # live[j][x]: the Δ(c_j) terms (a, b, cc) whose column sl[x][a] is not empty
    live = [[[(a, b, cc) for a, b, cc in C.delta_pairs(j) if s[a]] for s in sl]
            for j in range(m)]

    def column(i: int, j: int) -> dict:
        legs = [(sl[x][a], sl[y][b], ch * cc) for x, y, ch in act.hopf.coalg.delta_pairs(i)
                for a, b, cc in live[j][x] if sl[y][b]]
        return _accumulate(((_kron(u, v, m, p), c) for u, v, c in legs), p) if legs else {}

    (dom, order), CC = _layout(act.hopf, C.space, act.side), C.comul.codomain.labels
    return compare_maps(label, (sl[i][j] and _combine(C.comul.cols, sl[i][j].items(), p)
                                for i, j in order),
                        (column(i, j) for i, j in order),
                        (C.field, lambda k, r: (dom.labels[k], CC[r])))


def _pair_checks(act: ActionTensor, checks: dict, witness=None) -> list[CheckResult]:
    """Compare the columns of the iterated action h_i·(h_j·–) (resp.
    (–↼h_i)↼h_j) of each basis pair with ``rhs(i, j)`` for every ``label: rhs``
    of ``checks``, in one scan that builds each composite once; each check
    reports its own smallest failing pair and is not evaluated past it.  The
    text after the pair in a failure's witness is ``witness(lhs, rhs)`` of its
    two column tuples, by default the first differing entry."""
    H, left, found = act.hopf.space, act.side == LEFT, {}
    s, p, labels = [t.cols for t in act.slices], act.space.field.characteristic, act.space.labels
    where = (act.space.field, lambda j, i: (labels[j], labels[i]))
    witness = witness or (lambda lhs, rhs: f"; {compare_maps('', lhs, rhs, where).witness}")
    for i, j in ((i, j) for i in range(H.dim) for j in range(H.dim)):
        if len(found) == len(checks):
            break
        outer, inner = (s[i], s[j]) if left else (s[j], s[i])
        lhs = tuple(col and _combine(outer, col.items(), p) for col in inner)
        for label, rhs in checks.items():
            if label not in found and lhs != (r := rhs(i, j)):
                found[label] = CheckResult(label, False, _pair_label(H, i, j) + witness(lhs, r))
    return [found.get(label) or CheckResult(label, True) for label in checks]


def _strict_rhs(act: ActionTensor):
    """Acting by the product h_i h_j: the MC3 and MA3 side, for either side."""
    return lambda i, j: act.product_slices[i * act.hopf.space.dim + j].cols


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
    """ε(h·c) = ε(ε_s(h)·c) for left actions; ε(c↼h) = ε(c↼ε_t(h)) for right,
    read off the counit table: ε(ε_s(h_i)·c_b) = Σ_q (ε_s)_{q,i} ε(h_q·c_b)."""
    H, p, table = act.hopf, act.space.field.characteristic, act.counit_table
    twist = (H.eps_s if act.side == LEFT else H.eps_t).cols
    (dom, cases), cod = _layout(H, act.space, act.side), act.carrier.counit.codomain.labels
    sums = ([({0: table[q][b]}, c) for q, c in twist[i].items() if b in table[q]]
            for i, b in cases)
    return compare_maps(label, ({0: table[i][b]} if b in table[i] else {} for i, b in cases),
                        (_accumulate(terms, p) if terms else {} for terms in sums),
                        (act.space.field, lambda j, i: (dom.labels[j], cod[i])))


def _pmc3_rhs(act: ActionTensor, symmetric: bool):
    """The correction side of PMC3 (or its symmetric variant) as a function
    of the basis pair (h_i, h_j) to an endomorphism of the carrier:

        left   (h k₁ · c₁) ε(k₂ · c₂),    sym  ε(k₁ · c₁) (h k₂ · c₂),
        right  ε(c₁ ↼ h₁) (c₂ ↼ h₂k),    sym  (c₁ ↼ h₁k) ε(c₂ ↼ h₂).

    ``eps_leg`` is the leg of Δ(c) (and of Δ(k), resp. Δ(h)) under ε; the
    other leg is acted on by the product.  The terms of every Δ(c) are indexed
    by their ε-leg, so only the nonzero counit-table entries are visited, and
    a pair with no contributing term gets one shared all-empty side."""
    C = act.carrier
    n, m, p, mul = act.hopf.space.dim, C.space.dim, C.field.characteristic, act.hopf.alg.mul.cols
    left, zero = act.side == LEFT, ({},) * m
    eps_leg = 1 if left != symmetric else 0
    eps_table = act.counit_table
    by_eps_leg = {}     # ε-leg b: the (c, other leg, coefficient) of the Δ(c) terms
    for cidx in range(m):
        for cpair in C.delta_pairs(cidx):
            by_eps_leg.setdefault(cpair[eps_leg], []).append((cidx, cpair[1 - eps_leg], cpair[2]))

    def rhs(i: int, j: int) -> tuple:
        terms = {}      # column c: its (product slice column, coefficient) terms
        for hpair in act.hopf.coalg.delta_pairs(j if left else i):
            x = hpair[1 - eps_leg]
            if (row := eps_table[hpair[eps_leg]]) and mul[k := i * n + x if left else x * n + j]:
                prod = act.product_slices[k].cols
                for b, e in row.items():
                    for cidx, y, cc in by_eps_leg.get(b, ()):
                        if prod[y]:
                            terms.setdefault(cidx, []).append((prod[y], hpair[2] * cc * e))
        return (tuple(_accumulate(terms[c], p) if c in terms else {} for c in range(m))
                if terms else zero)
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
    """h▷(ab) = (h₁▷a)(h₂▷b), resp. (ab)↼h = (a↼h₁)(b↼h₂); skips the Δ(h) terms with
    an empty slice column at a or b, and each b where none is left and a·b = 0."""
    A = act.carrier
    H = act.hopf.space
    m, p = A.space.dim, A.field.characteristic
    sl, right = [s.cols for s in act.slices], A.nonzero_products
    nonempty = [{b for b in range(m) if col[b]} for col in sl]

    def cases():
        for i in range(H.dim):
            pairs = act.hopf.coalg.delta_pairs(i)
            for a in range(m):
                live = [(x, y, c) for x, y, c in pairs if sl[x][a]]
                for b in sorted(set(right[a]).union(*(nonempty[t[1]] for t in live))):
                    lhs = (col := A.mul.cols[a * m + b]) and _combine(sl[i], col.items(), p)
                    terms = [(A.times(sl[x][a], sl[y][b]), c) for x, y, c in live if sl[y][b]]
                    rhs = _accumulate(terms, p) if terms else {}
                    yield (i, a, b), lhs == rhs or compare_vectors(
                        "", lhs, rhs, (A.field, A.space.labels.__getitem__))

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
    factor stands left of the product iff it is the first leg.  A pair with
    no contributing Δ term gets one shared all-empty side."""
    A = act.carrier
    n, p, mul = act.hopf.space.dim, A.field.characteristic, act.hopf.alg.mul.cols
    left, zero = act.side == LEFT, ({},) * A.space.dim
    unit_leg = 0 if left != symmetric else 1
    units = [_combine(s.cols, A.unit.terms.items(), p) for s in act.slices]
    prods = act.product_slices

    def rhs(i: int, j: int) -> tuple:
        terms = [(units[pair[unit_leg]], prods[k].cols, pair[2])
                 for pair in act.hopf.coalg.delta_pairs(i if left else j)
                 if units[pair[unit_leg]] and mul[k := pair[1 - unit_leg] * n + j if left
                                                  else i * n + pair[1 - unit_leg]]]
        return tuple(_accumulate((
            (A.times(u, moved[aidx]) if unit_leg == 0 else A.times(moved[aidx], u), c)
            for u, moved, c in terms), p) for aidx in range(A.space.dim)) if terms else zero
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
