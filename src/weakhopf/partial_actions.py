"""Actions of a weak Hopf algebra on coalgebras and algebras.

Covers the global and partial module-coalgebra axioms (left and right), the
module-algebra axioms, actions by a linear functional λ, actions induced from
a global one through a projection, and partial groupoid actions on a
coalgebra together with the equivalence with symmetric partial groupoid-algebra
actions.

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

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InputNotPartialAction,
    NotDirectSum,
    NotIdempotent,
    NotSubcoalgebra,
    NotSymmetric,
    ShapeMismatch,
)
from .groupoid import FiniteGroupoid, groupoid_algebra
from .report import CheckResult, Report, compare_maps, compare_scalars, compare_vectors
from .tensor_space import (
    FinVec,
    LinMap,
    Subspace,
    Tensor3,
    Vector,
    _combine,
    solve_coordinates,
    tensor_product,
)
from .weak_hopf import AlgebraData, CoalgebraData, WeakHopfData

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class ActionTensor:
    """A rank-3 action tensor: H⊗X → X (left) or X⊗H → X (right).

    The carrier X is the coalgebra or algebra being acted on; which one it is
    decides which checkers apply.
    """

    hopf: WeakHopfData
    carrier: object           # CoalgebraData | AlgebraData
    side: str
    action: LinMap

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ShapeMismatch(f"side must be left or right, not {self.side!r}")
        X = self.carrier.space
        H = self.hopf.space
        expected = tensor_product(H, X) if self.side == LEFT else tensor_product(X, H)
        if self.action.domain != expected or self.action.codomain != X:
            raise ShapeMismatch("action tensor shape does not match H and the carrier")

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
        """``product_slices[i·n + j]`` is ``act_by(e_i·e_j)``, built once from
        the multiplication columns of H."""
        return tuple(self._slice_sum(col) for col in self.hopf.alg.mul.cols)

    @cached_property
    def iterated_slices(self) -> tuple[LinMap, ...]:
        """``iterated_slices[i·n + j]`` is c ↦ h_i·(h_j·c) for a left action
        and c ↦ (c↼h_i)↼h_j for a right one, built once."""
        s = self.slices
        if self.side == LEFT:
            return tuple(a @ b for a in s for b in s)
        return tuple(b @ a for a in s for b in s)

    @cached_property
    def counit_table(self) -> tuple[dict, ...]:
        """``counit_table[q]`` is ``{b: ε(h_q·c_b)}`` over its nonzero values,
        for a coalgebra carrier; built once from ε∘slices[q]."""
        counit = self.carrier.counit
        return tuple({b: col[0] for b, col in enumerate((counit @ s).cols) if col}
                     for s in self.slices)

    def act(self, h: Vector, x: Vector) -> Vector:
        return self.act_by(h).apply(x)

    def tensor3(self) -> Tensor3:
        X, H = self.space, self.hopf.space
        if self.side == LEFT:
            return Tensor3.from_linmap("pair_to_one", (H, X, X), self.action)
        return Tensor3.from_linmap("pair_to_one", (X, H, X), self.action)

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


def _pair_label(act: ActionTensor, i: int, j: int) -> str:
    H = act.hopf.space
    return f"h={H.labels[i]}, k={H.labels[j]}"


# ---------------------------------------------------------------------------
# module coalgebra checkers
# ---------------------------------------------------------------------------

def _mc2_check(act: ActionTensor, label: str) -> CheckResult:
    """Δ(h·c) = h₁·c₁ ⊗ h₂·c₂ (either side), as a map equality on the
    action's domain."""
    C = act.carrier
    H = act.hopf
    n = H.space.dim
    m = C.space.dim
    CC = tensor_product(C.space, C.space)
    lhs = C.comul @ act.action

    def image(idx: int) -> Vector:
        if act.side == LEFT:
            i, j = divmod(idx, m)
        else:
            j, i = divmod(idx, n)
        out = Vector.zero(CC)
        for p, q, ch in H.coalg.delta_pairs(i):
            for a, b, cc in C.delta_pairs(j):
                va, vb = act.slices[p].column(a), act.slices[q].column(b)
                out = out + va.tensor(vb).scale(ch * cc)
        return out

    rhs = LinMap.from_function(act.action.domain, CC, image)
    return compare_maps(label, lhs, rhs)


def _aggregate_pairs(act: ActionTensor, label: str, rhs_fn) -> CheckResult:
    """Compare the iterated action of each basis pair (h_i, h_j) with the
    endomorphism ``rhs_fn(i, j)``, reporting the smallest failing pair."""
    n = act.hopf.space.dim
    for i in range(n):
        for j in range(n):
            r = compare_maps(label, act.iterated_slices[i * n + j], rhs_fn(i, j))
            if not r.passed:
                return CheckResult(label, False,
                                   f"{_pair_label(act, i, j)}; {r.witness}")
    return CheckResult(label, True)


def check_module_coalgebra(act: ActionTensor) -> Report:
    """The global module-coalgebra axioms MC1-MC4.

    Over a weak Hopf algebra MC4 follows from MC1-MC3, so the report carries
    an internal-consistency entry that fails only if this implication is
    violated by the computed verdicts.
    """
    C = _require_coalgebra(act)
    n = act.hopf.space.dim
    rep = Report(f"{act.side} module coalgebra")
    ident = LinMap.identity(C.space)

    mc1 = compare_maps("MC1", _unit_slice(act), ident)
    rep.add(mc1)
    mc2 = _mc2_check(act, "MC2")
    rep.add(mc2)

    # for either side the strict composite must match acting by the product h_i h_j
    mc3 = _aggregate_pairs(act, "MC3", lambda i, j: act.product_slices[i * n + j])
    rep.add(mc3)

    mc4 = _globality_criterion(act, "MC4")
    rep.add(mc4)
    implied = not (mc1.passed and mc2.passed and mc3.passed and not mc4.passed)
    rep.add(CheckResult("MC4-consistency", implied,
                        None if implied else "MC1-MC3 hold but MC4 fails"))
    return rep


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


@dataclass
class PartialActionVerdict:
    """Outcome of the partial module-coalgebra (or -algebra) checks."""

    report: Report                 # the required partial axioms
    symmetric: CheckResult
    globality: CheckResult
    consistency: CheckResult | None = None

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


def _pmc3_rhs(act: ActionTensor, i: int, j: int, symmetric: bool) -> LinMap:
    """The correction side of PMC3 (or its symmetric variant) as an
    endomorphism of the carrier, for the basis pair (h_i, h_j):

        left   (h k₁ · c₁) ε(k₂ · c₂),    sym  ε(k₁ · c₁) (h k₂ · c₂),
        right  ε(c₁ ↼ h₁) (c₂ ↼ h₂k),    sym  (c₁ ↼ h₁k) ε(c₂ ↼ h₂).

    ``eps_leg`` is the leg of Δ(c) (and of Δ(k), resp. Δ(h)) under ε; the
    other leg is acted on by the product."""
    C = act.carrier
    H = act.hopf
    n = H.space.dim
    left = act.side == LEFT
    eps_leg = 1 if left != symmetric else 0
    eps_table = act.counit_table
    hpairs = H.coalg.delta_pairs(j if left else i)

    def image(cidx: int) -> Vector:
        out = Vector.zero(C.space)
        for cpair in C.delta_pairs(cidx):
            for hpair in hpairs:
                s = eps_table[hpair[eps_leg]].get(cpair[eps_leg])
                if s:
                    x = hpair[1 - eps_leg]
                    prod = act.product_slices[i * n + x if left else x * n + j]
                    out = out + prod.column(cpair[1 - eps_leg]).scale(hpair[2] * cpair[2] * s)
        return out

    return LinMap.from_function(C.space, C.space, image)


def check_partial_module_coalgebra(act: ActionTensor) -> PartialActionVerdict:
    """PMC1-PMC3, the symmetric variant, and the globality criterion.

    The verdict also cross-checks the characterisation ``partial + criterion
    ⇔ global``: when PMC1-PMC3 hold, the full MC checker must agree with the
    criterion.  A disagreement is reported as an internal-consistency failure.
    """
    C = _require_coalgebra(act)
    rep = Report(f"{act.side} partial module coalgebra")
    rep.add(compare_maps("PMC1", _unit_slice(act), LinMap.identity(C.space)))
    rep.add(_mc2_check(act, "PMC2"))
    rep.add(_aggregate_pairs(act, "PMC3", lambda i, j: _pmc3_rhs(act, i, j, symmetric=False)))
    symmetric = _aggregate_pairs(act, "symmetric",
                                 lambda i, j: _pmc3_rhs(act, i, j, symmetric=True))
    globality = _globality_criterion(act, "globality")

    consistency = None
    if rep.ok:
        mc = check_module_coalgebra(act)
        mc_ok = all(r.passed for r in mc.results if r.label.startswith("MC"))
        agree = mc_ok == globality.passed
        consistency = CheckResult(
            "global-iff-criterion", agree,
            None if agree else "globality criterion disagrees with the MC axioms")
    return PartialActionVerdict(rep, symmetric, globality, consistency)


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

    def strict_composition(label: str, basis_vectors) -> CheckResult:
        for h in basis_vectors:
            ah = act.act_by(h)
            for k in range(n):
                lhs = ah @ act.slices[k]
                rhs = act.act_by(H.product(h, Vector.basis(H.space, k)))
                r = compare_maps(label, lhs, rhs)
                if not r.passed:
                    return CheckResult(
                        label, False,
                        f"h={h.describe()}, k={H.space.labels[k]}; {r.witness}")
        return CheckResult(label, True)

    rep.add(strict_composition("Ht-(i)", H.Ht.basis_vectors))

    fail = None
    for h in H.Ht.basis_vectors:
        ah = act.act_by(h)
        r = compare_maps("Ht-(ii)", C.comul @ ah, ah.tensor(ident) @ C.comul)
        if not r.passed:
            fail = CheckResult("Ht-(ii)", False, f"h={h.describe()}; {r.witness}")
            break
    rep.add(fail or CheckResult("Ht-(ii)", True))

    fail = None
    for h in H.Ht.basis_vectors:
        ah = act.act_by(h)
        a_sh = act.act_by(H.eps_s.apply(h))
        r = compare_maps("Ht-(iii)", C.counit @ ah, C.counit @ a_sh)
        if not r.passed:
            fail = CheckResult("Ht-(iii)", False, f"h={h.describe()}; {r.witness}")
            break
    rep.add(fail or CheckResult("Ht-(iii)", True))

    if check_partial_module_coalgebra(act).is_symmetric:
        rep.add(strict_composition("Hs-(i)", H.Hs.basis_vectors))
        fail = None
        for h in H.Hs.basis_vectors:
            ah = act.act_by(h)
            r = compare_maps("Hs-(ii)", C.comul @ ah, ident.tensor(ah) @ C.comul)
            if not r.passed:
                fail = CheckResult("Hs-(ii)", False, f"h={h.describe()}; {r.witness}")
                break
        rep.add(fail or CheckResult("Hs-(ii)", True))
    return rep


# ---------------------------------------------------------------------------
# module algebra checkers
# ---------------------------------------------------------------------------

def check_module_algebra(act: ActionTensor) -> Report:
    """The global module-algebra axioms MA1-MA4 (either side)."""
    A = _require_algebra(act)
    n = act.hopf.space.dim
    rep = Report(f"{act.side} module algebra")
    ident = LinMap.identity(A.space)
    rep.add(compare_maps("MA1", _unit_slice(act), ident))
    rep.add(_ma2_check(act, "MA2"))
    rep.add(_aggregate_pairs(act, "MA3", lambda i, j: act.product_slices[i * n + j]))
    rep.add(_ma4_check(act, "MA4"))
    return rep


def _ma2_check(act: ActionTensor, label: str) -> CheckResult:
    """h▷(ab) = (h₁▷a)(h₂▷b), resp. (ab)↼h = (a↼h₁)(b↼h₂)."""
    A = act.carrier
    H = act.hopf
    n = H.space.dim
    m = A.space.dim
    for i in range(n):
        pairs = H.coalg.delta_pairs(i)
        for a in range(m):
            ea = Vector.basis(A.space, a)
            for b in range(m):
                eb = Vector.basis(A.space, b)
                lhs = act.slices[i].apply(A.product(ea, eb))
                rhs = Vector.zero(A.space)
                for p, q, ch in pairs:
                    rhs = rhs + A.product(act.slices[p].apply(ea),
                                          act.slices[q].apply(eb)).scale(ch)
                r = compare_vectors(label, lhs, rhs)
                if not r.passed:
                    return CheckResult(
                        label, False,
                        f"h={H.space.labels[i]}, a={A.space.labels[a]}, "
                        f"b={A.space.labels[b]}; {r.witness}")
    return CheckResult(label, True)


def _ma4_check(act: ActionTensor, label: str) -> CheckResult:
    """h▷1 = ε_t(h)▷1 for left actions; 1↼h = 1↼ε_s(h) for right actions."""
    A = act.carrier
    H = act.hopf
    twist = H.eps_t if act.side == LEFT else H.eps_s
    for i in range(H.space.dim):
        lhs = act.slices[i].apply(A.unit)
        rhs = act.act_by(twist.apply(Vector.basis(H.space, i))).apply(A.unit)
        r = compare_vectors(label, lhs, rhs, context=f"h={H.space.labels[i]}")
        if not r.passed:
            return r
    return CheckResult(label, True)


def _pma3_rhs(act: ActionTensor, i: int, j: int, symmetric: bool) -> LinMap:
    """The correction side of PMA3 (or its symmetric variant):

        left   (h₁·1)(h₂k·a),    sym  (h₁k·a)(h₂·1),
        right  (a↼hk₁)(1↼k₂),    sym  (1↼k₁)(a↼hk₂).

    ``unit_leg`` is the leg of Δ(h) (resp. Δ(k)) acting on 1; the unit
    factor stands left of the product iff it is the first leg."""
    A = act.carrier
    H = act.hopf
    n = H.space.dim
    left = act.side == LEFT
    unit_leg = 0 if left != symmetric else 1

    def image(aidx: int) -> Vector:
        out = Vector.zero(A.space)
        for pair in H.coalg.delta_pairs(i if left else j):
            u = act.slices[pair[unit_leg]].apply(A.unit)
            x = pair[1 - unit_leg]
            moved = act.product_slices[x * n + j if left else i * n + x].column(aidx)
            prod = A.product(u, moved) if unit_leg == 0 else A.product(moved, u)
            out = out + prod.scale(pair[2])
        return out

    return LinMap.from_function(A.space, A.space, image)


def check_partial_module_algebra(act: ActionTensor) -> PartialActionVerdict:
    """PMA1-PMA3 and the symmetric variant; the globality slot reports whether
    the full global MA axioms hold as well."""
    A = _require_algebra(act)
    rep = Report(f"{act.side} partial module algebra")
    rep.add(compare_maps("PMA1", _unit_slice(act), LinMap.identity(A.space)))
    rep.add(_ma2_check(act, "PMA2"))
    rep.add(_aggregate_pairs(act, "PMA3", lambda i, j: _pma3_rhs(act, i, j, symmetric=False)))
    symmetric = _aggregate_pairs(act, "symmetric",
                                 lambda i, j: _pma3_rhs(act, i, j, symmetric=True))
    ma = check_module_algebra(act)
    globality = CheckResult("global-MA", ma.ok,
                            None if ma.ok else ma.failures[0].witness)
    return PartialActionVerdict(rep, symmetric, globality)


# ---------------------------------------------------------------------------
# λ-characterised actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaFunctional:
    """A linear functional on H, as its values on the basis."""

    hopf: WeakHopfData
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.hopf.space.dim:
            raise ShapeMismatch("need one value per basis vector of H")

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
        out = self.hopf.field.zero()
        for i, c in v.nonzeros():
            out = out + c * self.values[i]
        return out


def lambda_action(lf: LambdaFunctional, C: CoalgebraData, side: str = LEFT) -> ActionTensor:
    """The scaling action h⊗c ↦ λ(h)c (or c⊗h ↦ λ(h)c on the right)."""
    ident = LinMap.identity(C.space)
    slices = [ident.scale(v) for v in lf.values]
    return ActionTensor.from_slices(lf.hopf, C, side, slices)


@dataclass
class LambdaVerdict:
    report: Report
    symmetric: CheckResult | None
    globality: CheckResult

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

    fail = None
    for i in range(H.space.dim):
        acc = f.zero()
        for p, q, c in H.coalg.delta_pairs(i):
            acc = acc + c * lf.of_basis(p) * lf.of_basis(q)
        if lf.of_basis(i) != acc:
            fail = compare_scalars("(ii)", f, lf.of_basis(i), acc,
                                   context=f"h={H.space.labels[i]}")
            break
    rep.add(fail or CheckResult("(ii)", True))

    fail = None
    for i in range(H.space.dim):
        for j in range(H.space.dim):
            prod = lf.of_vec(H.alg.mul.column(i * H.space.dim + j))
            if lf.of_basis(i) * lf.of_basis(j) != prod:
                fail = compare_scalars("(iii)", f, lf.of_basis(i) * lf.of_basis(j), prod,
                                       context=_pair_label_h(H, i, j))
                break
        if fail:
            break
    rep.add(fail or CheckResult("(iii)", True))

    globality = _lambda_globality(lf, LEFT)
    return LambdaVerdict(rep, None, globality)


def _pair_label_h(H: WeakHopfData, i: int, j: int) -> str:
    return f"h={H.space.labels[i]}, k={H.space.labels[j]}"


def _lambda_globality(lf: LambdaFunctional, side: str) -> CheckResult:
    H = lf.hopf
    f = H.field
    twist = H.eps_s if side == LEFT else H.eps_t
    for i in range(H.space.dim):
        other = lf.of_vec(twist.apply(Vector.basis(H.space, i)))
        if lf.of_basis(i) != other:
            return compare_scalars("globality", f, lf.of_basis(i), other,
                                   context=f"h={H.space.labels[i]}")
    return CheckResult("globality", True)


def check_lambda_partial(lf: LambdaFunctional, side: str = LEFT) -> LambdaVerdict:
    """The functional identities equivalent to λ inducing a partial module
    coalgebra on every coalgebra, plus the symmetric and globality variants."""
    H = lf.hopf
    f = H.field
    rep = Report(f"{side} partial λ-action conditions")
    rep.add(compare_scalars("(i)", f, lf.of_vec(H.unit), f.one(), context="λ(1_H)"))

    n = H.space.dim

    def lam_prod(a: int, b: int):
        return lf.of_vec(H.alg.mul.column(a * n + b))

    def correction(i: int, j: int, symmetric: bool):
        acc = f.zero()
        if side == LEFT:
            for p, q, c in H.coalg.delta_pairs(j):
                if not symmetric:   # λ(hk₁)λ(k₂)
                    acc = acc + c * lam_prod(i, p) * lf.of_basis(q)
                else:               # λ(k₁)λ(hk₂)
                    acc = acc + c * lf.of_basis(p) * lam_prod(i, q)
        else:
            for p, q, c in H.coalg.delta_pairs(i):
                if not symmetric:   # λ(h₁)λ(h₂k)
                    acc = acc + c * lf.of_basis(p) * lam_prod(q, j)
                else:               # λ(h₁k)λ(h₂)
                    acc = acc + c * lam_prod(p, j) * lf.of_basis(q)
        return acc

    def scan(label: str, symmetric: bool) -> CheckResult:
        for i in range(H.space.dim):
            for j in range(H.space.dim):
                lhs = lf.of_basis(i) * lf.of_basis(j)
                rhs = correction(i, j, symmetric)
                if lhs != rhs:
                    return compare_scalars(label, f, lhs, rhs,
                                           context=_pair_label_h(H, i, j))
        return CheckResult(label, True)

    rep.add(scan("(ii)", symmetric=False))
    symmetric = scan("symmetric", symmetric=True)
    globality = _lambda_globality(lf, side)
    return LambdaVerdict(rep, symmetric, globality)


@dataclass
class GroupCriterionVerdict:
    """Agreement between the λ-condition checker and the subset criterion for
    actions of a groupoid algebra (or its dual) on the ground field."""

    V: tuple[str, ...]
    v_is_group: bool
    group_failure: str | None
    values_match: bool
    char_ok: bool
    partial: bool

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

@dataclass
class InducedActionResult:
    action: ActionTensor        # the candidate action on D, in D coordinates
    report: Report              # conditions (i) and (ii)
    symmetric: CheckResult
    D: CoalgebraData
    inclusion: LinMap           # D → C

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
    image = Subspace.from_vectors(C.space, proj.columns())
    d_vectors = image.basis_vectors
    pair_basis = [a.tensor(b) for a in d_vectors for b in d_vectors]
    for v in d_vectors:
        if solve_coordinates(pair_basis, C.delta(v)) is None:
            raise NotSubcoalgebra(f"Δ({v.describe()}) escapes D⊗D")

    rep = Report("induced partial action conditions")
    n = H.space.dim
    pp = proj.tensor(proj)

    fail = None
    for i in range(H.space.dim):
        for d in d_vectors:
            moved = global_act.slices[i].apply(d)
            r = compare_vectors("(i)", pp.apply(C.delta(moved)),
                                C.delta(proj.apply(moved)))
            if not r.passed:
                fail = CheckResult("(i)", False,
                                   f"h={H.space.labels[i]}, d={d.describe()}; {r.witness}")
                break
        if fail:
            break
    rep.add(fail or CheckResult("(i)", True))

    def condition_two(label: str, symmetric: bool) -> CheckResult:
        for i in range(H.space.dim):
            for j in range(H.space.dim):
                for d in d_vectors:
                    lhs = proj.apply(global_act.slices[i].apply(
                        proj.apply(global_act.slices[j].apply(d))))
                    rhs = Vector.zero(C.space)
                    dd = C.delta(d)
                    for flat, cc in dd.nonzeros():
                        a, b = divmod(flat, C.space.dim)
                        for p, q, ch in H.coalg.delta_pairs(j):
                            if not symmetric:
                                s = C.eps(proj.apply(global_act.slices[q].column(b)))
                                if s:
                                    moved = global_act.product_slices[i * n + p].column(a)
                                    rhs = rhs + proj.apply(moved).scale(cc * ch * s)
                            else:
                                s = C.eps(proj.apply(global_act.slices[p].column(a)))
                                if s:
                                    moved = global_act.product_slices[i * n + q].column(b)
                                    rhs = rhs + proj.apply(moved).scale(cc * ch * s)
                    r = compare_vectors(label, lhs, rhs)
                    if not r.passed:
                        return CheckResult(
                            label, False,
                            f"{_pair_label(global_act, i, j)}, d={d.describe()}; {r.witness}")
        return CheckResult(label, True)

    rep.add(condition_two("(ii)", symmetric=False))
    symmetric = condition_two("symmetric", symmetric=True)

    # materialise D with its own basis and the action in D coordinates
    dspace = FinVec(C.space.field, tuple(f"d{i}" for i in range(len(d_vectors))))
    incl = LinMap.from_images(dspace, C.space, d_vectors)
    comul_rows = []
    for v in d_vectors:
        coords = solve_coordinates(pair_basis, C.delta(v))
        comul_rows.append(coords)
    comul = LinMap.from_images(dspace, tensor_product(dspace, dspace), comul_rows)
    counit = LinMap.from_rows(dspace, C.counit.codomain,
                              [[C.eps(v) for v in d_vectors]])
    D = CoalgebraData(dspace, comul, counit)

    slices = []
    for i in range(H.space.dim):
        cols = []
        for v in d_vectors:
            w = proj.apply(global_act.slices[i].apply(v))
            coords = solve_coordinates(d_vectors, w)
            cols.append(coords)
        slices.append(LinMap.from_images(dspace, dspace, cols))
    induced = ActionTensor.from_slices(H, D, LEFT, slices)
    return InducedActionResult(induced, rep, symmetric, D, incl)


# ---------------------------------------------------------------------------
# groupoid partial actions on coalgebras
# ---------------------------------------------------------------------------

@dataclass
class GroupoidPartialAction:
    """A family of subcoalgebras C_g = im(P_g) with isomorphisms
    θ_g: C_{g⁻¹} → C_g, stored as carrier endomorphisms vanishing off their
    supports."""

    groupoid: FiniteGroupoid
    coalgebra: CoalgebraData
    projections: dict
    isos: dict

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

    def agg(label: str, items, check) -> CheckResult:
        for item in items:
            r = check(item)
            if not r.passed:
                return CheckResult(label, False, f"at {item}: {r.witness}")
        return CheckResult(label, True)

    P, TH = gpa.P, gpa.theta
    ident = LinMap.identity(C.space)

    rep.add(agg("theta-support", G.elements,
                lambda g: compare_maps("", TH(g), TH(g) @ P(G.inv[g]))))
    rep.add(agg("(i)-projection", G.elements,
                lambda g: compare_maps("", P(g) @ P(g), P(g))))
    rep.add(agg("(i)-comulti", G.elements,
                lambda g: compare_maps("", P(g).tensor(P(g)) @ C.comul, C.comul @ P(g))))

    def quasi(g: str, flip: bool) -> CheckResult:
        def image(c: int) -> Vector:
            out = Vector.zero(C.space)
            for a, b, cc in C.delta_pairs(c):
                ea, eb = Vector.basis(C.space, a), Vector.basis(C.space, b)
                if flip:
                    ea, eb = eb, ea
                s = C.eps(P(g).apply(eb))
                if s:
                    out = out + P(G.r[g]).apply(ea).scale(cc * s)
            return out
        return compare_maps("", LinMap.from_function(C.space, C.space, image), P(g))

    rep.add(agg("(i)-quasi-a", G.elements, lambda g: quasi(g, flip=False)))
    rep.add(agg("(i)-quasi-b", G.elements, lambda g: quasi(g, flip=True)))
    rep.add(agg("(ii)-theta-objects", G.identities,
                lambda e: compare_maps("", TH(e), P(e))))

    pairs = [(g, h) for g in G.elements for h in G.elements]
    comp = sorted(G.composable)
    rep.add(agg("Eq 1", pairs,
                lambda gh: compare_maps("", P(gh[0]) @ P(gh[1]), P(gh[1]) @ P(gh[0]))))
    rep.add(agg("Eq 2", comp, lambda gh: compare_maps(
        "",
        TH(G.inv[gh[1]]) @ P(gh[1]) @ P(G.inv[gh[0]]),
        P(G.inv[G.mul[gh]]) @ TH(G.inv[gh[1]]) @ P(gh[1]))))
    rep.add(agg("Eq 3", comp, lambda gh: compare_maps(
        "",
        TH(gh[0]) @ TH(gh[1]) @ P(G.inv[G.mul[gh]]) @ P(G.inv[gh[1]]),
        TH(G.mul[gh]) @ P(G.inv[G.mul[gh]]) @ P(G.inv[gh[1]]))))
    rep.add(agg("Eq 4", G.elements,
                lambda g: compare_maps("", P(G.r[g]) @ P(g), P(g))))

    rep.add(agg("Lemma-(i)a", G.elements,
                lambda g: compare_maps("", TH(G.r[g]) @ TH(g), TH(g))))
    rep.add(agg("Lemma-(i)b", G.elements,
                lambda g: compare_maps("", TH(G.r[g]) @ P(g), P(g))))
    rep.add(agg("Lemma-(ii)a", G.elements,
                lambda g: compare_maps("", TH(G.inv[g]) @ TH(g), P(G.inv[g]))))
    rep.add(agg("Lemma-(ii)b", G.elements,
                lambda g: compare_maps("", TH(g) @ TH(G.inv[g]), P(g))))
    rep.add(agg("Lemma-(iii)", comp, lambda gh: compare_maps(
        "",
        P(G.inv[gh[0]]) @ TH(gh[1]),
        TH(gh[1]) @ P(G.inv[G.mul[gh]]) @ P(G.inv[gh[1]]))))

    def iso_check(g: str) -> CheckResult:
        dom = gpa.subcoalgebra(G.inv[g])
        img = Subspace.from_vectors(C.space, [TH(g).apply(v) for v in dom.basis_vectors])
        target = gpa.subcoalgebra(g)
        if img != target:
            return CheckResult("", False, "θ image differs from C_g")
        if len([v for v in dom.basis_vectors]) != img.dim:
            return CheckResult("", False, "θ not injective on C_{g⁻¹}")
        if dom.dim != target.dim:
            return CheckResult("", False, "dim C_{g⁻¹} ≠ dim C_g")
        return CheckResult("", True)

    rep.add(agg("theta-iso", G.elements, iso_check))
    rep.add(agg("theta-comult", G.elements, lambda g: compare_maps(
        "", C.comul @ TH(g), TH(g).tensor(TH(g)) @ C.comul @ P(G.inv[g]))))
    rep.add(agg("theta-counit", G.elements, lambda g: compare_maps(
        "", C.counit @ TH(g), C.counit @ P(G.inv[g]))))
    return rep


def to_kG_action(gpa: GroupoidPartialAction) -> ActionTensor:
    """The groupoid-algebra action δ_g·c = θ_g(P_{g⁻¹}(c)) attached to a
    partial groupoid action whose identity pieces decompose the carrier."""
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
        gi = G.index(G.inv[g])
        ei = G.index(G.r[g])

        def image(c: int, gi=gi, ei=ei) -> Vector:
            out = Vector.zero(C.space)
            for a, b, cc in C.delta_pairs(c):
                s = act.counit_table[gi].get(a)
                if s:
                    out = out + act.slices[ei].column(b).scale(cc * s)
            return out

        projections[g] = LinMap.from_function(C.space, C.space, image)
    for g in G.elements:
        isos[g] = act.slices[G.index(g)] @ projections[G.inv[g]]
    return GroupoidPartialAction(G, C, projections, isos)
