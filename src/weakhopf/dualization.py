"""Transfer between partial module-coalgebra actions on C and partial
module-algebra actions on the convolution dual C*.

A left partial action `h·c` on C dualizes to the right partial action
`(α↼h)(c) = α(h·c)` on C*, and back; in coordinates the two tensors are
transposes of each other, so the round trip is the exact identity.  The
mirror transfer (right coalgebra action ↔ left algebra action) is the same
transposition on the other side and is used by the globalization machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputNotPartialAction, ShapeMismatch
from .partial_actions import (
    LEFT,
    RIGHT,
    ActionTensor,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
)
from .tensor_space import LinMap, Vector, tensor_product
from .weak_hopf import AlgebraData, CoalgebraData, dual_space


def dual_convolution_algebra(C: CoalgebraData) -> AlgebraData:
    """The convolution algebra on the coordinate dual basis of C:
    (αβ)(c) = α(c₁)β(c₂), with unit ε."""
    n = C.space.dim
    dspace = dual_space(C.space)
    delta_t = C.comul_tensor().entries   # [k][i][j]
    entries = [[[delta_t[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)]
    return AlgebraData.from_tensor(dspace, entries, [C.eps_coeff(i) for i in range(n)])


@dataclass(frozen=True)
class DualPairing:
    """The canonical evaluation pairing between C and its coordinate dual."""

    C: CoalgebraData
    Cstar: AlgebraData

    @classmethod
    def of(cls, C: CoalgebraData) -> "DualPairing":
        return cls(C, dual_convolution_algebra(C))

    def pair(self, alpha: Vector, c: Vector):
        out = self.C.space.field.zero()
        for i, a in alpha.nonzeros():
            b = c.terms.get(i)
            if b is not None:
                out = out + a * b
        return out


def _as_dual_slices(act: ActionTensor, dual_carrier):
    """Reinterpret transposed carrier endomorphisms on the dual space."""
    dspace = dual_carrier.space
    return [LinMap(dspace, dspace, s.transposed_rows()) for s in act.slices]


def dualize_coalgebra_action(act: ActionTensor, check: bool = True) -> ActionTensor:
    """Left partial action on C  →  right partial action on C*."""
    if act.side != LEFT or not act.is_coalgebra_action():
        raise ShapeMismatch("expected a left action on a coalgebra")
    if check and not check_partial_module_coalgebra(act).is_partial:
        raise InputNotPartialAction("input does not satisfy PMC1-PMC3")
    Cstar = dual_convolution_algebra(act.carrier)
    return ActionTensor.from_slices(act.hopf, Cstar, RIGHT, _as_dual_slices(act, Cstar))


def undualize_algebra_action(act: ActionTensor, C: CoalgebraData,
                             check: bool = True) -> ActionTensor:
    """Right partial action on C* (with its known pairing against C)  →  the
    unique left action on C satisfying (α↼h)(c) = α(h·c)."""
    if act.side != RIGHT or not act.is_algebra_action():
        raise ShapeMismatch("expected a right action on an algebra")
    if act.space.dim != C.space.dim:
        raise ShapeMismatch("dual carrier does not match the coalgebra")
    if check and not check_partial_module_algebra(act).is_partial:
        raise InputNotPartialAction("input does not satisfy PMA1-PMA3")
    dspace = C.space
    slices = [LinMap(dspace, dspace, s.transposed_rows()) for s in act.slices]
    return ActionTensor.from_slices(act.hopf, C, LEFT, slices)


def dualize_right_coalgebra_action(act: ActionTensor, check: bool = True) -> ActionTensor:
    """Right partial action on C  →  left partial action on C* via
    (h⇀α)(c) = α(c↼h).  The mirror of :func:`dualize_coalgebra_action`."""
    if act.side != RIGHT or not act.is_coalgebra_action():
        raise ShapeMismatch("expected a right action on a coalgebra")
    if check and not check_partial_module_coalgebra(act).is_partial:
        raise InputNotPartialAction("input does not satisfy PMC1-PMC3")
    Cstar = dual_convolution_algebra(act.carrier)
    return ActionTensor.from_slices(act.hopf, Cstar, LEFT, _as_dual_slices(act, Cstar))


def undualize_left_algebra_action(act: ActionTensor, C: CoalgebraData,
                                  check: bool = True) -> ActionTensor:
    """Left partial action on C*  →  the right action on C it came from."""
    if act.side != LEFT or not act.is_algebra_action():
        raise ShapeMismatch("expected a left action on an algebra")
    if act.space.dim != C.space.dim:
        raise ShapeMismatch("dual carrier does not match the coalgebra")
    if check and not check_partial_module_algebra(act).is_partial:
        raise InputNotPartialAction("input does not satisfy PMA1-PMA3")
    dspace = C.space
    slices = [LinMap(dspace, dspace, s.transposed_rows()) for s in act.slices]
    return ActionTensor.from_slices(act.hopf, C, RIGHT, slices)
