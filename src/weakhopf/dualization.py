"""Transfer between partial module-coalgebra actions on C and partial
module-algebra actions on the convolution dual C*.

A left partial action `h·c` on C dualizes to the right partial action
`(α↼h)(c) = α(h·c)` on C*, and back; in coordinates the two tensors are
transposes of each other, so the round trip is the exact identity.  The
mirror transfer (right coalgebra action ↔ left algebra action) is the same
transposition on the other side and is used by the globalization machinery.
``whw dualize`` (`dualize_command`) checks that the verdicts transfer.
"""

from __future__ import annotations

from .actions import (
    LEFT,
    RIGHT,
    ActionTensor,
    check_partial_module_algebra,
    check_partial_module_coalgebra,
)
from .errors import InputNotPartialAction, ShapeMismatch
from .structures import CoalgebraData, dual_convolution_algebra
from .tensor_space import LinMap


def _transpose(act: ActionTensor, side: str, C: CoalgebraData | None,
               check: bool) -> ActionTensor:
    """The one transfer body: a ``side`` action on a coalgebra (``C`` None)
    becomes the opposite-side action on its convolution dual, and a ``side``
    action on the dual algebra of ``C`` becomes the opposite-side action on
    ``C``; the slices are transposed either way."""
    coalgebra = C is None
    if act.side != side or act.is_coalgebra_action() != coalgebra:
        raise ShapeMismatch(f"expected a {side} action on "
                            f"{'a coalgebra' if coalgebra else 'an algebra'}")
    if not coalgebra and act.space.dim != C.space.dim:
        raise ShapeMismatch("dual carrier does not match the coalgebra")
    check_fn, axioms = ((check_partial_module_coalgebra, "PMC") if coalgebra
                        else (check_partial_module_algebra, "PMA"))
    if check and not check_fn(act).is_partial:
        raise InputNotPartialAction(f"input does not satisfy {axioms}1-{axioms}3")
    target = dual_convolution_algebra(act.carrier) if coalgebra else C
    slices = [LinMap(target.space, target.space, s.transposed_rows()) for s in act.slices]
    return ActionTensor(act.hopf, target, RIGHT if side == LEFT else LEFT, slices)


def dualize_coalgebra_action(act: ActionTensor, check: bool = True) -> ActionTensor:
    """Left partial action on C  →  right partial action on C*."""
    return _transpose(act, LEFT, None, check)


def undualize_algebra_action(act: ActionTensor, C: CoalgebraData,
                             check: bool = True) -> ActionTensor:
    """Right partial action on C* (with its known pairing against C)  →  the
    unique left action on C satisfying (α↼h)(c) = α(h·c)."""
    return _transpose(act, RIGHT, C, check)


def dualize_right_coalgebra_action(act: ActionTensor, check: bool = True) -> ActionTensor:
    """Right partial action on C  →  left partial action on C* via
    (h⇀α)(c) = α(c↼h).  The mirror of :func:`dualize_coalgebra_action`."""
    return _transpose(act, RIGHT, None, check)


def undualize_left_algebra_action(act: ActionTensor, C: CoalgebraData,
                                  check: bool = True) -> ActionTensor:
    """Left partial action on C*  →  the right action on C it came from."""
    return _transpose(act, LEFT, C, check)


def dualize_command(args):
    """``whw dualize``: the dual of the action ``args.doc`` as a document, and the
    report that its PMC verdicts carry over to the dual and undualize back."""
    from .jsonio import action_from_json
    from .jsonwrite import action_to_json
    from .report import CheckResult, Report

    act = action_from_json(args.doc)
    # a wrong-side action raises ShapeMismatch here, before the PMC verdict below
    dual = dualize_coalgebra_action(act, check=False)
    vc = check_partial_module_coalgebra(act)
    if not vc.is_partial:
        raise InputNotPartialAction("input does not satisfy PMC1-PMC3")
    rep = Report("dualization transfer")
    va = check_partial_module_algebra(dual)
    for (rc, ra) in zip(vc.report.results, va.report.results):
        rep.add(CheckResult(f"{rc.label}<->{ra.label}", rc.passed == ra.passed,
                            None if rc.passed == ra.passed else
                            f"{rc.label}={rc.passed} but {ra.label}={ra.passed}"))
    rep.add(CheckResult("symmetric transfers",
                        vc.symmetric.passed == va.symmetric.passed))
    back = undualize_algebra_action(dual, act.carrier, check=False)
    rep.add(CheckResult("undualize(dualize) == action", back.slices == act.slices))
    return [rep], action_to_json(dual)
