"""Exception types shared across the workbench, the base of its read-only
records, the module ``__getattr__`` that still offers a moved name, and the
canonical JSON text that every command writes."""

import json


class Frozen:
    """A record whose ``__init__`` writes its fields through the instance
    ``__dict__`` (as ``cached_property`` does); assigning or deleting an
    attribute afterwards raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def same_fields(self, other):
    """``__eq__`` of the records compared field by field."""
    return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented


def forward(namespace: dict, moved: dict):
    """The ``__getattr__`` of the module with globals ``namespace``, offering the
    names that moved to the sibling modules ``moved`` maps them to; kept on first use."""
    def __getattr__(name):
        if name not in moved:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from importlib import import_module
        module = import_module(f"{namespace['__package__']}.{moved[name]}")
        namespace[name] = getattr(module, name)
        return namespace[name]
    return __getattr__


def canonical_dumps(obj) -> str:
    """The text of a document or report: sorted keys, no spaces, so that equal
    documents are written byte for byte alike."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


class WorkbenchError(Exception):
    """Base class for every structured error raised by this package."""


class Refused(WorkbenchError):
    """``Refused(message, code)``: a command cannot run on its input, so ``whw``
    prints the message as it is and exits with the code."""


class FieldMismatch(WorkbenchError):
    """Two scalars or spaces over different ground fields were combined."""


class DivisionByZero(WorkbenchError, ZeroDivisionError):
    pass


class MalformedInput(WorkbenchError, ValueError):
    """An input document or scalar string is not well formed."""


class ShapeMismatch(WorkbenchError):
    """Matrix/tensor shapes are inconsistent with the declared spaces."""


class NotInjective(WorkbenchError):
    """A left inverse was requested for a map without full column rank."""


class AxiomViolation(WorkbenchError):
    """A groupoid table violates one of the defining axioms."""

    def __init__(self, axiom: str, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"groupoid axiom {axiom} fails at {witness!r}")


class CharacteristicDividesOrder(WorkbenchError):
    """The ground field characteristic divides the group order, so the
    1/N coefficients of the comultiplication do not exist."""


class NotIdempotent(WorkbenchError):
    pass


class NotSubcoalgebra(WorkbenchError):
    pass


class NotDirectSum(WorkbenchError):
    """The identity projections do not decompose the carrier as a direct sum."""


class NotSymmetric(WorkbenchError):
    """The action is not a symmetric partial module coalgebra action."""


class HypothesisViolated(WorkbenchError):
    """A construction hypothesis (grouplike / absorption) does not hold."""

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        super().__init__(f"hypothesis violated: {which}" + (f" ({detail})" if detail else ""))


class InputNotPartialAction(WorkbenchError):
    pass
