"""Exact ground-field arithmetic.

Verdicts are decided by exact equality of scalars over ℚ or GF(p).  A rational
is an ``int`` when it is integral and a ``fractions.Fraction`` otherwise:
``RationalField`` normalises every scalar it makes, and arithmetic may leave an
integral ``Fraction``, which compares and hashes like the ``int``.  It imports
``fractions`` (and with it ``decimal`` and ``numbers``) only on first need: when
``parse`` reads a string other than ``[+-]?[0-9]+``, when a non-integral value
reaches ``coerce`` or ``fmt``, or when ``inv`` inverts anything but an ``int``
±1, which is its own inverse.  So a process that reads and decides a document
whose scalars are all integers never loads it.  A GF(p)
element is a plain ``int``, stored reduced to its representative in [0, p).
Python arithmetic on two of them leaves an unreduced ``int``: the sparse
kernels of :mod:`tensor_space` take the field's ``characteristic`` as their
modulus and reduce each entry they accumulate once, and scalars computed
outside them are compared and printed through ``coerce``.

Field mixing: every field accepts an ``int``, and GF(p) reduces a ``Fraction``
a/b to a·b⁻¹ as ``parse("a/b")`` does; ``coerce`` of one whose denominator p
divides, or of anything but a number or a string, raises :class:`FieldMismatch`,
as do ``tensor_product`` and maps across fields.  Spaces carry their field, so
composing, adding or applying across fields raises ``ShapeMismatch``.
"""

from __future__ import annotations

from .errors import DivisionByZero, FieldMismatch, MalformedInput, forward

# fractions.Fraction and _RATIONAL_FORMAT (the grammar that Fraction(str) parses),
# bound by _import_fractions on first need
Fraction = _RATIONAL_FORMAT = None

# GF(p), defined in `prime_field` and loaded on first need like `fractions`
__getattr__ = forward(globals(), dict.fromkeys(("PrimeField", "PRIME_BOUND"), "prime_field"))

_MAX_DIGITS = 4300     # Python's default limit on int ↔ str conversions


def _refuse_long(s: str, body: str, shift: int = 0) -> None:
    """Refuse the scalar ``s`` if a side of "/" in its ``body``, with ``shift``
    digits more for a decimal exponent, would pass Python's int ↔ str limit,
    which raises a ValueError that names no JSON path."""
    if len(body) + shift > _MAX_DIGITS and shift + max(
            sum(map(str.isdecimal, side)) for side in body.split("/")) > _MAX_DIGITS:
        raise MalformedInput(f"more than {_MAX_DIGITS} digits in {s[:40]!r}")


class Field:
    """A ground field: scalar factory plus the operations that Python's own
    operators on its scalars do not provide (inversion, reduction, parsing
    and printing)."""

    characteristic: int

    def zero(self):
        return 0

    def one(self):
        return 1

    def char_divides(self, n: int) -> bool:
        """True iff the field characteristic divides n (char 0 divides nothing)."""
        if n < 1:
            raise MalformedInput(f"n = {n} is not a positive integer")
        return self.characteristic != 0 and n % self.characteristic == 0


def _import_fractions() -> None:
    global Fraction, _RATIONAL_FORMAT
    from fractions import _RATIONAL_FORMAT, Fraction


def _normal(q: Fraction):
    """An integral Fraction as its int numerator; any other one unchanged."""
    return q.numerator if q.denominator == 1 else q


class RationalField(Field):
    characteristic = 0

    def from_int(self, n: int):
        return int(n)

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            return self.parse(x)
        if Fraction is None:
            _import_fractions()
        if isinstance(x, Fraction):
            return _normal(x)
        raise FieldMismatch(f"cannot interpret {x!r} as a rational")

    def inv(self, a):
        if type(a) is int and (a == 1 or a == -1):
            return a
        if a == 0:
            raise DivisionByZero("0 has no inverse in Q")
        if Fraction is None:
            _import_fractions()
        return _normal(1 / Fraction(a))

    def parse(self, s: str):
        t = s.strip()
        # ASCII [+-]?[0-9]+ goes straight to int; int() alone would also
        # accept '1_0', which Fraction rejects before Python 3.11
        digits = t[1:] if t[:1] in ("+", "-") else t
        if digits.isascii() and digits.isdigit() and len(digits) <= _MAX_DIGITS:
            return int(t)
        if Fraction is None:
            _import_fractions()
        # a zero mantissa in Fraction's grammar is 0 whatever its exponent or length
        if (m := _RATIONAL_FORMAT.match(t)) and not m["denom"] and not any(
                c != "_" and int(c) for c in m["num"] + (m["decimal"] or "")):
            return 0
        body, _, exp = t.lower().partition("e")     # Fraction makes 10^|exponent| first
        exp = exp.replace("_", "").lstrip("+-")
        shift = (int(exp) if len(exp) < 9 else _MAX_DIGITS) if exp.isdecimal() else 0
        _refuse_long(s, body, shift)
        try:
            return _normal(Fraction(t))
        except ZeroDivisionError:
            raise MalformedInput(f"zero denominator in {s!r}") from None
        except ValueError:
            raise MalformedInput(f"not a rational number: {s[:40]!r}") from None

    def fmt(self, a) -> str:
        if type(a) is int:
            return str(a)
        if Fraction is None:
            _import_fractions()
        return str(a if isinstance(a, Fraction) else Fraction(a))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


QQ = RationalField()


def field_from_name(name: str) -> Field:
    """Parse a field spec string: "Q" or "Fp:<p>" (also accepts "GF(p)")."""
    spec = name.strip() if isinstance(name, str) else ""
    if spec in ("Q", "QQ", "rational"):
        return QQ
    digits = spec[3:-1] if spec.startswith("GF(") and spec.endswith(")") else (
        spec[3:] if spec.startswith("Fp:") else "")
    try:
        p = int(digits)
    except ValueError:
        raise MalformedInput(f"expected a field name such as 'Q', got {name!r}") from None
    from .prime_field import PrimeField
    return PrimeField(p)


def field_name(field: Field) -> str:
    if isinstance(field, RationalField):
        return "Q"
    from .prime_field import PrimeField
    if isinstance(field, PrimeField):
        return f"Fp:{field.p}"
    raise MalformedInput(f"field = {field!r} is neither Q nor GF(p)")
