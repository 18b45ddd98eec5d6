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

Field mixing: scalars carry no field, so every field accepts an ``int``.
``coerce`` of a ``Fraction`` into GF(p), or of anything that is neither a
number nor a string, raises :class:`FieldMismatch`, as do ``tensor_product``
and maps across fields; spaces carry their field, so composing, adding or
applying across fields raises ``ShapeMismatch``.
"""

from __future__ import annotations

from .errors import DivisionByZero, FieldMismatch, MalformedInput

# fractions.Fraction and _RATIONAL_FORMAT (the grammar that Fraction(str) parses),
# bound by _import_fractions on first need
Fraction = _RATIONAL_FORMAT = None

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981
_MAX_DIGITS = 4300     # Python's default limit on int ↔ str conversions


def _is_prime(n: int) -> bool:
    """Miller–Rabin to the prime bases up to 41, which is exact for n <
    PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)."""
    if n < 2 or any(n % a == 0 for a in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1     # n - 1 = d·2^s with d odd
    for a in _BASES:    # a witnesses n composite unless a^d = 1 or some a^(d·2^r) = -1
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all((x := x * x % n if r else x) != n - 1 for r in range(s)):
            return False
    return True


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
            raise ValueError("n must be a positive integer")
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


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise MalformedInput(f"p = {p} is not below {PRIME_BOUND}, the bound below "
                                 f"which primality is decided exactly")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def from_int(self, n: int):
        return n % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot interpret {x!r} as a GF({self.p}) element")

    def inv(self, a):
        if not (a := self.coerce(a)):
            raise DivisionByZero(f"0 has no inverse in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def parse(self, s: str):
        t = s.strip()
        if t.endswith(f"mod {self.p}"):
            t = t[: -len(f"mod {self.p}")].strip()
        _refuse_long(s, t)
        num, slash, den = t.partition("/")
        try:     # "3/" has a slash with nothing after it, which int("") refuses
            num, den = int(num), int(den) if slash else 1
        except ValueError:
            raise MalformedInput(f"not an element of GF({self.p}): {s[:40]!r}") from None
        if den % self.p == 0:
            raise MalformedInput(f"zero denominator in {t!r} over GF({self.p})")
        return num % self.p if den == 1 else num * self.inv(den) % self.p

    def fmt(self, a) -> str:
        return str(self.coerce(a))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_name(name: str) -> Field:
    """Parse a field spec string: "Q" or "Fp:<p>" (also accepts "GF(p)")."""
    name = name.strip()
    if name in ("Q", "QQ", "rational"):
        return QQ
    if name.startswith("Fp:"):
        return PrimeField(int(name[3:]))
    if name.startswith("GF(") and name.endswith(")"):
        return PrimeField(int(name[3:-1]))
    raise ValueError(f"unknown field spec {name!r}")


def field_name(field: Field) -> str:
    if isinstance(field, RationalField):
        return "Q"
    if isinstance(field, PrimeField):
        return f"Fp:{field.p}"
    raise ValueError(f"unknown field {field!r}")
