"""Exact ground-field arithmetic.

Verdicts are decided by exact equality of scalars over ℚ or GF(p).  A rational
is an ``int`` when it is integral and a ``fractions.Fraction`` otherwise:
``RationalField`` normalises every scalar it makes, and arithmetic may leave an
integral ``Fraction``, which compares and hashes like the ``int``.  A GF(p)
element is a :class:`GFElement`.

Field mixing: every field accepts an ``int``, so an integral ℚ scalar combines
with a ``GFElement`` (``QQ.one() * GF7.one()`` is the GF(7) one).  A
``GFElement`` meeting a ``Fraction`` or an element of another GF(q), ``coerce``
of a foreign scalar, ``tensor_product`` and maps across fields raise
:class:`FieldMismatch`; spaces carry their field, so composing, adding or
applying across fields raises ``ShapeMismatch``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, MalformedInput


class GFElement:
    """An element of GF(p), stored as the canonical representative in [0, p).

    It equals another element of the same GF(p) with the same value, and an
    int only when that int is its canonical representative, so that equal
    values hash alike.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        raise FieldMismatch(f"cannot mix GF({self.p}) with {type(other).__name__}")

    def __add__(self, other):
        other = self._lift(other)
        return GFElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return GFElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return GFElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other.value == 0:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def inverse(self) -> "GFElement":
        if self.value == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.p})")
        return GFElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} mod {self.p}"


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


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


class Field:
    """A ground field: scalar factory plus the few operations that are not
    expressible through the scalar's own operators."""

    characteristic: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def fmt(self, a) -> str:
        raise NotImplementedError

    def char_divides(self, n: int) -> bool:
        """True iff the field characteristic divides n (char 0 divides nothing)."""
        if n < 1:
            raise ValueError("n must be a positive integer")
        return self.characteristic != 0 and n % self.characteristic == 0


def _normal(q: Fraction):
    """An integral Fraction as its int numerator; any other one unchanged."""
    return q.numerator if q.denominator == 1 else q


class RationalField(Field):
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return int(n)

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return _normal(x)
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot interpret {x!r} as a rational")

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("0 has no inverse in Q")
        return _normal(1 / Fraction(a))

    def parse(self, s: str):
        t = s.strip()
        # ASCII [+-]?[0-9]+ goes straight to int; int() alone would also
        # accept '1_0', which Fraction rejects before Python 3.11
        digits = t[1:] if t[:1] in ("+", "-") else t
        if digits.isascii() and digits.isdigit():
            return int(t)
        try:
            return _normal(Fraction(t))
        except ZeroDivisionError:
            raise MalformedInput(f"zero denominator in {s!r}") from None

    def fmt(self, a) -> str:
        return str(a if type(a) is int or isinstance(a, Fraction) else Fraction(a))

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

    def zero(self):
        return GFElement(0, self.p)

    def one(self):
        return GFElement(1, self.p)

    def from_int(self, n: int):
        return GFElement(n, self.p)

    def coerce(self, x):
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise FieldMismatch(f"GF({x.p}) element in GF({self.p}) context")
            return x
        if isinstance(x, int):
            return GFElement(x, self.p)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot interpret {x!r} as a GF({self.p}) element")

    def inv(self, a):
        return self.coerce(a).inverse()

    def parse(self, s: str):
        s = s.strip()
        if s.endswith(f"mod {self.p}"):
            s = s[: -len(f"mod {self.p}")].strip()
        num, _, den = s.partition("/")
        value = GFElement(int(num), self.p)
        if not den:
            return value
        if int(den) % self.p == 0:
            raise MalformedInput(f"zero denominator in {s!r} over GF({self.p})")
        return value / int(den)

    def fmt(self, a) -> str:
        return str(self.coerce(a).value)

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


def char_divides(field: Field, n: int) -> bool:
    return field.char_divides(n)
