"""GF(p), loaded by :func:`scalars.field_from_name` only for an ``Fp:`` or ``GF(`` name,
so that a ℚ document compiles none of it; an element is an ``int`` in [0, p)."""

from __future__ import annotations

from .errors import DivisionByZero, FieldMismatch, MalformedInput
from .scalars import Field, _refuse_long

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


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise MalformedInput(f"p = {p} is not below {PRIME_BOUND}, the bound below "
                                 f"which primality is decided exactly")
        if not _is_prime(p):
            raise MalformedInput(f"p = {p} is not prime")
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
