import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import weakhopf
from weakhopf.errors import DivisionByZero, FieldMismatch, MalformedInput
from weakhopf.scalars import (
    PRIME_BOUND,
    QQ,
    PrimeField,
    field_from_name,
    field_name,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def test_rational_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    x = Fraction(7, 3)
    assert x * QQ.one() == x
    F = PrimeField(5)
    assert F.coerce(F.from_int(3) * F.from_int(2)) == 1


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * QQ.inv(a) == 1


def test_gf5_field_axioms_exhaustive():
    F = PrimeField(5)
    elems = [F.from_int(i) for i in range(5)]
    assert elems == list(range(5))
    for a in elems:
        for b in elems:
            assert F.coerce(a + b) == F.coerce(b + a)
            assert F.coerce(a * b) == F.coerce(b * a)
            for c in elems:
                assert F.coerce(F.coerce(a + b) + c) == F.coerce(a + F.coerce(b + c))
                assert F.coerce(a * F.coerce(b + c)) == F.coerce(a * b + a * c)
        if a:
            assert F.coerce(a * F.inv(a)) == F.one()


def test_char_divides():
    assert not QQ.char_divides(6)
    assert PrimeField(3).char_divides(6)
    assert not PrimeField(5).char_divides(6)
    with pytest.raises(ValueError):
        QQ.char_divides(0)


def test_field_mismatch():
    # a GF(p) scalar is an int, so only coercion can refuse a foreign scalar: a
    # rational whose denominator p divides has no image in GF(p)
    with pytest.raises(FieldMismatch):
        PrimeField(5).coerce(Fraction(1, 5))
    with pytest.raises(FieldMismatch):
        PrimeField(5).inv(Fraction(2, 5))
    with pytest.raises(FieldMismatch):
        PrimeField(5).coerce(1.0)
    with pytest.raises(FieldMismatch):
        QQ.coerce(0.5)


def test_prime_field_reduces_a_fraction_whose_denominator_is_a_unit():
    """A rational a/b with p ∤ b coerces to a·b⁻¹, as parse("a/b") gives it."""
    F = PrimeField(3)
    assert F.coerce(Fraction(1, 2)) == F.parse("1/2") == 2
    assert PrimeField(7).coerce(Fraction(-3, 4)) == PrimeField(7).parse("-3/4") == 1
    assert F.inv(Fraction(1, 2)) == 2
    with pytest.raises(FieldMismatch):
        F.coerce(Fraction(1, 3))
    with pytest.raises(FieldMismatch):
        F.coerce(Fraction(5, 6))


def test_division():
    assert Fraction(1) * QQ.inv(Fraction(4)) == Fraction(1, 4)
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        PrimeField(5).inv(PrimeField(5).zero())


def test_gf_element_canonical_range():
    F = PrimeField(7)
    assert F.from_int(-1) == 6 and F.coerce(-8) == 6 and F.coerce(True) == 1
    assert F.coerce(F.from_int(3) - F.from_int(5)) == 5
    assert F.fmt(-1) == "6" and F.fmt(15) == "1"
    for x in (F.zero(), F.one(), F.from_int(10 ** 30), F.parse("-3/4"), F.inv(3)):
        assert type(x) is int and 0 <= x < 7


def test_parse_and_fmt_round_trip():
    for s in ["5/6", "-2", "0", "7"]:
        assert QQ.fmt(QQ.parse(s)) == s
    F = PrimeField(5)
    assert F.fmt(F.parse("3")) == "3"
    assert F.parse("3 mod 5") == F.from_int(3)


def test_field_names():
    assert field_name(field_from_name("Q")) == "Q"
    assert field_name(field_from_name("Fp:11")) == "Fp:11"
    assert field_from_name("GF(5)") == PrimeField(5)
    with pytest.raises(ValueError):
        field_from_name("R")
    with pytest.raises(ValueError):
        PrimeField(6)


def _prime_field_accepts(p: int) -> bool:
    try:
        PrimeField(p)
    except ValueError:
        return False
    return True


def test_prime_fields_match_trial_division_below_ten_thousand():
    assert ([p for p in range(10_000) if _prime_field_accepts(p)]
            == [p for p in range(2, 10_000) if all(p % d for d in range(2, math.isqrt(p) + 1))])


@pytest.mark.parametrize("n", [561, 1105, 1729, 2047, 3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_carmichael_numbers_and_strong_pseudoprimes_are_refused(n):
    # the last three are strong pseudoprimes to every prime base up to 7, 31 and 37
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(n)


def test_primes_are_accepted_up_to_the_bound():
    # the last is the largest prime below PRIME_BOUND
    for p in (2 ** 61 - 1, 100000000000000000039, PRIME_BOUND - 168):
        assert field_from_name(f"Fp:{p}").p == p
    # PRIME_BOUND itself is a strong pseudoprime to all thirteen bases
    for p in (PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(MalformedInput, match=str(PRIME_BOUND)):
            PrimeField(p)


def test_rational_canonical_form():
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    x = Fraction(3, -6)
    assert x.denominator > 0 and x == Fraction(-1, 2)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(-10**40, 10**40), st.integers(-10**40, 10**40))
def test_gf_coerce_is_reduction_mod_p(p, a, b):
    F = PrimeField(p)
    x, y = F.coerce(a), F.coerce(b)
    assert type(x) is int and x == a % p and F.from_int(a) == x
    assert (x == y) == (a % p == b % p)
    assert F.coerce(x * y) == F.coerce(a * b) and F.coerce(x + y) == F.coerce(a + b)
    assert F.fmt(a) == str(x)


def test_gf_element_equals_only_its_canonical_int():
    x = PrimeField(5).coerce(8)
    assert x == 3 and x != 8 and len({x, 8}) == 2


def test_parse_rejects_zero_denominators():
    # and empty ones, over either field
    for bad in ("1/0", "3/"):
        with pytest.raises(MalformedInput):
            QQ.parse(bad)
    F = PrimeField(7)
    assert F.parse("3/2") == F.from_int(5)
    for bad in ("1/0", "1/7", "2/14 mod 7", "3/", "3/ mod 7", "/", "/2", " 3 / "):
        with pytest.raises(MalformedInput):
            F.parse(bad)


# -- integral rationals are ints ---------------------------------------------------

def test_integral_rationals_are_ints():
    assert type(QQ.zero()) is int and type(QQ.one()) is int and type(QQ.from_int(5)) is int
    for x, expected in ((Fraction(4, 2), 2), (True, 1), (False, 0), (-3, -3), ("6/3", 2)):
        got = QQ.coerce(x)
        assert got == expected and type(got) is int
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.inv(Fraction(1, 2))) is int and type(QQ.inv(2)) is Fraction
    for a in (1, -1, Fraction(1, 1), Fraction(-2, -2), Fraction(-1, 1)):
        assert QQ.inv(a) == a and type(QQ.inv(a)) is int
    assert QQ.fmt(2) == QQ.fmt(Fraction(2)) == "2" and QQ.fmt(Fraction(-1, 2)) == "-1/2"
    assert hash(QQ.one()) == hash(Fraction(1)) and {QQ.one(), Fraction(1)} == {1}


# integer scalars in a fresh interpreter: fractions (with decimal and numbers) is
# imported only by the first non-integral rational
INTEGRAL_ONLY = """
import sys
from weakhopf.scalars import QQ, PrimeField, field_from_name
assert [QQ.parse(s) for s in ("0", "-1", " +12 ", "007")] == [0, -1, 12, 7]
assert (QQ.inv(1), QQ.inv(-1), QQ.fmt(5), QQ.coerce(True), QQ.coerce("-3")) == (1, -1, "5", 1, -3)
F = field_from_name("Fp:7")
assert F == PrimeField(7) and (F.zero(), F.one(), F.from_int(8), F.coerce(-1)) == (0, 1, 1, 6)
assert (F.parse("3/2"), F.parse("4 mod 7"), F.inv(3), F.fmt(9)) == (5, 4, 5, "2")
assert F.char_divides(14) and not QQ.char_divides(14)
print(sorted({"fractions", "decimal", "numbers"} & set(sys.modules)))
q = QQ.parse("1/5")
print(type(q) is sys.modules["fractions"].Fraction, q)
"""


def test_integer_scalars_do_not_import_fractions():
    src = os.path.dirname(os.path.dirname(weakhopf.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", INTEGRAL_ONLY], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True 1/5"]


def test_integral_rational_mixes_with_prime_field_scalars():
    # every field accepts an int, so a bare integral ℚ scalar combines with GF(p)
    F = PrimeField(7)
    product = QQ.one() * F.one()
    assert type(product) is int and product == F.one()
    assert F.coerce(F.one() * QQ.inv(2)) == 4
    with pytest.raises(FieldMismatch):
        F.coerce(F.one() * QQ.inv(7))


# -- QQ.parse accepts exactly what Fraction accepts ----------------------------------

PARSE_CHARS = ["+", "-", " ", "\t", "\n", "\u3000", "0", "1", "2", "٣", "７", "²",
               "_", "/", ".", "e", "E"]


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from(PARSE_CHARS), max_size=8))
@example("1_0")
@example("٣")
@example("+-3")
@example("007")
@example(" -12 ")
@example("+0")
@example("²")
@example("4/2")
@example("1/0")
@example("1.5e1")
@example("0e10000")
@example("0E７000")
@example(".７1e７021")
@example("٣E+７٣٣７1")
@example("\u300010E７10٣")
def test_parse_matches_fraction(s):
    """Fraction's value, except that a nonzero literal is refused when a side of
    its "/", plus the magnitude of its decimal exponent, passes 4,300 digits (the
    README's rule: such a value cannot be printed under the int-string limit)."""
    try:
        expected = Fraction(s.strip())
    except ZeroDivisionError:
        with pytest.raises(MalformedInput):
            QQ.parse(s)
        return
    except ValueError:
        with pytest.raises(ValueError):
            QQ.parse(s)
        return
    body, _, exponent = s.strip().lower().partition("e")
    shift = abs(int(exponent.replace("_", ""))) if exponent else 0
    if expected and shift + max(sum(map(str.isdecimal, side)) for side in body.split("/")) > 4300:
        with pytest.raises(MalformedInput, match="more than 4300 digits"):
            QQ.parse(s)
        return
    got = QQ.parse(s)
    assert got == expected
    assert type(got) is (int if expected.denominator == 1 else Fraction)
