import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from siltglue.fields import PRIME_BOUND, QQ, PrimeField, field_from_tag, is_prime
from verifiers import is_q_scalar


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.is_zero(Fraction(0))
    assert QQ.of("3/4") == Fraction(3, 4)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_prime_field_basics():
    F = PrimeField(5)
    assert F.add(3, 4) == 2
    assert F.mul(F.inv(3), 3) == 1
    assert F.of(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    with pytest.raises(ValueError):
        PrimeField(6)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_fp_matches_integers(a, b):
    F = PrimeField(7)
    assert F.add(F.of(a), F.of(b)) == (a + b) % 7
    assert F.mul(F.of(a), F.of(b)) == (a * b) % 7


def test_field_from_tag():
    assert field_from_tag("Q") == QQ
    assert field_from_tag("Fp:11") == PrimeField(11)
    assert field_from_tag(PrimeField(5).tag) == PrimeField(5)
    with pytest.raises(ValueError):
        field_from_tag("R")
    # only the form the writer emits, "Fp:" + str(p): none of these is read as F_5 (or, for "5_0", as F_50)
    for tag in ("Fp:05", "Fp:+5", "Fp: 5", "Fp:5 ", "Fp:5_0", "Fp:", "Fp:5.0"):
        with pytest.raises(ValueError, match=re.escape(f"bad field tag {tag!r}")):
            field_from_tag(tag)


def test_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ != PrimeField(5)
    assert len({QQ, PrimeField(5), PrimeField(5)}) == 2


@pytest.mark.parametrize("p", [10**18 + 3, 2**31 - 1])
def test_large_primes_accepted_fast(p):
    start = time.perf_counter()
    F = field_from_tag(f"Fp:{p}")
    assert time.perf_counter() - start < 0.1
    assert F.p == p


# Carmichael numbers, then strong pseudoprimes to every prime base up to 23
# and up to 37
@pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461])
def test_pseudoprimes_rejected(n):
    assert not is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


def test_primality_matches_trial_division():
    small = [n for n in range(2000) if n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if is_prime(n)] == small


def test_prime_beyond_bound_rejected():
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        field_from_tag(f"Fp:{PRIME_BOUND + 2}")


def test_rational_unit_and_zero_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


def test_rational_inverse_of_a_unit_is_that_unit():
    for u in (1, -1, Fraction(1), Fraction(-1)):
        assert QQ.inv(u) == u and type(QQ.inv(u)) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction


rationals = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4).filter(lambda q: abs(q.numerator) < 10**9),
)


@given(rationals)
def test_rational_of_is_int_exactly_when_integral(x):
    for raw in (x, Fraction(x), str(Fraction(x))):
        y = QQ.of(raw)
        assert y == x and is_q_scalar(y)
        assert (type(y) is int) == (Fraction(x).denominator == 1)


@given(rationals, rationals)
def test_rational_div_and_inv_are_exact(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)
        return
    q, i = QQ.div(a, b), QQ.inv(b)
    assert q == Fraction(a) / Fraction(b) and is_q_scalar(q)
    assert i == 1 / Fraction(b) and is_q_scalar(i)
    assert (type(q) is int) == ((Fraction(a) / Fraction(b)).denominator == 1)


@given(rationals, rationals)
def test_rational_ring_ops_on_mixed_inputs_match_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for x, y in ((a, b), (fa, b), (a, fb), (fa, fb)):
        assert QQ.add(x, y) == fa + fb
        assert QQ.sub(x, y) == fa - fb
        assert QQ.mul(x, y) == fa * fb
        assert QQ.neg(x) == -fa
        assert hash(QQ.mul(x, y)) == hash(fa * fb)  # dict keys and sets see one value
        assert QQ.is_zero(QQ.sub(x, y)) == (fa == fb)


@given(st.sampled_from([2, 5, 7, 2147483647]), st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_prime_field_ops_are_residues(p, a, b):
    F = PrimeField(p)
    x, y = F.of(a), F.of(b)
    assert type(F.zero) is int and type(F.one) is int
    assert (x, y) == (a % p, b % p)
    assert (F.add(x, y), F.sub(x, y), F.mul(x, y), F.neg(x)) == ((a + b) % p, (a - b) % p, a * b % p, -a % p)
    if y:
        assert F.mul(F.inv(y), y) == 1 and F.div(x, y) == x * pow(y, -1, p) % p
    assert F.of(Fraction(a, 3)) == a * pow(3, -1, p) % p  # 3 is a unit in every sampled field
