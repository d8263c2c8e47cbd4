import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from siltglue.fields import PRIME_BOUND, QQ, PrimeField, field_from_tag, is_prime


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
    with pytest.raises(ValueError):
        field_from_tag("R")


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
