"""Exact coefficient fields: the rationals and prime fields.

A rational scalar is a plain int when it is integral and a
`fractions.Fraction` with denominator > 1 otherwise: almost every scalar the
library meets is a small integer, and int arithmetic skips the Fraction
constructor and its gcd.  The two mix freely, since `Fraction(n) == n`,
`hash(Fraction(n)) == hash(n)` and an int has `numerator`/`denominator`;
only a quotient needs care, as `/` on two ints is a float, so `inv` and
`div` build it as a Fraction and return an int when it is integral.
Prime-field scalars are plain ints in [0, p).  All arithmetic goes through
the field object so generic code can stay agnostic of the representation.
Over Q, `add`, `sub`, `mul` and `neg` are the `operator` functions and
`is_zero` is `operator.not_`, a truth test, so the field's hottest calls run
in C; F_p reduces each result modulo p.
"""

import operator
from fractions import Fraction


class RationalField:
    """The field of rational numbers."""

    tag = "Q"

    def __init__(self):
        self.zero = 0
        self.one = 1

    def of(self, x):
        """The Q scalar of an int, a Fraction or a "p/q" string: an int when integral."""
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        raise TypeError(f"cannot coerce {x!r} into Q")

    # the operator functions themselves: a builtin binds no `self`, and a call runs no Python frame
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    is_zero = operator.not_

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return self.div(1, a)

    def div(self, a, b):
        if type(a) is int and type(b) is int and not a % b:
            return a // b
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return "QQ"


# Strong-probable-prime tests to the prime bases up to 41 are exact below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015); the bases up to 37 alone first fail at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test; raises ValueError for n >= PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is not below the primality bound {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p; elements are ints reduced into [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.tag = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into {self.tag}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.tag}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_tag(tag):
    """Parse a field tag: "Q" or "Fp:<p>".  Only the form `PrimeField.tag` emits, "Fp:" + str(p), is read,
    so that "Fp:05", "Fp:+5" or "Fp: 5" is refused rather than read as F_5, and one field has one tag."""
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:"):
        try:
            p = int(tag[3:])
        except ValueError:
            p = None
        if p is None or "Fp:" + str(p) != tag:
            raise ValueError(f"bad field tag {tag!r}")
        return PrimeField(p)
    raise ValueError(f"unknown field tag {tag!r}")
