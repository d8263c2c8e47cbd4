"""Reduced row echelon kernels: elimination over Q and F_p.

The two hot loops of the linear algebra, kept apart from `siltglue.linalg`
so that they can be timed on their own.  The reduced row echelon form is
canonical: zero rows dropped, pivots equal to 1, pivot columns cleared.
The systems are mostly zero, so each pivot row's non-zero columns are
collected once, and elimination touches only those where it can.  A caller
that reads only the rank or the pivot columns passes ``reduced=False``: the
elimination then clears each pivot column below its pivot only, and over Q
skips the final division, so it stops at a row echelon form with the pivot
columns of the RREF (forward elimination never moves a pivot).

Over Q the elimination is integer-preserving (after Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", 1968):
every row is scaled to integers once, a row is cleared by an integer
combination of itself and the pivot row, and rows are kept primitive by
dividing out their content.  Only the last step divides each pivot row by
its pivot, so a Fraction is built only for an entry that is not integral.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = ["rref_qq", "rref_fp"]


def rref_qq(rows, reduced=True):
    """RREF over Q.

    Takes a list of rows of Q scalars (ints and Fractions); returns
    ``(reduced_rows, pivot_cols)`` with zero rows dropped, pivots equal to 1
    and pivot columns cleared.  A returned entry is an int when it is
    integral and a Fraction otherwise.  With ``reduced=False`` the rows are
    integer rows in echelon form instead, with the same pivot columns.
    """
    m = []
    for r in rows:
        row = list(r)
        if {*map(type, row)} - {int}:  # some Fraction: scale the row to integers
            den = lcm(*(x.denominator for x in row))
            row = [x.numerator * (den // x.denominator) for x in row]
        m.append(row)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    piv_r = 0
    for col in range(ncols):
        sel = None
        for r in range(piv_r, len(m)):
            if m[r][col]:
                sel = r
                break
        if sel is None:
            continue
        m[piv_r], m[sel] = m[sel], m[piv_r]
        row = m[piv_r]
        # a primitive pivot row with a positive pivot, so the pivot is 1 when it can be
        g = gcd(*row) if row[col] > 0 else -gcd(*row)
        if g != 1:
            row[:] = [x // g for x in row]
        a = row[col]
        nz = [c for c in range(col, ncols) if row[c]]
        for r in range(0 if reduced else piv_r + 1, len(m)):
            if r == piv_r:
                continue
            other = m[r]
            f = other[col]
            if not f:
                continue
            g = gcd(a, f)
            s, t = a // g, f // g  # other <- s other - t row
            if s != 1:
                other[:] = [s * x for x in other]
            for c in nz:
                other[c] -= t * row[c]
            if s != 1 and (g := gcd(*other)) != 1:  # primitive again
                other[:] = [x // g for x in other]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(m):
            break
    m = m[:piv_r]
    if not reduced:
        return m, pivots
    for row, col in zip(m, pivots):
        a = row[col]
        if a != 1:
            for c in range(col, ncols):
                x = row[c]
                if x:
                    q, rem = divmod(x, a)
                    row[c] = Fraction(x, a) if rem else q
    return m, pivots


def rref_fp(rows, p, reduced=True):
    """RREF over F_p.  Every entry must be a field element, an int in [0, p): the
    rows are copied as they are, not reduced.  With ``reduced=False``, an
    echelon form with the same pivot columns and pivots equal to 1."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    piv_r = 0
    for col in range(ncols):
        sel = None
        for r in range(piv_r, len(m)):
            if m[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        m[piv_r], m[sel] = m[sel], m[piv_r]
        row = m[piv_r]
        inv = pow(row[col], -1, p)
        nz = [c for c in range(col, ncols) if row[c]]
        for c in nz:
            row[c] = row[c] * inv % p
        for r in range(0 if reduced else piv_r + 1, len(m)):
            if r == piv_r:
                continue
            f = m[r][col]
            if f:
                other = m[r]
                for c in nz:
                    other[c] = (other[c] - f * row[c]) % p
        pivots.append(col)
        piv_r += 1
        if piv_r == len(m):
            break
    return m[:piv_r], pivots
