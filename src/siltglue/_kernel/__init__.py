"""Reduced row echelon kernels: Gauss-Jordan elimination over Q and F_p.

The two hot loops of the linear algebra, kept apart from `siltglue.linalg`
so that they can be timed on their own.  The reduced row echelon form is
canonical: zero rows dropped, pivots equal to 1, pivot columns cleared.
The systems are mostly zero, so each pivot row's non-zero columns are
collected once, and normalisation and elimination touch only those.
"""

__all__ = ["rref_qq", "rref_fp"]


def rref_qq(rows):
    """RREF over Q.

    Takes a list of rows of Fractions; returns ``(reduced_rows, pivot_cols)``
    with zero rows dropped, pivots equal to 1 and pivot columns cleared.
    """
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
        inv = 1 / row[col]
        nz = [c for c in range(col, ncols) if row[c] != 0]
        for c in nz:
            row[c] *= inv
        for r in range(len(m)):
            if r == piv_r:
                continue
            f = m[r][col]
            if f != 0:
                other = m[r]
                for c in nz:
                    other[c] -= f * row[c]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(m):
            break
    return m[:piv_r], pivots


def rref_fp(rows, p):
    """RREF over F_p; rows are lists of ints in [0, p)."""
    m = [[x % p for x in r] for r in rows]
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
        for r in range(len(m)):
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
