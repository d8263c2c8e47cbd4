"""Exact dense linear algebra over Q and F_p, and the greedy column basis of a sparse matrix.

Everything is deterministic: the pivot is the first nonzero entry in a
row-major scan, and the reduced row echelon form is canonical.  A sparse
matrix, given by its entries, is reduced by one sparse echelon over its
columns (`independent_columns`), which keeps the columns not in the span of
those before them: the pivot columns of its RREF, with no dense matrix.
Matrices are immutable after construction and all operations are pure,
except `extend_rref`, which grows the row lists it is given.
"""

import bisect
from math import gcd, lcm

from .fields import QQ, PrimeField
from . import _kernel


class Matrix:
    """Dense matrix over a single field; entries are field scalars."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols=None):
        self.field = field
        data = [list(r) for r in data]
        if data:
            cols_seen = {len(r) for r in data}
            if len(cols_seen) != 1:
                raise ValueError("ragged rows")
            ncols = cols_seen.pop()
            if cols is not None and cols != ncols:
                raise ValueError("cols mismatch")
        else:
            ncols = cols or 0
        self.rows = len(data)
        self.cols = ncols
        self.data = data

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    def matmul(self, other):
        if self.field != other.field or self.cols != other.rows:
            raise ValueError("shape or field mismatch")
        fld = self.field
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = fld.zero
                for k in range(self.cols):
                    acc = fld.add(acc, fld.mul(self.data[i][k], other.data[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(fld, out, cols=other.cols)

    def rref(self):
        """Canonical reduced row echelon form: (Matrix, pivot columns)."""
        red, piv = _rref_rows(self.field, self.data)
        return Matrix(self.field, red, cols=self.cols), piv


def _rref_rows(field, rows, reduced=True):
    """The RREF (rows, pivots) of `rows`; with `reduced` False only an echelon form with its pivots."""
    if field == QQ:
        return _kernel.rref_qq(rows, reduced)
    if isinstance(field, PrimeField):
        return _kernel.rref_fp(rows, field.p, reduced)
    raise TypeError(f"unsupported field {field!r}")


def rank(mat):
    """Rank over the field by exact elimination."""
    return len(_rref_rows(mat.field, mat.data, reduced=False)[1])


def independent_columns(field, entries):
    """The greedy basis of the column space of a matrix given by its entries
    [(row, col, value)], each position at most once and each value non-zero:
    the columns not in the span of the columns before them, sorted.

    These are the pivot columns of its RREF, as many as its rank, found by
    one sparse echelon over the columns in increasing order.  A column v is
    reduced by its leading (least) row against the column u stored there,
    v <- a v - b u with a = u[lead] and b = v[lead], which clears the
    leading row, so the leading row only rises.  A column that reaches a row
    where none is stored is stored there and kept; one that reduces to
    nothing lies in the span of those before it.  Over Q a column is scaled
    to integers once, and a and b are divided by their gcd, so every step
    stays in integers; over F_p a step is v <- v - (b / a) u mod p, and,
    like `_kernel.rref_fp`, takes each value it is given as a field element.
    """
    p = 0 if field == QQ else field.p
    columns, leads, basis = {}, {}, []
    for r, c, x in entries:
        columns.setdefault(c, {})[r] = x
    for c in sorted(columns):
        v = columns[c]
        if not p and {*map(type, v.values())} - {int}:  # some Fraction: scale the column to integers
            den = lcm(*(x.denominator for x in v.values()))
            v = {r: x.numerator * (den // x.denominator) for r, x in v.items()}
        while v:
            lead = min(v)
            u = leads.get(lead)
            if u is None:
                leads[lead] = v
                basis.append(c)
                break
            a, b = u[lead], v[lead]
            if p:
                b = b * pow(a, -1, p) % p
            elif a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    v = {r: a * x for r, x in v.items()}
            for r, y in u.items():  # v is this call's own dict, reduced in place
                x = v.get(r, 0) - b * y
                if p:
                    x %= p
                if x:
                    v[r] = x
                else:
                    del v[r]  # a zero comes only where v has an entry
    return basis


def det(mat):
    """Determinant of a square matrix, by elimination with row swaps."""
    fld, rows, d = mat.field, [list(r) for r in mat.data], mat.field.one
    for c in range(mat.cols):
        r = next((i for i in range(c, mat.rows) if not fld.is_zero(rows[i][c])), None)
        if r is None:
            return fld.zero
        if r != c:
            rows[c], rows[r], d = rows[r], rows[c], fld.neg(d)
        d, inv = fld.mul(d, rows[c][c]), fld.inv(rows[c][c])
        for below in rows[c + 1 :]:
            f = fld.mul(below[c], inv)
            for k in range(c + 1, mat.cols):
                below[k] = fld.sub(below[k], fld.mul(f, rows[c][k]))
    return d


def solve(mat, b):
    """Some x with mat.x = b, or None when the system is inconsistent."""
    if len(b) != mat.rows:
        raise ValueError("dimension mismatch")
    fld = mat.field
    aug = [row + [b[i]] for i, row in enumerate(mat.data)]
    red, piv = _rref_rows(fld, aug)
    if mat.cols in piv:
        return None  # pivot in the augmented column: b outside the column space
    x = [fld.zero] * mat.cols
    for i, col in enumerate(piv):
        x[col] = red[i][mat.cols]
    return x


def kernel_basis(mat):
    """Basis of the null space, in canonical (free-column) order."""
    return rref_kernel_basis(mat.field, *_rref_rows(mat.field, mat.data), mat.cols)


def rref_kernel_basis(field, red, piv, ncols, free=None):
    """`kernel_basis` of a matrix with `ncols` columns, read off its RREF (red, piv);
    with `free`, only the vectors of those free columns, in that order."""
    if free is None:
        piv_set = set(piv)
        free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, col in enumerate(piv):
            v[col] = field.neg(red[i][fc])
        basis.append(v)
    return basis


def row_space_rref(field, vectors, reduced=True):
    """RREF rows spanning the same space as `vectors` (zero rows dropped), and
    their pivots; with `reduced` False, echelon rows with the same pivots."""
    if not vectors:
        return [], []
    return _rref_rows(field, vectors, reduced)


def residue(field, rref_rows, pivots, vec):
    """The residue of `vec` modulo an RREF row space (a new list).

    An entry that changes goes through `field.of`, so over Q an integral
    one is an int; the entries it leaves are those of `vec`.
    """
    fld = field
    v = list(vec)
    for row, col in zip(rref_rows, pivots):
        f = v[col]
        if not fld.is_zero(f):
            # an RREF row is zero left of its pivot; zero entries change nothing
            for c in range(col, len(v)):
                if not fld.is_zero(row[c]):
                    v[c] = fld.of(fld.sub(v[c], fld.mul(f, row[c])))
    return v


def in_row_space(field, rref_rows, pivots, vec):
    """Membership test against an RREF row space; pure reduction."""
    return all(field.is_zero(x) for x in residue(field, rref_rows, pivots, vec))


def extend_rref(field, rref_rows, pivots, vec):
    """Add `vec` to an RREF row space in place; False if it already lies in it.

    The rows and pivots become the canonical RREF of the enlarged span, the
    same as `row_space_rref` of the old rows plus `vec`, without reducing the
    old rows again: the non-zero entries of the residue of `vec` are
    normalized and its pivot column cleared from the rows that meet it.
    Every stored entry is the field zero or goes through `field.of`, so over
    Q an integral one is an int; the residue takes one inverse, of its pivot.
    """
    fld = field
    res = residue(fld, rref_rows, pivots, vec)
    nz = [c for c, x in enumerate(res) if not fld.is_zero(x)]
    if not nz:
        return False
    col, v = nz[0], [fld.zero] * len(res)
    inv = fld.inv(res[col])
    for c in nz:
        v[c] = fld.of(fld.mul(res[c], inv))
    for row in rref_rows:
        f = row[col]
        if not fld.is_zero(f):
            for c in nz:
                row[c] = fld.of(fld.sub(row[c], fld.mul(f, v[c])))
    at = bisect.bisect(pivots, col)
    rref_rows.insert(at, v)
    pivots.insert(at, col)
    return True
