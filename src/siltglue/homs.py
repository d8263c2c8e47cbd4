"""Morphism spaces in the homotopy category, read off the total Hom complex.

Hom(X, Y[k]) is H^k of Hom•(X, Y): Hom^m = (+)_n Hom_A(X^n, Y^{n+m}), with
the path coefficients of the matrix entries as coordinates, and
delta^m f = d_Y f - (-1)^m f d_X.  `HomComplex` builds each Hom^m and
assembles each delta^m once, and reduces delta^m at most once as equations
(kernel: the cycles) and once as a row space (image: the boundaries).  A
`HomSpace` is a view: dim = nullity delta^k - rank delta^(k-1).  Since
d_{Y[k]} = (-1)^k d_Y, kernel and row space are those of the chain maps
X -> Y[k] modulo homotopy, so only a homotopy witness picks up the sign
(-1)^k; and Hom(X[s], Y[s]) has the representative vectors of Hom(X, Y).
A window walker shares one complex per pair, so measuring w shifts assembles
and reduces w + 1 differentials.  Cycles and representatives wait for a read.
"""

import functools
import itertools

from .complexes import ChainMap, PathMatrix, shift
from .linalg import Matrix, extend_rref, rref_kernel_basis, row_space_rref, in_row_space, solve


class _VarSpace:
    """Coordinates of Hom^m: degreewise path-matrix maps X^n -> Y^{n+m}."""

    def __init__(self, X, Y, m):
        self.X, self.Y, self.m = X, Y, m
        self.slots = []  # (degree n, row i, col j, path)
        self.index = {}
        alg = X.algebra
        for n in sorted(set(X.components) & {n - m for n in Y.components}):
            for i, w in enumerate(Y.component(n + m)):
                for j, v in enumerate(X.component(n)):
                    for p in alg.paths_between(w, v):  # Hom(P_v, P_w) = e_w A e_v
                        self.index[(n, i, j, p)] = len(self.slots)
                        self.slots.append((n, i, j, p))
        self.dim = len(self.slots)

    def to_vector(self, comps):
        """Flatten degreewise matrices {n: PathMatrix} into coordinates."""
        vec = [self.X.algebra.field.zero] * self.dim
        for n, m in comps.items():
            for (i, j), terms in m.cells.items():
                for p, c in terms.items():
                    vec[self.index[n, i, j, p]] = c
        return vec

    def from_vector(self, vec):
        """Inverse of to_vector; returns {n: PathMatrix}."""
        X, Y, m = self.X, self.Y, self.m
        alg, fld, cells = X.algebra, X.algebra.field, {}
        for idx, c in enumerate(vec):
            if fld.is_zero(c):
                continue
            n, i, j, p = self.slots[idx]
            cells.setdefault(n, {}).setdefault((i, j), {})[p] = c
        return {n: PathMatrix._of(alg, Y.component(n + m), X.component(n), cs) for n, cs in cells.items()}


class HomComplex:
    """Hom•(X, Y), built on demand: each Hom^m, delta^m and reduction of delta^m once."""

    def __init__(self, X, Y):
        self.X, self.Y, self.field = X, Y, X.algebra.field
        # a unit map meets one column of a d_Y and one row of a d_X
        self._dy_cols = {n: d.lines(1) for n, d in Y.differentials.items()}
        self._dx_rows = {n: d.lines(0) for n, d in X.differentials.items()}
        self._terms, self._deltas, self._equations, self._images = {}, {}, {}, {}

    def term(self, m):
        """The coordinates of Hom^m."""
        if m not in self._terms:
            self._terms[m] = _VarSpace(self.X, self.Y, m)
        return self._terms[m]

    def delta(self, m):
        """delta^m as dense rows: the images in Hom^(m+1) of the unit maps of Hom^m, in slot order."""
        if m not in self._deltas:
            zero, width = self.field.zero, self.term(m + 1).dim
            images = (self._unit_image(slot, m) for slot in self.term(m).slots)
            self._deltas[m] = [[img.get(c, zero) for c in range(width)] for img in images]
        return self._deltas[m]

    def _unit_image(self, slot, m):
        """delta^m u = d_Y u - (-1)^m u d_X, sparse, for the unit map u: X^n -> Y^{n+m} at `slot`.

        u is the path p at (i, j): d_Y u has entries d_Y[r][i] p at (n, r, j),
        and u d_X has entries p d_X[j][c] at (n-1, i, c).
        """
        n, i, j, p = slot
        fld, prod, index = self.field, self.X.algebra.compose_paths, self.term(m + 1).index
        out = {}
        for r, terms in self._dy_cols.get(n + m, {}).get(i, ()):
            for s, c in terms.items():
                idx = index[n, r, j, prod(s, p)]
                out[idx] = fld.add(out.get(idx, fld.zero), c)
        for col, terms in self._dx_rows.get(n - 1, {}).get(j, ()):
            for t, c in terms.items():
                idx = index[n - 1, i, col, prod(p, t)]
                out[idx] = fld.add(out.get(idx, fld.zero), c if m % 2 else fld.neg(c))
        return out

    def equations(self, m):
        """RREF (rows, pivots) of delta^m as equations on Hom^m: its kernel is the cycles."""
        if m not in self._equations:
            self._equations[m] = row_space_rref(self.field, list(zip(*self.delta(m))))
        return self._equations[m]

    def image(self, m):
        """RREF (rows, pivots) of im delta^m in Hom^(m+1): the boundaries there."""
        if m not in self._images:
            self._images[m] = row_space_rref(self.field, self.delta(m) if self.term(m + 1).dim else [])
        return self._images[m]

    def rank(self, m, reduce):
        """rank delta^m, read off a reduction of delta^m already made, else off `reduce(m)`."""
        return len((self._equations.get(m) or self._images.get(m) or reduce(m))[1])


class HomSpace:
    """Hom_{K^b}(X, Y[k]) = H^k Hom•(X, Y), with a canonical basis of representatives.

    A view on `hom`, the HomComplex of (X, Y) a walker shares; a space built alone makes its own.
    """

    def __init__(self, X, Y, k=0, hom=None):
        self.X, self.Y, self.k = X, Y, k
        self.hom = HomComplex(X, Y) if hom is None else hom
        self.fvars, self.hvars = self.hom.term(k), self.hom.term(k - 1)
        # where nothing is reduced yet: delta^k as equations, delta^(k-1) as an image, the forms the reps read
        ranks = self.hom.rank(k, self.hom.equations) + self.hom.rank(k - 1, self.hom.image)
        self.dim = self.fvars.dim - ranks

    @functools.cached_property
    def Z(self):
        """Y[k], the target of the chain maps of this space."""
        return shift(self.Y, self.k)

    @functools.cached_property
    def cycle_basis(self):
        """The chain maps X -> Y[k]: the kernel of delta^k."""
        return rref_kernel_basis(self.X.algebra.field, *self.hom.equations(self.k), self.fvars.dim)

    @functools.cached_property
    def _reps(self):
        """Canonical representatives: cycle-kernel vectors that grow the span,
        added one by one to a running RREF of the boundaries, until `dim`."""
        if not self.dim:
            return []
        fld = self.X.algebra.field
        brows, bpivs = self.hom.image(self.k - 1)  # the boundaries
        rows, pivs = [list(r) for r in brows], list(bpivs)
        return list(itertools.islice((v for v in self.cycle_basis if extend_rref(fld, rows, pivs, v)), self.dim))

    def basis_maps(self):
        """Canonical representing chain maps X -> Y[k].

        They are kernel vectors of delta^k, so they are chain maps by
        construction and are not checked again here.
        """
        return [ChainMap(self.X, self.Z, self.fvars.from_vector(v)) for v in self._reps]

    def is_null_homotopic(self, f):
        vec = self.fvars.to_vector(f.components)
        return in_row_space(self.X.algebra.field, *self.hom.image(self.k - 1), vec)

    def coordinates(self, f):
        """Coefficients of [f] in the representative basis, exact.

        The first call factors the cycle space once: the RREF of
        [reps ; boundary rows | I] has all its pivots left of the identity
        block, because those rows are independent, so each reduced row comes
        with its expression in reps and boundaries.  Every call reduces f
        against the reduced rows and sums the rep parts of their expressions.
        Raises ValueError if f is not a cycle of this Hom space.
        """
        fld = self.X.algebra.field
        vec = self.fvars.to_vector(f.components)
        x = [fld.zero] * len(self._reps)
        for col, row, expr in self._solver:
            c = vec[col]
            if fld.is_zero(c):
                continue
            for k, a in row:
                vec[k] = fld.sub(vec[k], fld.mul(c, a))
            for k, a in expr:
                x[k] = fld.add(x[k], fld.mul(c, a))
        if not all(fld.is_zero(a) for a in vec):
            raise ValueError("map outside the homotopy Hom space")
        return x

    @functools.cached_property
    def _solver(self):
        """[(pivot, sparse reduced row, sparse rep coefficients)] of the cycle space."""
        fld = self.X.algebra.field
        n, r = self.fvars.dim, len(self._reps)
        basis = self._reps + self.hom.image(self.k - 1)[0]
        unit = [fld.zero] * len(basis)
        aug = [list(v) + unit[:i] + [fld.one] + unit[i + 1 :] for i, v in enumerate(basis)]
        red, piv = row_space_rref(fld, aug)
        return [
            (col, [(k, row[k]) for k in range(col, n) if not fld.is_zero(row[k])],
             [(k, row[n + k]) for k in range(r) if not fld.is_zero(row[n + k])])
            for row, col in zip(red, piv)
        ]

    def homotopy_witness(self, f):
        """For a null-homotopic f, a degree -1 map h with f = d h + h d.

        With d = d_{Y[k]} = (-1)^k d_Y, d h + h d = (-1)^k delta^(k-1) h, so
        h is (-1)^k times a solution of delta^(k-1) x = f.
        """
        fld = self.X.algebra.field
        vec = self.fvars.to_vector(f.components)
        rows = self.hom.delta(self.k - 1)
        x = solve(Matrix(fld, [[row[r] for row in rows] for r in range(self.fvars.dim)], cols=len(rows)), vec)
        if x is None:
            return None
        return self.hvars.from_vector([fld.neg(c) for c in x] if self.k % 2 else x)


def hom_dim(X, Y, k=0):
    return HomSpace(X, Y, k).dim


def hom_window(X, Y):
    """Shifts k outside [lo_Y - hi_X, hi_Y - lo_X] give Hom(X, Y[k]) = 0."""
    if X.is_zero() or Y.is_zero():
        return (0, -1)
    return (Y.lo - X.hi, Y.hi - X.lo)


def hom_spaces(X, Y, lo=None, hi=None):
    """{k: HomSpace(X, Y, k)} over a shift window (default: full support), on one HomComplex.

    A shift outside the support maps to None: Hom is zero there, and no
    space is built.
    """
    wlo, whi = hom_window(X, Y)
    lo, hi, hom = wlo if lo is None else lo, whi if hi is None else hi, HomComplex(X, Y)
    return {k: HomSpace(X, Y, k, hom) if wlo <= k <= whi else None for k in range(lo, hi + 1)}


def nonzero_homs(X, Y, lo):
    """Lazily, upwards: (k, HomSpace(X, Y, k)) for each k >= lo with Hom(X, Y[k]) != 0.

    Only the shifts inside the support window are built, on one HomComplex,
    so a caller that stops at the first yield builds no space past it.
    """
    wlo, whi = hom_window(X, Y)
    hom = HomComplex(X, Y)
    for k in range(max(lo, wlo), whi + 1):
        hs = HomSpace(X, Y, k, hom)
        if hs.dim:
            yield k, hs


def hom_dim_table(X, Y, lo=None, hi=None):
    """Dimensions of Hom(X, Y[k]) over a shift window (default: full support)."""
    return {k: 0 if hs is None else hs.dim for k, hs in hom_spaces(X, Y, lo, hi).items()}


def s_search(M, T_list):
    """s = sup{k >= 0 : Hom(M, T_i[k]) != 0 for some i}, and the spaces at s.

    Returns (s, spaces), with s None when there is no such k.  Each
    member's window is scanned downwards on one HomComplex, from its top
    to the best k found so far (or to 0), and stops at the first non-zero
    Hom.  So every member whose window reaches s has HomSpace(M, T_i, s)
    built on the way: `spaces` maps those indices i to it.  The other
    members have Hom(M, T_i[s]) = 0.
    """
    best, built = None, {}
    for i, T in enumerate(T_list):
        _, whi = hom_window(M, T)
        hom = HomComplex(M, T)
        for k in range(whi, (0 if best is None else best) - 1, -1):
            hs = built[i, k] = HomSpace(M, T, k, hom)
            if hs.dim:
                best = k
                break
    return best, {i: hs for (i, k), hs in built.items() if k == best}


def s_sup(M, T_list):
    """sup{k >= 0 : Hom(M, T_i[k]) != 0 for some i}, or None if empty."""
    return s_search(M, T_list)[0]


def is_nonpositive(complexes):
    """Check Hom(T_i, T_j[k]) = 0 for all k >= 1 (presilting condition).

    Returns (True, None) or (False, (i, j, k, witness chain map)).
    """
    for i, Ti in enumerate(complexes):
        for j, Tj in enumerate(complexes):
            for k, hs in nonzero_homs(Ti, Tj, 1):
                return False, (i, j, k, hs.basis_maps()[0])
    return True, None
