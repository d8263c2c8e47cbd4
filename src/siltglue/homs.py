"""Morphism spaces in the homotopy category, read off the total Hom complex.

Hom(X, Y[k]) is H^k of Hom•(X, Y): Hom^m = (+)_n Hom_A(X^n, Y^{n+m}), with
the path coefficients of the matrix entries as coordinates, and
delta^m f = d_Y f - (-1)^m f d_X.  The coordinates come in blocks, one per
matrix entry (n, i, j), each a basis of paths of some e_w A e_v.
`HomComplex` builds each Hom^m and assembles each delta^m once, block by
block: a path s of d_Y or t of d_X acts on a block through the algebra's
action tables (`PathAlgebra.left_action`, `right_action`), and each
non-zero of delta^m comes from exactly one such term, so it is written once
with no sums.  A `HomSpace` is a view that reduces nothing when built:
dim = nullity delta^k - rank delta^(k-1), two ranks, each counted once per
complex on the sparse entries of delta^m by peeling singleton lines
(`linalg.independent_columns`), with a dense reduction of only what is
left, to its pivots; the count is a set of independent columns of delta^m,
as many as its rank.  A reduced row echelon form waits for a read: delta^k
as equations (kernel: the cycles) for cycles and representatives, reduced
on those independent columns alone once they are known, since they span
the same row space; delta^(k-1) as a row space (image: the boundaries) for
coordinates and null-homotopy tests; a rank is read off such a reduction
when one exists.  Since d_{Y[k]} = (-1)^k d_Y,
kernel and row space are those of the chain maps X -> Y[k] modulo homotopy,
so only a homotopy witness picks up the sign (-1)^k; and Hom(X[s], Y[s]) has
the representative vectors of Hom(X, Y).  A window walker shares one complex
per pair, so measuring w shifts assembles w + 1 differentials and counts
each one's rank once.  Spaces built alone, one shift at a time, share one
too: `LIVE` keeps the complex of each pair while a space holds it (one
object per live pair, as `quiver.ALGEBRAS` keeps one algebra per content),
so a space at k reads rank delta^(k-1) off the reduction the space at k - 1
made.  The representatives take one more reduction, to its pivots only,
of raw rows of delta^(k-1) on the free coordinates of the cycles: the
independent rows, the pivots of the equations of delta^(k-1), when the
space at k - 1 has reduced them.  Only the cycle vectors of the
representatives kept are built, and a space measured at 0 reduces nothing.
"""

import weakref

from .complexes import ChainMap, PathMatrix, shift
from .linalg import Matrix, independent_columns, rref_kernel_basis, row_space_rref, in_row_space, solve


class _cached:
    """A property computed on its first read and stored in the instance `__dict__` under its name,
    where every later read finds it first: `functools.cached_property` without the lock that
    Python 3.10 and 3.11 take on each first read."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _VarSpace:
    """Coordinates of Hom^m: degreewise path-matrix maps X^n -> Y^{n+m}.

    `blocks` maps each entry (degree n, row i, col j) with a non-zero
    e_w A e_v = Hom(P_v, P_w), for w = Y^{n+m}_i and v = X^n_j, to its offset
    and its paths from w to v; a coordinate is an offset plus the position of
    a path among them.
    """

    def __init__(self, X, Y, m):
        self.X, self.Y, self.m = X, Y, m
        self.blocks = {}
        between, dim = X.algebra.between, 0
        for n in sorted(set(X.components) & {n - m for n in Y.components}):
            xs = X.components[n]
            for i, w in enumerate(Y.components[n + m]):
                for j, v in enumerate(xs):
                    paths = between.get((w, v))
                    if paths:
                        self.blocks[n, i, j] = (dim, paths)
                        dim += len(paths)
        self.dim = dim

    def to_vector(self, comps):
        """Flatten degreewise matrices {n: PathMatrix} into coordinates."""
        alg = self.X.algebra
        pos, vec = alg.between_index, [alg.field.zero] * self.dim
        for n, m in comps.items():
            for ij, terms in m.cells.items():
                off = self.blocks[(n, *ij)][0]
                for p, c in terms.items():
                    vec[off + pos[p]] = c
        return vec

    @_cached
    def slots(self):
        """(degree n, row i, col j, path) of each coordinate, in order."""
        return [(n, i, j, p) for (n, i, j), (_, paths) in self.blocks.items() for p in paths]

    def from_vector(self, vec):
        """Inverse of to_vector; returns {n: PathMatrix}."""
        X, Y, m = self.X, self.Y, self.m
        alg, is_zero, slots, cells = X.algebra, X.algebra.field.is_zero, self.slots, {}
        for idx, c in enumerate(vec):
            if c and not is_zero(c):  # a zero scalar is falsy; is_zero also knows an unreduced one
                n, i, j, p = slots[idx]
                cells.setdefault(n, {}).setdefault((i, j), {})[p] = c
        return {n: PathMatrix._of(alg, Y.component(n + m), X.component(n), cs) for n, cs in cells.items()}


class HomComplex:
    """Hom•(X, Y), built on demand: each Hom^m, delta^m, rank and reduction of delta^m once.

    `_lines[m]` holds the columns of delta^m that `independent_columns`
    found, once delta^m is ranked so: the independent rows of the equations.
    """

    def __init__(self, X, Y):
        self.X, self.Y, self.field = X, Y, X.algebra.field
        # a block (n, i, j) meets column i of d_Y^(n+m) and row j of d_X^(n-1)
        self._dy_cols = {n: d.lines(1) for n, d in Y.differentials.items()}
        self._dx_rows = {n: d.lines(0) for n, d in X.differentials.items()}
        self._terms, self._deltas, self._equations, self._images, self._lines = {}, {}, {}, {}, {}

    def term(self, m):
        """The coordinates of Hom^m."""
        if m not in self._terms:
            self._terms[m] = _VarSpace(self.X, self.Y, m)
        return self._terms[m]

    def delta(self, m):
        """delta^m as its non-zero entries [(coordinate of Hom^m, coordinate of Hom^(m+1), value)]."""
        if m not in self._deltas:
            self._deltas[m] = self._assemble(m)
        return self._deltas[m]

    def _assemble(self, m):
        """The entries of delta^m, block by block from the action tables.

        For a path p in block (n, i, j) of Hom^m, d_Y p has the entries s p
        at (n, r, j) for the terms s of d_Y[r][i], and p d_X the entries p t
        at (n-1, i, c) for the terms t of d_X[j][c], with sign -(-1)^m.
        """
        alg, even = self.X.algebra, not m % 2
        neg, left, right = self.field.neg, alg.left_action, alg.right_action
        src, dst, out = self.term(m).blocks, self.term(m + 1).blocks, []
        put, degree = out.append, None
        for (n, i, j), (off, paths) in src.items():
            if n != degree:
                degree, dy, dx = n, self._dy_cols.get(n + m, {}), self._dx_rows.get(n - 1, {})
            for r, terms in dy.get(i, ()):
                to, v = dst[n, r, j][0], paths[0].target
                for s, c in terms.items():
                    for a, b in left[s, v]:
                        put((off + a, to + b, c))
            for col, terms in dx.get(j, ()):
                to, w = dst[n - 1, i, col][0], paths[0].source
                for t, c in terms.items():
                    c = neg(c) if even else c
                    for a, b in right[t, w]:
                        put((off + a, to + b, c))
        return out

    def dense(self, m, transposed=False):
        """delta^m as dense rows, one per coordinate of Hom^m (transposed: of Hom^(m+1)); no rows when either is 0."""
        rows, cols, zero = self.term(m).dim, self.term(m + 1).dim, self.field.zero
        if not (rows and cols):
            return []
        if transposed:
            out = [[zero] * rows for _ in range(cols)]
            for a, b, c in self.delta(m):
                out[b][a] = c
        else:
            out = [[zero] * cols for _ in range(rows)]
            for a, b, c in self.delta(m):
                out[a][b] = c
        return out

    def equations(self, m):
        """RREF (rows, pivots) of delta^m as equations on Hom^m: its kernel is the cycles.

        Once delta^m is ranked, only the rows of its independent columns are
        reduced: they span the same row space, whose RREF is canonical.
        """
        if m not in self._equations:
            rows, lines = self.dense(m, transposed=True), self._lines.get(m)
            if lines is not None:
                rows = [rows[b] for b in lines]
            self._equations[m] = row_space_rref(self.field, rows)
        return self._equations[m]

    def image(self, m):
        """RREF (rows, pivots) of im delta^m in Hom^(m+1): the boundaries there."""
        if m not in self._images:
            self._images[m] = row_space_rref(self.field, self.dense(m))
        return self._images[m]

    def image_rows(self, m):
        """The rows of delta^m that span its image independently, rank delta^m of them, when its
        equations are reduced: their pivot columns.  None otherwise."""
        done = self._equations.get(m)
        return None if done is None else set(done[1])

    def rank(self, m):
        """rank delta^m, read off a reduction of delta^m already made, else counted once as the
        number of `independent_columns`."""
        done = self._equations.get(m) or self._images.get(m)
        if done is not None:
            return len(done[1])
        if m not in self._lines:
            live = self.term(m).dim and self.term(m + 1).dim
            self._lines[m] = independent_columns(self.field, self.delta(m)) if live else []
        return len(self._lines[m])


LIVE = weakref.WeakValueDictionary()  # the HomComplex of each pair (id(X), id(Y)) while a space holds it


def _live_complex(X, Y):
    """The pair's complex in `LIVE`, or a new one put there.

    The complex holds X and Y, so neither id is reused while its entry lives.
    """
    hom = LIVE.get((id(X), id(Y)))
    if hom is None:
        hom = LIVE[id(X), id(Y)] = HomComplex(X, Y)
    return hom


class HomSpace:
    """Hom_{K^b}(X, Y[k]) = H^k Hom•(X, Y), with a canonical basis of representatives.

    A view on `hom`, the HomComplex of (X, Y) a walker shares.  A space built
    alone takes the complex its pair already has in `LIVE`, so spaces built
    one shift at a time share deltas, ranks and reductions as a walk does.
    """

    def __init__(self, X, Y, k=0, hom=None):
        self.X, self.Y, self.k = X, Y, k
        self.hom = _live_complex(X, Y) if hom is None else hom
        self.fvars, self.hvars = self.hom.term(k), self.hom.term(k - 1)

    @_cached
    def dim(self):
        """nullity delta^k - rank delta^(k-1), from the two ranks `HomComplex.rank` counts."""
        return self.fvars.dim - self.hom.rank(self.k) - self.hom.rank(self.k - 1)

    @_cached
    def Z(self):
        """Y[k], the target of the chain maps of this space."""
        return shift(self.Y, self.k)

    @_cached
    def cycle_basis(self):
        """The chain maps X -> Y[k]: the kernel of delta^k."""
        return rref_kernel_basis(self.X.algebra.field, *self.hom.equations(self.k), self.fvars.dim)

    @_cached
    def _reps(self):
        """Canonical representatives: the cycle-basis vectors that grow the span of the
        boundaries and the vectors before them, picked in one reduction.

        Cycle-basis vector q is 1 at the q-th free column of the equations,
        0 at the other free columns, and the free coordinates are an
        isomorphism from the cycles onto their space.  So q lies in the span
        of the boundaries and vectors 0..q-1 exactly when some boundary, on
        the free coordinates, has its last non-zero at q: exactly when q is a
        pivot of the boundary rows restricted to the free columns and read
        in reverse order.  The others, `dim` of them, are the same vectors a
        running RREF would keep, one cycle at a time, and only their vectors
        are built.  A space already measured at 0 reduces nothing; otherwise
        the equations are reduced first, so `dim` reads rank delta^k off
        them.  The boundaries are raw rows of delta^(k-1) that span them as
        its RREF does, so they give the same pivots without reducing
        delta^(k-1) as an image, and only the pivots are reduced for.  Those
        rows are the independent ones (`HomComplex.image_rows`) when the
        equations of delta^(k-1) are reduced, as a walk that read the space
        at k - 1 has them, and otherwise all of them.  A row that is zero on
        the free columns adds no pivot, so only the rows that meet a free
        column are built, from the entries of delta^(k-1), in row order.
        """
        if "dim" in vars(self) and not self.dim:
            return []
        red, piv = self.hom.equations(self.k)
        if not self.dim:
            return []
        pivots = set(piv)
        free = [c for c in range(self.fvars.dim) if c not in pivots]  # cycle-basis vector q is 1 at free[q]
        at = {c: len(free) - 1 - q for q, c in enumerate(free)}  # the free columns in reverse order
        fld, rows, span = self.X.algebra.field, {}, self.hom.image_rows(self.k - 1)
        for a, b, c in self.hom.delta(self.k - 1) if self.hvars.dim else ():
            if b in at and (span is None or a in span):
                if a not in rows:
                    rows[a] = [fld.zero] * len(free)
                rows[a][at[b]] = c
        boundaries = [rows[a] for a in sorted(rows)]
        skipped = {len(free) - 1 - p for p in row_space_rref(fld, boundaries, reduced=False)[1]}
        kept = [c for q, c in enumerate(free) if q not in skipped]
        return rref_kernel_basis(fld, red, piv, self.fvars.dim, kept)

    def basis_maps(self):
        """Canonical representing chain maps X -> Y[k].

        They are kernel vectors of delta^k, so they are chain maps by
        construction and are not checked again here.
        """
        return [ChainMap(self.X, self.Z, self.fvars.from_vector(v)) for v in self._reps]

    def _vector(self, f):
        """The coordinates of f in Hom^k; ValueError unless f maps X to Y[k]."""
        if f.source.components != self.X.components or f.target.components != self.Z.components:
            raise ValueError("map not from X to Y[k] of this Hom space")
        return self.fvars.to_vector(f.components)

    def is_null_homotopic(self, f):
        """Whether the map f: X -> Y[k] is a boundary; ValueError for a map of another source or target."""
        return in_row_space(self.X.algebra.field, *self.hom.image(self.k - 1), self._vector(f))

    def coordinates(self, f):
        """Coefficients of [f] in the representative basis, exact.

        The first call factors the cycle space once: the RREF of
        [reps ; boundary rows | I] has all its pivots left of the identity
        block, because those rows are independent, so each reduced row comes
        with its expression in reps and boundaries.  Every call reduces f
        against the reduced rows and sums the rep parts of their expressions.
        Raises ValueError if f is not a cycle of this Hom space, or not a
        map X -> Y[k].
        """
        fld = self.X.algebra.field
        vec = self._vector(f)
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

    @_cached
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
        h is (-1)^k times a solution of delta^(k-1) x = f.  Returns None
        when f is not null-homotopic; ValueError unless f maps X to Y[k].
        """
        fld = self.X.algebra.field
        vec = self._vector(f)
        rows = self.hom.dense(self.k - 1, transposed=True) or [[] for _ in vec]
        x = solve(Matrix(fld, rows, cols=self.hvars.dim), vec)
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
    space is built; a window that misses the support builds no complex.
    """
    wlo, whi = hom_window(X, Y)
    lo, hi = wlo if lo is None else lo, whi if hi is None else hi
    hom = HomComplex(X, Y) if max(lo, wlo) <= min(hi, whi) else None
    return {k: HomSpace(X, Y, k, hom) if wlo <= k <= whi else None for k in range(lo, hi + 1)}


def nonzero_homs(X, Y, lo, built=None):
    """Lazily, upwards: (k, HomSpace(X, Y, k)) for each k >= lo with Hom(X, Y[k]) != 0.

    Only the shifts inside the support window are built, on one HomComplex,
    so a caller that stops at the first yield builds no space past it.
    `built` maps shifts k to a HomSpace(X, Y, k) built before; it is read
    and not built again, and the HomComplex is made only for a shift it
    lacks.  When no vertex of Y reaches a vertex of X by a path, every
    Hom^m is zero, and nothing is built.
    """
    ys, between = {w for ws in Y.components.values() for w in ws}, X.algebra.between
    if not any((w, v) in between for vs in X.components.values() for v in vs for w in ys):
        return
    wlo, whi = hom_window(X, Y)
    built, hom = built or {}, None
    for k in range(max(lo, wlo), whi + 1):
        hs = built.get(k)
        if hs is None:
            hom = hom or HomComplex(X, Y)
            hs = HomSpace(X, Y, k, hom)
        if hs.dim:
            yield k, hs


def hom_dim_table(X, Y, lo=None, hi=None):
    """Dimensions of Hom(X, Y[k]) over a shift window (default: full support)."""
    return {k: 0 if hs is None else hs.dim for k, hs in hom_spaces(X, Y, lo, hi).items()}


def s_search(M, T_list, scan=None, below=None):
    """s = sup{k >= 0 : Hom(M, T_i[k]) != 0 for some i}, k < `below` when given, and the spaces at s.

    Returns (s, spaces), with s None when there is no such k.  Each
    member's window is scanned downwards on one HomComplex, from its top
    (or from below - 1, when that is lower) to the best k found so far (or
    to 0), never below the window's bottom, and stops at the first non-zero
    Hom; a member with no shift to scan builds no complex.  So every member
    whose window reaches s has HomSpace(M, T_i, s) built on the way:
    `spaces` maps those indices i to it.  The other members have
    Hom(M, T_i[s]) = 0.  `scan`, a dict when given, receives every space
    built, by (i, k); when s is None these are Hom(M, T_i[k]) for every k
    from max(0, wlo) to min(whi, below - 1) of each window [wlo, whi], all
    zero, and no space at k >= `below` is among them.
    """
    best, built = None, {} if scan is None else scan
    for i, T in enumerate(T_list):
        wlo, whi = hom_window(M, T)
        top = whi if below is None else min(whi, below - 1)
        shifts = range(top, max(wlo, 0 if best is None else best) - 1, -1)
        hom = HomComplex(M, T) if shifts else None
        for k in shifts:
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
