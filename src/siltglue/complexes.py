"""Bounded complexes of projectives over a path algebra.

Objects of the bounded homotopy category of projectives are modeled as
cohomological complexes whose degree-n component is an ordered list of
vertices (one per indecomposable projective summand P_v) and whose
differentials are matrices of path-algebra elements.

Sign conventions, fixed once: the differential has degree +1; the shift [1]
moves components one degree to the left and flips the sign of d; the cone of
f: X -> Y has components X^{n+1} (+) Y^n with differential
[[-d_X, 0], [f, d_Y]].  No cone is built in full: the library reads only
the minimal models of C(f) and of the cocone C(f)[-1] (`minimal_cone`,
`minimal_cocone`).  Only what a caller reads is built: `direct_sum_many`
builds a sum of any number of complexes in one pass.

Nothing zero is stored or built.  A `PathMatrix` stores only its non-zero
entries, as cells {(i, j): {path: coefficient}}, and every operation touches
only those.  Its constructor and `entries` are the dense boundary for data
built by hand; the library and `serialize` build matrices from cells, and no
cell changes once built, since matrices share them.  A `ProjComplex` holds only its
non-zero differentials and a `ChainMap` only its non-zero components;
`differential(n)` and `component(n)` give a zero matrix elsewhere.  Block
matrices come from `PathMatrix.blocks`, which places the given blocks at
their offsets: a block not given is zero and is never built.

Constructors check shapes only (the dense `PathMatrix` constructor also that
each entry is an element of the algebra).  Entries, vertices and d^2 = 0 are
checked where a complex enters: `make_complex` (used on loading and by the
fixtures) and `i_star`, whose d^2 = 0 rests on its syzygy lift.  The chain
condition is checked once, where a map is claimed: on loading
(`serialize.chain_map_from_json`, after `PathMatrix.check_entries`), on the
reported maps of an envelope or precover (`approx`), on the representatives
that `hom --reps` prints, and on the presilting witness in the certificates
of `glue` and `check-silting`.

Minimal models come from one Gaussian elimination, `_eliminate`: with every
step's pivots known up front, each kept summand gets its final index and
each differential is written once.  `minimize` runs it on X's own cells;
with nothing to cancel the model is X itself.  `minimal_cone` and
`minimal_cocone` give the minimal model of C(f) or CC(f) with its map from
Y or to X, for f between minimal complexes: the same elimination on cells
read off d_X, f and d_Y, with no cone built.  The maps come from the same
two builders as `to_min` and `from_min` (`_projection`, `_inclusion`).  A
caller whose map has a non-minimal end minimizes that end first, as
`approx._envelope` does with a raw M.
"""

from itertools import accumulate, count

from .linalg import extend_rref, row_space_rref
from .quiver import AlgebraElement, QuiverError


class ComplexError(ValueError):
    pass


class PathMatrix:
    """Matrix of algebra elements mapping (+) P_{v_j} -> (+) P_{w_i}.

    Rows are indexed by the target summands w_i, columns by the source
    summands v_j; the (i, j) entry lies in e_{w_i} A e_{v_j}, i.e. its paths
    run from w_i to v_j, and it acts by left multiplication.

    Only the non-zero entries are stored: `cells` maps (i, j) to the terms
    {path: coefficient} of the entry, and no cell is empty or holds a zero
    coefficient.  Every operation touches the cells alone.  A cell is never
    mutated once built, since matrices share cells.  The constructor and
    `entries` are the dense boundary, rows of `AlgebraElement`s, for data
    built by hand; the library and `serialize` build matrices from cells (`_of`).
    """

    __slots__ = ("algebra", "row_vertices", "col_vertices", "cells")

    def __init__(self, algebra, row_vertices, col_vertices, entries):
        self.algebra, self.row_vertices, self.col_vertices = algebra, tuple(row_vertices), tuple(col_vertices)
        if len(entries) != self.rows:
            raise ComplexError("row count mismatch")
        self.cells = {}
        for i, row in enumerate(entries):
            if len(row) != self.cols:
                raise ComplexError("column count mismatch")
            for j, x in enumerate(row):
                if not isinstance(x, AlgebraElement) or (x.algebra is not algebra and x.algebra != algebra):
                    raise ComplexError(f"entry ({i},{j}) is not an element of the algebra")
                if x.terms:
                    self.cells[i, j] = x.terms

    @classmethod
    def _of(cls, algebra, row_vertices, col_vertices, cells):
        """The matrix with these cells, between these vertex tuples."""
        m = object.__new__(cls)
        m.algebra, m.row_vertices, m.col_vertices, m.cells = algebra, row_vertices, col_vertices, cells
        return m

    def entry(self, i, j):
        return AlgebraElement(self.algebra, self.cells.get((i, j), {}))

    @property
    def entries(self):
        """The dense rows, built on each read."""
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def check_entries(self):
        """Raise ComplexError unless every term of entry (i, j) is a basis path in e_{w_i} A e_{v_j}."""
        alg = self.algebra
        for (i, j), terms in sorted(self.cells.items()):
            w, v = self.row_vertices[i], self.col_vertices[j]
            for p in terms:
                if p not in alg.basis_index:
                    raise ComplexError(f"entry ({i},{j}) is not an element of the algebra")
                if p.source != w or p.target != v:
                    raise ComplexError(f"entry ({i},{j}) lies outside e_{w} A e_{v}")

    @classmethod
    def zero(cls, algebra, row_vertices, col_vertices):
        return cls._of(algebra, tuple(row_vertices), tuple(col_vertices), {})

    @classmethod
    def identity(cls, algebra, vertices):
        vs, one = tuple(vertices), algebra.field.one
        return cls._of(algebra, vs, vs, {(i, i): {algebra.trivial_path(v): one} for i, v in enumerate(vs)})

    @property
    def rows(self):
        return len(self.row_vertices)

    @property
    def cols(self):
        return len(self.col_vertices)

    def is_zero(self):
        return not self.cells

    def lines(self, axis):
        """The cells by row (axis 0) or by column (axis 1): {line: [(other index, terms)]}."""
        out = {}
        for ij, terms in self.cells.items():
            out.setdefault(ij[axis], []).append((ij[1 - axis], terms))
        return out

    def is_identity(self):
        """Whether this is an identity: square, with e_v at coefficient one on the diagonal and nothing else."""
        n, one = len(self.row_vertices), self.algebra.field.one
        if len(self.cells) != n or self.col_vertices != self.row_vertices:
            return False
        for (i, j), t in self.cells.items():
            if i != j or len(t) != 1:
                return False
            [(p, c)] = t.items()
            if p.arrows or c != one:
                return False
        return True

    def compose(self, other):
        """self o other (apply `other` first): algebra-matrix product.

        A product whose answer the factors already decide is not formed: a
        factor with no cells gives a zero matrix, and an identity factor
        (`is_identity`) gives the other factor itself.  Handing back an
        operand is safe because no cell or terms dict is written once a
        matrix is built (see the class docstring).
        """
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ComplexError("different algebras")
        if self.col_vertices != other.row_vertices:
            raise ComplexError("composition shape mismatch")
        alg = self.algebra
        if not (self.cells and other.cells):
            return PathMatrix._of(alg, self.row_vertices, other.col_vertices, {})
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        cells = PathMatrix._product(alg, self.cells, other.lines(0))
        return PathMatrix._of(alg, self.row_vertices, other.col_vertices, cells)

    @staticmethod
    def _product(alg, left, right):
        """The cells of left x right, from left's cells {(i, k): terms} and right's rows {k: [(j, terms)]}.

        Terms compose by shape: a term of cell (i, k) runs to the vertex that
        a term of row k starts from, so each pair multiplies by the product
        rule of `quiver`, one lookup in `basis_path`; a pair that does not
        compose, from an entry outside its e_w A e_v, raises ComplexError.
        """
        fld = alg.field
        add, mul, paths, is_zero = fld.add, fld.mul, alg.basis_path, fld.is_zero
        sums = {}
        try:
            for (i, k), a in left.items():
                for j, b in right.get(k, ()):
                    acc = sums.setdefault((i, j), {})
                    for p, cp in a.items():
                        for q, cq in b.items():
                            pq = paths[p.source, q.target, p.arrows + q.arrows]
                            c = mul(cp, cq)
                            old = acc.get(pq)
                            acc[pq] = c if old is None else add(old, c)
        except KeyError:
            raise ComplexError(f"terms of entry ({i},{k}) and of row {k} do not compose") from None
        parts = ((ij, {p: c for p, c in acc.items() if not is_zero(c)}) for ij, acc in sums.items())
        return {ij: t for ij, t in parts if t}

    @staticmethod
    def _add_into(fld, cells, other, negate):
        """Add the cells `other` into the dict `cells` (subtract, with `negate`); no terms dict is written."""
        op, zero, is_zero = fld.sub if negate else fld.add, fld.zero, fld.is_zero
        for ij, b in other.items():
            terms = dict(cells.pop(ij, ()))
            for p, c in b.items():
                terms[p] = op(terms.get(p, zero), c)
                if is_zero(terms[p]):
                    del terms[p]
            if terms:
                cells[ij] = terms
        return cells

    def _merge(self, other, negate):
        """self + other, or self - other when `negate` is set, in one pass over the cells of `other`."""
        if self.row_vertices != other.row_vertices or self.col_vertices != other.col_vertices:
            raise ComplexError("shape mismatch")
        cells = PathMatrix._add_into(self.algebra.field, dict(self.cells), other.cells, negate)
        return PathMatrix._of(self.algebra, self.row_vertices, self.col_vertices, cells)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        neg = self.algebra.field.neg
        cells = {ij: {p: neg(c) for p, c in t.items()} for ij, t in self.cells.items()}
        return PathMatrix._of(self.algebra, self.row_vertices, self.col_vertices, cells)

    def scale(self, scalar):
        fld = self.algebra.field
        if fld.is_zero(scalar):
            return PathMatrix.zero(self.algebra, self.row_vertices, self.col_vertices)
        cells = {ij: {p: fld.mul(scalar, c) for p, c in t.items()} for ij, t in self.cells.items()}
        return PathMatrix._of(self.algebra, self.row_vertices, self.col_vertices, cells)

    def submatrix(self, row_idx, col_idx):
        """The rows `row_idx` and columns `col_idx`, each a list of distinct indices, in that order."""
        rpos = {i: a for a, i in enumerate(row_idx)}
        cpos = {j: b for b, j in enumerate(col_idx)}
        cells = {(rpos[i], cpos[j]): t for (i, j), t in self.cells.items() if i in rpos and j in cpos}
        rv, cv = self.row_vertices, self.col_vertices
        return PathMatrix._of(self.algebra, tuple(rv[i] for i in row_idx), tuple(cv[j] for j in col_idx), cells)

    @classmethod
    def blocks(cls, algebra, row_parts, col_parts, parts):
        """The block matrix with row blocks `row_parts` and column blocks `col_parts`, vertex tuples.

        `parts` maps (a, b) to block (a, b), whose cells move by the sizes of
        the blocks before it; a block not in `parts` is zero.
        """
        rows, cols = [0, *accumulate(map(len, row_parts))], [0, *accumulate(map(len, col_parts))]
        cells = {}
        for (a, b), m in parts.items():
            if m.row_vertices != row_parts[a] or m.col_vertices != col_parts[b]:
                raise ComplexError(f"block ({a}, {b}) has wrong shape")
            di, dj = rows[a], cols[b]
            cells.update(((i + di, j + dj), t) for (i, j), t in m.cells.items())
        return cls._of(algebra, sum(row_parts, ()), sum(col_parts, ()), cells)

    def scalar_part(self):
        """Field matrix of trivial-path coefficients (zero off same-vertex slots)."""
        out = [[self.algebra.field.zero] * self.cols for _ in range(self.rows)]
        for (i, j), t in self.cells.items():
            for p, c in t.items():
                if not p.arrows:
                    out[i][j] = c
        return out

    def invert(self):
        """Inverse of a matrix whose scalar part is invertible.

        Works because the radical part is nilpotent: with V = S + R, the
        inverse is a finite Neumann series of -S^{-1} R applied to S^{-1},
        and S^{-1} itself when R = 0.  One pass over the cells splits them
        into the non-zeros of S and the cells of R.  S with fewer than n
        non-zeros is singular.  S with exactly one non-zero per row and per
        column (every 1x1 block among them) is monomial: S^{-1} is its
        transpose with each coefficient inverted, emitted in the row-major
        order of S^{-1}.  Any other S^{-1} is the right half of the one row
        reduction of [S | 1].
        """
        if self.rows != self.cols:
            raise ComplexError("not square")
        alg = self.algebra
        fld = alg.field
        n = self.rows
        scalars, rad = {}, {}
        for (i, j), t in self.cells.items():
            for p, c in t.items():
                if p.arrows:
                    rad.setdefault((i, j), {})[p] = c
                else:
                    scalars[i, j] = c
        if len(scalars) < n:
            raise ComplexError("scalar part is singular")
        cv, rv = self.col_vertices, self.row_vertices
        by_col = {j: (i, c) for (i, j), c in scalars.items()}
        if len(scalars) == len(by_col) == len({i for i, _ in scalars}) == n:
            cells = {}
            for j in range(n):
                i, c = by_col[j]
                cells[j, i] = {alg.trivial_path(cv[j]): fld.inv(c)}
        else:
            aug = [[fld.zero] * (2 * n) for _ in range(n)]  # [S | 1]
            for (i, j), c in scalars.items():
                aug[i][j] = c
            for i, row in enumerate(aug):
                row[n + i] = fld.one
            red, piv = row_space_rref(fld, aug)
            if piv != list(range(n)):
                raise ComplexError("scalar part is singular")
            units = ((i, j, c) for i, row in enumerate(red) for j, c in enumerate(row[n:]) if cv[i] == rv[j])
            cells = {(i, j): {alg.trivial_path(cv[i]): c} for i, j, c in units if not fld.is_zero(c)}
        s_inv = PathMatrix._of(alg, cv, rv, cells)
        if not rad:
            return s_inv
        term = s_inv.compose(PathMatrix._of(alg, rv, cv, rad))  # S^-1 R, nilpotent
        # (S + R)^-1 = (1 + S^-1 R)^-1 S^-1, a finite alternating series
        acc = power = PathMatrix.identity(alg, cv)
        sign = -1
        while True:
            power = power.compose(term)
            if power.is_zero():
                break
            acc = acc + power if sign > 0 else acc - power
            sign = -sign
        return acc.compose(s_inv)

    def __eq__(self, other):
        return (
            isinstance(other, PathMatrix)
            and (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.row_vertices == other.row_vertices
            and self.col_vertices == other.col_vertices
            and self.cells == other.cells
        )

    def __repr__(self):
        return f"PathMatrix({self.rows}x{self.cols})"


class ProjComplex:
    """Bounded complex of projectives with d of degree +1 and d^2 = 0, as `check` verifies.

    `components` holds the non-empty degrees and `differentials` the
    non-zero differentials.  The constructor checks each differential's
    shape, zero or not, and then drops a zero one.
    """

    __slots__ = ("algebra", "components", "differentials")

    def __init__(self, algebra, components, differentials):
        comps = {int(n): tuple(vs) for n, vs in components.items() if vs}
        diffs = {}
        for n, d in differentials.items():
            n = int(n)
            if d.col_vertices != comps.get(n, ()) or d.row_vertices != comps.get(n + 1, ()):
                raise ComplexError(f"differential at degree {n} has wrong shape")
            if d.cells:
                diffs[n] = d
        self.algebra = algebra
        self.components = comps
        self.differentials = diffs

    def check(self):
        """Raise unless every entry lies in its e_w A e_v, every vertex is known and d^2 = 0."""
        diffs = self.differentials
        for d in diffs.values():
            d.check_entries()
        for n in sorted(self.components):
            for v in self.components[n]:
                if v not in self.algebra.quiver.vertex_index:
                    raise QuiverError(f"unknown vertex {v!r}")
        for n, d in diffs.items():
            if n + 1 in diffs:
                dd = diffs[n + 1].compose(d)
                if dd.cells:
                    ij = min(dd.cells)
                    raise ComplexError(f"d^2 != 0 at degree {n}, entry {ij}: {dd.entry(*ij)!r}")

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, {}, {})

    @classmethod
    def stalk(cls, algebra, vertex, degree=0):
        return cls(algebra, {degree: (vertex,)}, {})

    def is_zero(self):
        return not self.components

    @property
    def lo(self):
        return min(self.components) if self.components else 0

    @property
    def hi(self):
        return max(self.components) if self.components else 0

    def component(self, n):
        return self.components.get(n, ())

    def differential(self, n):
        if n in self.differentials:
            return self.differentials[n]
        return PathMatrix.zero(self.algebra, self.component(n + 1), self.component(n))

    def summand_count(self):
        return sum(len(vs) for vs in self.components.values())

    def graded_multiset(self):
        """Per-degree vertex multisets; invariant of the isomorphism class once minimal."""
        return {n: tuple(sorted(vs)) for n, vs in self.components.items()}

    def __eq__(self, other):
        return (
            isinstance(other, ProjComplex)
            and (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.components == other.components
            and self.differentials == other.differentials
        )

    def describe(self):
        if self.is_zero():
            return "0"
        bits = []
        for n in sorted(self.components):
            bits.append(f"{n}:[" + ",".join(f"P_{v}" for v in self.components[n]) + "]")
        return " ".join(bits)

    def __repr__(self):
        return f"ProjComplex({self.describe()})"


class ChainMap:
    """Degree-0 chain map between complexes over one algebra.

    `components` holds the non-zero components.  The constructor checks
    each component's shape, zero or not, and then drops a zero one; it
    checks nothing else.  d f = f d is checked by `check_chain_condition`,
    which callers run where a map is claimed.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        if source.algebra is not target.algebra and source.algebra != target.algebra:
            raise ComplexError("different algebras")
        comps = {}
        for n, m in components.items():
            n = int(n)
            if m.col_vertices != source.component(n) or m.row_vertices != target.component(n):
                raise ComplexError(f"chain map component at degree {n} has wrong shape")
            if m.cells:
                comps[n] = m
        self.source = source
        self.target = target
        self.components = comps

    def check_chain_condition(self):
        """Raise ComplexError at the first degree n where d_Y f^n != f^{n+1} d_X.

        A product is formed only where both of its factors are present; a
        missing factor makes its side zero.
        """
        dX, dY, f = self.source.differentials, self.target.differentials, self.components
        for n in sorted({n for n in f if n in dY} | {n - 1 for n in f if n - 1 in dX}):
            lhs = dY[n].compose(f[n]) if n in f and n in dY else None
            rhs = f[n + 1].compose(dX[n]) if n + 1 in f and n in dX else None
            if lhs is None:
                ok = rhs.is_zero()
            elif rhs is None:
                ok = lhs.is_zero()
            else:
                ok = lhs == rhs
            if not ok:
                raise ComplexError(f"not a chain map at degree {n}")

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {})

    @classmethod
    def identity(cls, X):
        comps = {n: PathMatrix.identity(X.algebra, vs) for n, vs in X.components.items()}
        return cls(X, X, comps)

    def component(self, n):
        if n in self.components:
            return self.components[n]
        return PathMatrix.zero(self.source.algebra, self.target.component(n), self.source.component(n))

    def compose(self, other):
        """self o other: apply `other` first, multiplying in the degrees where both have a component."""
        if other.target is not self.source and other.target != self.source:
            raise ComplexError("composition endpoint mismatch")
        right = other.components
        comps = {n: m.compose(right[n]) for n, m in self.components.items() if n in right}
        return ChainMap(other.source, self.target, comps)

    def _merge(self, other, negate):
        """self + other, or self - other when `negate` is set; a degree only `other` has is copied or negated."""
        comps = dict(self.components)
        for n, m in other.components.items():
            comps[n] = comps[n]._merge(m, negate) if n in comps else (-m if negate else m)
        return ChainMap(self.source, self.target, comps)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def scale(self, scalar):
        return ChainMap(
            self.source,
            self.target,
            {n: m.scale(scalar) for n, m in self.components.items()},
        )

    def is_zero(self):
        return not self.components

    def __repr__(self):
        return f"ChainMap({self.source.describe()} -> {self.target.describe()})"


def make_complex(algebra, components, differentials):
    """The validated constructor, for complexes whose entries come from outside (`ProjComplex.check`)."""
    X = ProjComplex(algebra, components, differentials)
    X.check()
    return X


def shift(X, k):
    """Suspension: (X[k])^n = X^{n+k}, differential scaled by (-1)^k."""
    if k == 0:
        return X
    comps = {n - k: vs for n, vs in X.components.items()}
    sign = 1 if k % 2 == 0 else -1
    diffs = {}
    for n, d in X.differentials.items():
        diffs[n - k] = d if sign > 0 else -d
    return ProjComplex(X.algebra, comps, diffs)


def shift_map(f, k):
    """The shifted chain map f[k]: X[k] -> Y[k]."""
    Xk, Yk = shift(f.source, k), shift(f.target, k)
    return ChainMap(Xk, Yk, {n - k: m for n, m in f.components.items()})


def direct_sum(X, Y):
    """Degreewise concatenation with block-diagonal differentials."""
    return direct_sum_many(X.algebra, [X, Y])


def direct_sum_many(algebra, complexes):
    """The direct sum of `complexes` in one pass: each differential has the summands' ones as diagonal blocks."""
    if any(X.algebra is not algebra and X.algebra != algebra for X in complexes):
        raise ComplexError("different algebras")

    def parts(n):
        return [X.component(n) for X in complexes]

    diagonals = {}
    for k, X in enumerate(complexes):
        for n, d in X.differentials.items():
            diagonals.setdefault(n, {})[k, k] = d
    # degrees in the order the summands first show them: callers read `components` in its order
    comps = {n: sum(parts(n), ()) for n in dict.fromkeys(n for X in complexes for n in X.components)}
    diffs = {n: PathMatrix.blocks(algebra, parts(n + 1), parts(n), ds) for n, ds in diagonals.items()}
    return ProjComplex(algebra, comps, diffs)


class MinimizeResult:
    """Minimal model of `source`, with the Gauss steps that reached it (`_eliminate`).

    `at` maps each degree of `source` to {index: index in `complex`} of its
    kept summands, and `steps` each degree n with a step to
    (Gamma Phi^{-1}, Phi^{-1}, B), as `_eliminate` records them.  With no
    step, `complex` is `source` itself and both maps are its identity.
    """

    __slots__ = ("complex", "source", "at", "steps")

    def __init__(self, complex, source, at, steps):
        self.complex, self.source, self.at, self.steps = complex, source, at, steps

    @property
    def to_min(self):
        """The projection source -> complex, built on each read (`_projection`)."""
        X, Y, steps = self.source, self.complex, self.steps
        if not steps:
            return ChainMap.identity(X)
        return ChainMap(X, Y, {n: _projection(X.algebra, vs, 0, self.at[n], steps.get(n - 1), Y.component(n))
                               for n, vs in X.components.items()})

    @property
    def from_min(self):
        """The inclusion complex -> source, built on each read (`_inclusion`)."""
        X, Y, steps = self.source, self.complex, self.steps
        if not steps:
            return ChainMap.identity(X)
        return ChainMap(Y, X, {n: _inclusion(X.algebra, vs, 0, self.at[n], steps.get(n), Y.component(n))
                               for n, vs in X.components.items()})


def minimize(X):
    """Strip unit differential entries by exact Gaussian cancellation.

    Returns a MinimizeResult whose complex has all differential entries in
    the radical (no trivial-path coefficients), with `to_min` and
    `from_min`, mutually inverse-up-to-homotopy chain maps in both
    directions.  One block step per degree: the pivots of d^n are `_pivots`
    of X's own d^n, the columns that the step at n - 1 cancels left out.  A
    step at degree n only deletes rows of d^{n-1} and columns of d^{n+1}, so
    taking degrees in increasing order finds every pivot before the first
    step, and no lower degree regains a unit entry; one `_eliminate` on X's
    cells then writes the model.  The cone or cocone of a map between
    minimal complexes is not minimized: `minimal_cone` and `minimal_cocone`
    run the same elimination on its cells, and `approx._envelope` minimizes
    a raw M once, at entry, so that every cone and cocone it takes has
    minimal ends.
    """
    pivots, fld = {}, X.algebra.field
    for n in sorted(X.differentials):
        skip = pivots[n - 1][0] if n - 1 in pivots else ()  # the step at n - 1 cancels these columns of d^n
        rows, cols = _pivots(fld, X.differentials[n].cells, len(X.component(n)), skip)
        if rows:
            pivots[n] = rows, cols
    if not pivots:
        return MinimizeResult(X, X, {}, {})
    cells = {n: d.cells.items() for n, d in X.differentials.items()}
    E, at, steps = _eliminate(X.algebra, X.components, cells, pivots)
    return MinimizeResult(E, X, at, steps)


def _pivots(fld, cells, width, skip=()):
    """Rows and columns of a maximal invertible block of unit entries of d, from its cells and `width`.

    The block is the one that cancelling the first unit entry in row-major
    order, again and again, would use up, with the columns in `skip` left
    out.  When each row with a unit has one, in a column no other such row
    uses, that loop takes them all in row order.  Otherwise a row is taken
    when its trivial-path coefficients leave the span of the rows before,
    at the first non-zero column of its residue in one running RREF.
    """
    units = {}
    for (i, j), t in cells.items():
        if j not in skip:
            for p, c in t.items():
                if not p.arrows:
                    units.setdefault(i, {})[j] = c
    if not units:
        return [], []
    rows, lines = zip(*sorted(units.items()))  # no comprehension here reads a local: a call makes no closure cell
    cols = [next(iter(line)) for line in lines]
    if all(len(line) == 1 for line in lines) and len(set(cols)) == len(cols):
        return list(rows), cols
    red, pivs, taken, at = [], [], [], []
    for i, line in zip(rows, lines):
        if extend_rref(fld, red, pivs, list(map(line.get, range(width), [fld.zero] * width))):
            taken.append(i)
            at.append(next(c for c in pivs if c not in at))
    return taken, at


def _eliminate(alg, comps, cells, pivots):
    """The complex that a Gauss step at each degree of `pivots` leaves of the complex with components `comps`.

    `cells` maps each degree n of a differential to its cells ((i, j),
    terms), read once, and `pivots` each degree n with a step to its rows
    and columns of d^n, an invertible block Phi of unit entries, none of
    its columns a row of the step at n - 1.  A step at n
    only deletes rows of d^{n-1} and columns of d^{n+1}, so every kept
    summand has its final index up front, in its degree's order, and each
    d^n is written once in those indices: as Delta - Gamma Phi^{-1} B
    (`_cancel`) where degree n has a step, Delta alone elsewhere, with a
    row or column that a step cancels left out.  Returns the complex, `at`
    mapping each degree to {index: final index} of its kept summands, and
    {n: (Gamma Phi^{-1}, Phi^{-1}, B)} per step: Gamma Phi^{-1} with its rows
    final, B by rows {pivot row: [(final column, terms)]}, and every pivot
    at its index in `comps`.  The maps to and from the model are
    selections, corrected after or at a step (`_projection`, `_inclusion`).
    """
    at, kept, none = {}, {}, ((), ())
    for n, vs in comps.items():
        gone = set(pivots.get(n, none)[1]).union(pivots.get(n - 1, none)[0])
        keep = [i for i in range(len(vs)) if i not in gone]
        at[n], kept[n] = dict(zip(keep, count())), tuple(map(vs.__getitem__, keep))
    diffs, steps = {}, {}
    for n, ds in cells.items():
        rmap, cmap, (rows, cols) = at.get(n + 1, {}), at.get(n, {}), pivots.get(n, none)
        rpos, cpos = dict(zip(rows, count())), dict(zip(cols, count()))
        phi, gamma, beta, delta = {}, {}, {}, {}  # d^n = [[Phi, B], [Gamma, Delta]], pivots first
        for (i, j), t in ds:
            if j in cpos:
                if i in rpos:
                    phi[rpos[i], cpos[j]] = t
                elif i in rmap:
                    gamma[rmap[i], j] = t
            elif j not in cmap:
                continue
            elif i in rpos:
                beta.setdefault(i, []).append((cmap[j], t))
            elif i in rmap:
                delta[rmap[i], cmap[j]] = t
        if rows:
            delta, gamma_phi_inv, phi_inv = _cancel(alg, comps[n + 1], comps[n], rows, cols, phi, gamma, beta, delta)
            steps[n] = gamma_phi_inv, phi_inv, beta
        diffs[n] = PathMatrix._of(alg, kept.get(n + 1, ()), kept[n], delta)
    return ProjComplex(alg, kept, diffs), at, steps


def _cancel(alg, tgt, src, rows, cols, phi, gamma, beta, delta):
    """One Gauss step on d^n = [[Phi, B], [Gamma, Delta]]: Delta - Gamma Phi^{-1} B, Gamma Phi^{-1} and Phi^{-1}.

    Phi is the invertible block at rows `rows` of `tgt` and columns `cols`
    of `src`; Phi^{-1} comes back by rows {column: [(row, terms)]}.  The
    chain maps p: X -> Y and i: Y -> X are selections except
    p^{n+1} = [-Gamma Phi^{-1} | 1] and i^n = [-Phi^{-1} B ; 1]; the chain
    condition forces both, p o i = id and i o p is homotopic to the identity.
    Phi^{-1} with one single-term cell per row is monomial (invertible, so
    each term is a trivial path): Gamma Phi^{-1} renames Gamma's columns
    and scales, keeping the terms at coefficient one.
    """
    block, phi_inv = PathMatrix._of(alg, tuple(tgt[r] for r in rows), tuple(src[c] for c in cols), phi), {}
    for (b, a), t in block.invert().cells.items():
        phi_inv.setdefault(cols[b], []).append((rows[a], t))
    if all(len(line) == 1 and len(line[0][1]) == 1 for line in phi_inv.values()):
        one, mul, gamma_phi_inv = alg.field.one, alg.field.mul, {}
        for (i, k), t in gamma.items():
            [(j, unit)] = phi_inv[k]
            [c] = unit.values()
            gamma_phi_inv[i, j] = t if c == one else {p: mul(x, c) for p, x in t.items()}
    else:
        gamma_phi_inv = PathMatrix._product(alg, gamma, phi_inv)
    new = PathMatrix._add_into(alg.field, delta, PathMatrix._product(alg, gamma_phi_inv, beta), True)
    return new, gamma_phi_inv, phi_inv


def _projection(alg, vs, lo, at, step, target):
    """The component of `to_min` at a degree, on its summands `vs` from index `lo` on, into `target`.

    A selection of the kept summands (`at`), less Gamma Phi^{-1} where the
    degree below has a `step`, whose pivot rows lie among `vs`.
    """
    e, one, neg = alg.trivial_path, alg.field.one, alg.field.neg
    cells = {(at[i], i - lo): {e(v): one} for i, v in enumerate(vs, lo) if i in at}
    if step:
        for (k, r), t in step[0].items():
            cells[k, r - lo] = {p: neg(c) for p, c in t.items()}
    return PathMatrix._of(alg, target, vs, cells)


def _inclusion(alg, vs, lo, at, step, source):
    """The component of `from_min` at a degree, from `source`, on its summands `vs` from index `lo` on.

    A selection of the kept summands (`at`), less Phi^{-1} B where the
    degree has a `step`, whose pivot columns lie among `vs`.
    """
    e, one, neg = alg.trivial_path, alg.field.one, alg.field.neg
    cells = {(i - lo, at[i]): {e(v): one} for i, v in enumerate(vs, lo) if i in at}
    if step:
        _gamma_phi_inv, phi_inv, beta = step
        lines = {(c, r): t for c in sorted(phi_inv) for r, t in phi_inv[c]}
        for (c, k), t in PathMatrix._product(alg, lines, beta).items():
            cells[c - lo, k] = {p: neg(x) for p, x in t.items()}
    return PathMatrix._of(alg, vs, source, cells)


def minimal_cocone(f):
    """(V, u) for f: X -> Y between minimal complexes: V the minimal model of CC(f), u: V -> X its map onto X.

    One elimination of f's unit block (`_minimal_cone`).  With a
    non-minimal end the result is C(f)[-1] with f's unit block eliminated,
    a model that keeps the units of d_X and d_Y and need not be minimal.
    """
    return _minimal_cone(f, 0)


def minimal_cone(f):
    """(U, p) for f: X -> Y between minimal complexes: U the minimal model of C(f), p: Y -> U its map out of Y.

    One elimination of f's unit block (`_minimal_cone`).  With a
    non-minimal end the result is C(f) with f's unit block eliminated, a
    model that keeps the units of d_X and d_Y and need not be minimal.
    """
    return _minimal_cone(f, 1)


def is_minimal(X):
    """Whether every differential entry of X lies in the radical: no term is a trivial path."""
    return all(p.arrows for d in X.differentials.values() for t in d.cells.values() for p in t)


def _minimal_cone(f, t):
    """`minimal_cone` (t = 1) or `minimal_cocone` (t = 0) of f: X -> Y between minimal complexes.

    The complex is C(f)[t - 1]: E^n = P^n (+) Q^n with P^n = X^{n+t} and
    Q^n = Y^{n+t-1}, Q's summands after P's, and d^n = (-1)^(t-1)
    [[-d_X, 0], [f, d_Y]], the cone's differential shifted by t - 1.  d_X
    and d_Y are radical, so every unit of d^n lies in f's block, and the
    pivots of each degree are `_pivots` of f^{n+t} alone.  `_eliminate`
    runs on d^n's cells read off d_X, f and d_Y (`_cone_cells`), and the
    map is the restriction of the model's `to_min` to Q (t = 1, out of Y)
    or of its `from_min` to P (t = 0, onto X).  No cone is built, and every
    cell, term and dict order is the one `minimize` of the cone built in
    full would give, with its `to_min` after Y's inclusion or its
    `from_min` before the projection onto X.
    """
    X, Y, fc, alg = f.source, f.target, f.components, f.source.algebra
    xc, yc = X.components, Y.components
    pivots = {}
    for n, m in fc.items():
        rows, cols = _pivots(alg.field, m.cells, len(xc[n]))
        if rows:
            off = len(xc.get(n + 1, ()))  # f^n's rows are Q^{n+1-t}, after P^{n+1-t} = X^{n+1}
            pivots[n - t] = [off + r for r in rows], cols
    comps = {n: xc.get(n + t, ()) + yc.get(n + t - 1, ())
             for n in sorted({n - t for n in xc} | {n + 1 - t for n in yc})}
    degrees = sorted({n - t for n in X.differentials} | {n - t for n in fc} | {n + 1 - t for n in Y.differentials})
    E, at, steps = _eliminate(alg, comps, {n: _cone_cells(f, t, n) for n in degrees}, pivots)
    if t:
        return E, ChainMap(Y, E, {n: _projection(alg, vs, len(xc.get(n + 1, ())), at[n], steps.get(n - 1),
                                                 E.component(n)) for n, vs in yc.items()})
    return E, ChainMap(E, X, {n: _inclusion(alg, vs, 0, at[n], steps.get(n), E.component(n)) for n, vs in xc.items()})


def _cone_cells(f, t, n):
    """The cells of d^n of C(f)[t - 1] (`_minimal_cone`), block by block: (-1)^(t-1) times -d_X, f and d_Y."""
    X, Y, neg = f.source, f.target, f.source.algebra.field.neg
    rq, cq = len(X.component(n + 1 + t)), len(X.component(n + t))  # where Q^{n+1} and Q^n start
    for ms, k, di, dj, negate in ((X.differentials, n + t, 0, 0, t), (f.components, n + t, rq, 0, not t),
                                  (Y.differentials, n + t - 1, rq, cq, not t)):
        for (i, j), terms in ms[k].cells.items() if k in ms else ():
            yield (i + di, j + dj), {p: neg(c) for p, c in terms.items()} if negate else terms


def transform(X, change):
    """Conjugate a complex by degreewise invertible maps V_n.

    `change` maps degree -> invertible PathMatrix on X^n.  The result has the
    same components and differentials V_{n+1} d V_n^{-1}.
    """
    alg = X.algebra
    inv = {n: m.invert() for n, m in change.items()}

    def V(n):
        return change.get(n) or PathMatrix.identity(alg, X.component(n))

    def Vinv(n):
        return inv.get(n) or PathMatrix.identity(alg, X.component(n))

    diffs = {}
    for n, d in X.differentials.items():
        diffs[n] = V(n + 1).compose(d).compose(Vinv(n))
    return ProjComplex(alg, dict(X.components), diffs)


def subcomplex_on_indices(X, index_map):
    """Subquotient on chosen summand indices when d is block-diagonal for them.

    `index_map` maps degree -> sorted list of summand indices to keep.  The
    caller guarantees that the kept indices span a summand, a subcomplex or
    a quotient complex; nothing here checks it.  `decompose._components`
    keeps the connected components of the differentials, which no cell
    joins.  `approx._stalk_split` and `recollement`'s i^* rely on no arrow
    leaving S: an entry from a complement summand to an S summand would be
    a path from S to the complement, so the complement summands span a
    subcomplex and the S summands its quotient.  The split also keeps there
    each P_v in a degree n above its stalk's degree d_v: an entry into a P_w
    in degree n + 1 <= d_w needs a path w -> v, so d_w <= d_v < n for
    presilting stalks.
    """
    alg = X.algebra
    comps = {}
    for n, idx in index_map.items():
        vs = tuple(X.component(n)[i] for i in idx)
        if vs:
            comps[n] = vs
    diffs = {
        n: d.submatrix(index_map[n + 1], index_map[n])
        for n, d in X.differentials.items()
        if n in comps and n + 1 in comps
    }
    return ProjComplex(alg, comps, diffs)


def _op_matrix(m, op_algebra):
    """Transpose a path matrix and reverse every path, over the opposite algebra, in one pass.

    A path reversed is the basis path of A^op with the reversed arrow word,
    from its target to its source: the opposite algebra's own basis object,
    so dict lookups on it match by identity.
    """
    paths = op_algebra.basis_path
    cells = {
        (j, i): {paths[p.target, p.source, p.arrows[::-1]]: c for p, c in t.items()}
        for (i, j), t in m.cells.items()
    }
    return PathMatrix._of(op_algebra, m.col_vertices, m.row_vertices, cells)


def opposite_complex(X, op_algebra):
    """Transport to the opposite algebra: reverse arrows, negate degrees.

    A complex over A maps contravariantly to one over A^op via transposing
    every differential and reversing each path.  Degrees are negated so the
    result is again a cohomological complex; Hom spaces match up as
    Hom_A(X, Y) = Hom_{A^op}(op(Y), op(X)).
    """
    comps = {-n: tuple(X.component(n)) for n in X.components}
    # d^n: X^n -> X^{n+1} becomes op(X)^{-n-1} -> op(X)^{-n}
    diffs = {-n - 1: _op_matrix(d, op_algebra) for n, d in X.differentials.items()}
    return ProjComplex(op_algebra, comps, diffs)


def opposite_map(f, op_source, op_target, op_algebra):
    """Transport a chain map to the opposite algebra (direction reverses)."""
    comps = {-n: _op_matrix(m, op_algebra) for n, m in f.components.items()}
    return ChainMap(op_target, op_source, comps)
