"""Morphism spaces in the homotopy category.

Hom(X, Y[k]) is computed as degree-0 chain maps X -> Y[k] modulo null-
homotopic maps, by exact linear algebra over the base field: unknowns are the
path coefficients of the matrix entries, the chain condition cuts out a
kernel, and homotopies span a subspace of it.  Boundaries are cycles
(d^2 = 0), so the dimension is the nullity of the chain-condition system
minus the rank of the boundaries: two row reductions.  The cycle basis and
the representatives are built on first read, so a caller that only
measures a space builds neither.
"""

import functools
import itertools

from .complexes import ChainMap, PathMatrix, shift
from .linalg import Matrix, extend_rref, rref_kernel_basis, row_space_rref, in_row_space, solve


class _VarSpace:
    """Coordinates for degreewise path-matrix maps X^n -> Z^{n+shift}."""

    def __init__(self, X, Z, degree_shift=0):
        self.X = X
        self.Z = Z
        self.shift = degree_shift
        self.slots = []  # (degree n, row i, col j, path)
        self.index = {}
        alg = X.algebra
        degrees = sorted(set(X.components) & {n - degree_shift for n in Z.components})
        for n in degrees:
            src = X.component(n)
            tgt = Z.component(n + degree_shift)
            for i, w in enumerate(tgt):
                for j, v in enumerate(src):
                    for p in alg.hom_proj_basis(v, w):
                        self.index[(n, i, j, p)] = len(self.slots)
                        self.slots.append((n, i, j, p))

    @property
    def dim(self):
        return len(self.slots)

    def to_vector(self, comps):
        """Flatten degreewise matrices {n: PathMatrix} into coordinates."""
        vec = [self.X.algebra.field.zero] * self.dim
        index = self.index
        for n, m in comps.items():
            for (i, j), terms in m.cells.items():
                for p, c in terms.items():
                    vec[index[n, i, j, p]] = c
        return vec

    def from_vector(self, vec):
        """Inverse of to_vector; returns {n: PathMatrix}."""
        alg = self.X.algebra
        fld = alg.field
        cells = {}
        for idx, c in enumerate(vec):
            if fld.is_zero(c):
                continue
            n, i, j, p = self.slots[idx]
            cells.setdefault(n, {}).setdefault((i, j), {})[p] = c
        return {
            n: PathMatrix._of(alg, self.Z.component(n + self.shift), self.X.component(n), cs)
            for n, cs in cells.items()
        }


class HomSpace:
    """Hom_{K^b}(X, Y[k]) with a canonical basis of representatives."""

    def __init__(self, X, Y, k=0):
        self.X = X
        self.Y = Y
        self.k = k
        self.Z = shift(Y, k)
        self._compute()

    def _compute(self):
        X, Z = self.X, self.Z
        fld = X.algebra.field
        self.fvars = _VarSpace(X, Z, 0)
        self.hvars = _VarSpace(X, Z, -1)
        # a unit map meets one column of a d_Z and one row of a d_X
        self._dz_cols = {n: d.lines(1) for n, d in Z.differentials.items()}
        self._dx_rows = {n: d.lines(0) for n, d in X.differentials.items()}

        # chain condition d_Z f - f d_X = 0, one equation per target coordinate;
        # columns of the equation matrix are the f-variables
        eq_space = _VarSpace(X, Z, 1)  # target of the defect map
        nvars = self.fvars.dim
        eqs = [[fld.zero] * nvars for _ in range(eq_space.dim)] if nvars else []
        for col, slot in enumerate(self.fvars.slots):
            for row, c in self._unit_image(eq_space, slot, 0, True).items():
                eqs[row][col] = c
        self._eqs = row_space_rref(fld, eqs)

        # boundaries: image of h |-> d_Z h + h d_X, kept sparse for homotopy_witness
        self._bimages = [self._unit_image(self.fvars, slot, -1, False) for slot in self.hvars.slots]
        bvecs = []
        for img in self._bimages:
            vec = [fld.zero] * self.fvars.dim
            for idx, c in img.items():
                vec[idx] = c
            bvecs.append(vec)
        self._brows, self._bpivs = row_space_rref(fld, bvecs)
        # the boundaries lie in the kernel of the chain-condition system
        self.dim = nvars - len(self._eqs[1]) - len(self._bpivs)
        self._solver = None  # factored by the first `coordinates` call

    @functools.cached_property
    def cycle_basis(self):
        """The chain maps X -> Y[k]: the kernel of the chain-condition system."""
        return rref_kernel_basis(self.X.algebra.field, *self._eqs, self.fvars.dim)

    @functools.cached_property
    def _reps(self):
        """Canonical representatives: cycle-kernel vectors that grow the span,
        added one by one to a running RREF of the boundaries, until `dim`."""
        fld = self.X.algebra.field
        rows, pivs = [list(r) for r in self._brows], list(self._bpivs)
        return list(itertools.islice((v for v in self.cycle_basis if extend_rref(fld, rows, pivs, v)), self.dim))

    def _unit_image(self, target, slot, shift, negate):
        """Coordinates in `target` of d_Z u +/- u d_X for the unit map u at `slot`.

        u has the single entry p at (i, j) of degree n, mapping X^n to
        Z^{n+shift}.  Only column i of d_Z^{n+shift} and row j of d_X^{n-1}
        meet it: d_Z u has entries d_Z[r][i] p at (n, r, j), and u d_X has
        entries p d_X[j][c] at (n-1, i, c), negated when `negate` is set.
        Returns {coordinate index: coefficient}.
        """
        n, i, j, p = slot
        alg = self.X.algebra
        fld, prod, index = alg.field, alg.compose_paths, target.index
        out = {}
        for r, terms in self._dz_cols.get(n + shift, {}).get(i, ()):
            for s, c in terms.items():
                idx = index[n, r, j, prod(s, p)]
                out[idx] = fld.add(out.get(idx, fld.zero), c)
        for col, terms in self._dx_rows.get(n - 1, {}).get(j, ()):
            for t, c in terms.items():
                idx = index[n - 1, i, col, prod(p, t)]
                out[idx] = fld.add(out.get(idx, fld.zero), fld.neg(c) if negate else c)
        return out

    def basis_maps(self):
        """Canonical representing chain maps X -> Y[k].

        They are kernel vectors of the chain-condition system, so they are
        chain maps by construction and are not checked again here.
        """
        return [ChainMap(self.X, self.Z, self.fvars.from_vector(v)) for v in self._reps]

    def is_null_homotopic(self, f):
        vec = self.fvars.to_vector({n: f.component(n) for n in f.components})
        fld = self.X.algebra.field
        return in_row_space(fld, self._brows, self._bpivs, vec)

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
        if self._solver is None:
            self._solver = self._factor_cycles()
        vec = self.fvars.to_vector({n: f.component(n) for n in f.components})
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

    def _factor_cycles(self):
        """[(pivot, sparse reduced row, sparse rep coefficients)] of the cycle space."""
        fld = self.X.algebra.field
        n, r = self.fvars.dim, len(self._reps)
        basis = self._reps + self._brows
        unit = [fld.zero] * len(basis)
        aug = [list(v) + unit[:i] + [fld.one] + unit[i + 1 :] for i, v in enumerate(basis)]
        red, piv = row_space_rref(fld, aug)
        return [
            (
                col,
                [(k, row[k]) for k in range(col, n) if not fld.is_zero(row[k])],
                [(k, row[n + k]) for k in range(r) if not fld.is_zero(row[n + k])],
            )
            for row, col in zip(red, piv)
        ]

    def homotopy_witness(self, f):
        """For a null-homotopic f, a degree -1 map h with f = d h + h d."""
        fld = self.X.algebra.field
        vec = self.fvars.to_vector({n: f.component(n) for n in f.components})
        imgs = self._bimages
        mat = Matrix(
            fld,
            [[img.get(r, fld.zero) for img in imgs] for r in range(self.fvars.dim)],
            cols=len(imgs),
        )
        x = solve(mat, vec)
        if x is None:
            return None
        return self.hvars.from_vector(x)


def hom_dim(X, Y, k=0):
    return HomSpace(X, Y, k).dim


def hom_window(X, Y):
    """Shifts k outside [lo_Y - hi_X, hi_Y - lo_X] give Hom(X, Y[k]) = 0."""
    if X.is_zero() or Y.is_zero():
        return (0, -1)
    return (Y.lo - X.hi, Y.hi - X.lo)


def hom_spaces(X, Y, lo=None, hi=None):
    """{k: HomSpace(X, Y, k)} over a shift window (default: full support).

    A shift outside the support maps to None: Hom is zero there, and no
    space is built.
    """
    wlo, whi = hom_window(X, Y)
    if lo is None:
        lo = wlo
    if hi is None:
        hi = whi
    return {k: HomSpace(X, Y, k) if wlo <= k <= whi else None for k in range(lo, hi + 1)}


def nonzero_homs(X, Y, lo):
    """Lazily, upwards: (k, HomSpace(X, Y, k)) for each k >= lo with Hom(X, Y[k]) != 0.

    Only the shifts inside the support window are built, so a caller that
    stops at the first yield builds no space past it.
    """
    wlo, whi = hom_window(X, Y)
    for k in range(max(lo, wlo), whi + 1):
        hs = HomSpace(X, Y, k)
        if hs.dim:
            yield k, hs


def hom_dim_table(X, Y, lo=None, hi=None):
    """Dimensions of Hom(X, Y[k]) over a shift window (default: full support)."""
    return {k: 0 if hs is None else hs.dim for k, hs in hom_spaces(X, Y, lo, hi).items()}


def s_search(M, T_list):
    """s = sup{k >= 0 : Hom(M, T_i[k]) != 0 for some i}, and the spaces at s.

    Returns (s, spaces), with s None when there is no such k.  Each
    member's window is scanned downwards, from its top to the best k found
    so far (or to 0), and stops at the first non-zero Hom.  So every member
    whose window reaches s has HomSpace(M, T_i, s) built on the way:
    `spaces` maps those indices i to it.  The other members have
    Hom(M, T_i[s]) = 0.
    """
    best, built = None, {}
    for i, T in enumerate(T_list):
        _, whi = hom_window(M, T)
        for k in range(whi, (0 if best is None else best) - 1, -1):
            hs = built[i, k] = HomSpace(M, T, k)
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
