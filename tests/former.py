"""Earlier forms of library routines, kept as oracles for their faster forms.

- `cone` and `cocone` build the mapping cone C(f) and the cocone
  CC(f) = C(f)[-1] with its projection onto X in full, as `complexes` did
  before `approx._envelope` minimized a raw M at entry and every cone the
  library takes became a direct elimination with minimal ends.
- `former_cocone` builds CC(f) as C(f) shifted by -1, with the projection
  onto X, as `complexes.cocone` once did.
- `former_co_aisle_agreement` compares, on probes Z, the memberships Z in
  perp_{>0}(T) and Z in perp_{>0}(j_!T_C + i_*T_B), as
  `gluing.check_co_aisle_agreement` did before it decided i^*T~_Y ~= T_Y;
  the `glue` verb probed with the stalks P_v.  Agreement on probes is
  necessary, not sufficient: the stalks miss T~_Y[1] in place of T~_Y.
- `former_generated` decides whether P_v lies in thick(T) by the envelope
  V -> P_v -> U, then the precover V' -> V -> W of its cocone: W = 0, as
  `gluing.check_generation` did before one envelope of P_v in the lowest
  degree of T decided it.
- `former_minimal_cocone` and `former_minimal_cone` build CC(f) or C(f) in
  full, minimize it by `former_minimize` and replay its steps on the
  projection onto X (`pull`) or the inclusion of Y (`push`), as `approx`
  did for every envelope stage and final cone before
  `complexes.minimal_cocone` and `minimal_cone` eliminated f's block
  directly when both ends are minimal; they share no code with the
  library's elimination.
- `former_envelope` and `former_cosusp_precover` take the envelope and
  the precover as `approx` did before it minimized a raw M at entry and
  bounded each stage's s-search by the previous stage's s: every s-search
  scans each window from its top and raises when s fails to decrease, and
  every stage and the final cone take the full cone route
  (`former_minimal_cocone`, `former_minimal_cone`) on the raw M itself.
- `former_envelope_tail` rebuilds V and v_map of an envelope from its f:
  the cocone of f, minimized, and the pull of the cocone's projection.
  `approx._envelope` once ran this after its stages; it now reads V and
  v_map off the last stage.
- `former_invert` inverts a path matrix by the dense reduction of
  [S | 1] on `linalg.Matrix` objects, then the Neumann series in the radical
  part, as `PathMatrix.invert` once did.
- `former_left_minimize` rank-tests every copy of a preenvelope once, in
  order, over every non-zero space Hom(M, T_j[s]), as `approx.left_minimize`
  did before it kept the copies that Hom dimensions decide without a test
  and decided the others in the one space of the copy's member; a member
  with no space (None) is zero.
- `former_minimize` cancels one unit block per degree by slicing the
  differentials with `submatrix` and building a `ProjComplex` after every
  step, with pivots from a running RREF of every unit row, and replays the
  steps on any map in `push` and `pull` by slicing again, as
  `complexes.minimize` did before it ran on one cell table and, later,
  wrote each differential once in final indices with `to_min` and
  `from_min` built directly.
- `radical_part` and `trivial_coefficient` are the radical part of a path
  matrix and the trivial-path coefficient of an algebra element, once
  methods of `PathMatrix` and `AlgebraElement` that only the tests called.
- `former_reps` picks the representatives from every row of the dense
  delta^(k-1), as `HomSpace._reps` did before it dropped the rows that are
  zero on the free columns.
- `FormerHomSpace` reduces the equations of delta^k on every row of its
  transpose, reads dim off two such reductions, and picks the
  representatives from the full cycle basis with every row of delta^(k-1)
  that meets a free column, fully reduced, on a complex of its own, as
  `HomSpace` did before it reduced the independent rows only.
- `former_group_isomorphic` calls `is_isomorphic` against every class
  before a record, as `decompose.group_isomorphic` did before it skipped
  the classes whose minimal graded multiset differs.
- `former_enumerate_paths` grows the paths of a quiver by length and sorts
  them by length, arrow indices and source vertex, as `PathAlgebra` did
  before it built its basis in basis order.
- `former_compose_paths` builds the path p*q and interns it, the basis
  object equal to it, as `PathAlgebra.compose_paths` did (through a memo of
  the pairs) before one lookup of the product rule; `former_product` and
  `former_opposite_complex` multiply and reverse paths by that route, as
  `PathMatrix._product` and `complexes._op_matrix` did, and
  `former_product` drops a pair that does not compose.
"""

import functools

from siltglue.approx import (
    ApproxError,
    Preenvelope,
    add_shift_preenvelope,
    cosusp_precover,
    indecomposable_refinement,
    left_minimize,
    susp_envelope,
)
from siltglue.complexes import (
    ChainMap,
    ComplexError,
    PathMatrix,
    ProjComplex,
    minimize,
    opposite_complex,
    shift,
    shift_map,
)
from siltglue.decompose import is_isomorphic
from siltglue.homs import HomComplex, HomSpace, nonzero_homs, s_search
from siltglue.linalg import Matrix, extend_rref, rref_kernel_basis, row_space_rref
from siltglue.quiver import Path, build_algebra
from siltglue.recollement import i_star


def cone(f):
    """The mapping cone C(f) of f: X -> Y, the third object of the triangle X -> Y -> C(f)."""
    X, Y = f.source, f.target
    alg = X.algebra
    comps = {}
    for n in range(min(X.lo - 1, Y.lo), max(X.hi - 1, Y.hi) + 1):
        vs = X.component(n + 1) + Y.component(n)
        if vs:
            comps[n] = vs
    dX, dY, fc = X.differentials, Y.differentials, f.components
    diffs = {}
    for n in sorted({n - 1 for n in dX} | {n - 1 for n in fc} | set(dY)):
        parts = {(0, 0): -dX[n + 1]} if n + 1 in dX else {}
        if n + 1 in fc:
            parts[1, 0] = fc[n + 1]
        if n in dY:
            parts[1, 1] = dY[n]
        rows, cols = (X.component(n + 2), Y.component(n + 1)), (X.component(n + 1), Y.component(n))
        diffs[n] = PathMatrix.blocks(alg, rows, cols, parts)
    return ProjComplex(alg, comps, diffs)


def cocone(f):
    """(CC(f), u) for f: X -> Y: the cocone CC(f) = C(f)[-1] and u: CC(f) -> X of the triangle CC(f) -> X -> Y.

    Built in one pass: CC^n = X^n (+) Y^{n-1} with differential
    [[d_X, 0], [-f, -d_Y]], one `PathMatrix.blocks` per degree, which is
    C(f) shifted by -1 without negating d_X twice; u projects onto X^n.
    """
    X, Y = f.source, f.target
    alg = X.algebra
    comps = {}
    for n in range(min(X.lo, Y.lo + 1), max(X.hi, Y.hi + 1) + 1):
        vs = X.component(n) + Y.component(n - 1)
        if vs:
            comps[n] = vs
    dX, dY, fc = X.differentials, Y.differentials, f.components
    diffs = {}
    for n in sorted(set(dX) | set(fc) | {n + 1 for n in dY}):
        parts = {(0, 0): dX[n]} if n in dX else {}
        if n in fc:
            parts[1, 0] = -fc[n]
        if n - 1 in dY:
            parts[1, 1] = -dY[n - 1]
        rows, cols = (X.component(n + 1), Y.component(n)), (X.component(n), Y.component(n - 1))
        diffs[n] = PathMatrix.blocks(alg, rows, cols, parts)
    CC = ProjComplex(alg, comps, diffs)
    e, one = alg.trivial_path, alg.field.one
    proj = {n: PathMatrix._of(alg, vs, vs + Y.component(n - 1), {(i, i): {e(v): one} for i, v in enumerate(vs)})
            for n, vs in X.components.items()}
    return CC, ChainMap(CC, X, proj)


def former_cocone(f):
    """(C(f)[-1], its projection onto the source of f)."""
    X, Y = f.source, f.target
    CC = shift(cone(f), -1)
    alg = X.algebra
    proj = {
        n: PathMatrix.blocks(alg, (vs,), (vs, Y.component(n - 1)), {(0, 0): PathMatrix.identity(alg, vs)})
        for n, vs in X.components.items()
    }
    return CC, ChainMap(CC, X, proj)


def former_minimal_cocone(f):
    """(V, u): the minimal model of CC(f), built in full, and the pull of its projection onto X."""
    CC, u = cocone(f)
    m = former_minimize(CC)
    return m.complex, m.pull(u)


def former_minimal_cone(f):
    """(U, p): the minimal model of C(f), built in full, and the push of the inclusion of Y."""
    X, Y, C = f.source, f.target, cone(f)
    alg = X.algebra
    incl = {
        n: PathMatrix.blocks(alg, (X.component(n + 1), vs), (vs,), {(1, 0): PathMatrix.identity(alg, vs)})
        for n, vs in Y.components.items()
    }
    m = former_minimize(C)
    return m.complex, m.push(ChainMap(Y, C, incl))


def _perp_positive(Z, objs):
    """Is Hom(Z, O[k]) = 0 for all O in objs and all k > 0 (window-checked)?"""
    return not any(next(nonzero_homs(Z, O, 1), None) for O in objs)


def former_co_aisle_agreement(cert, probes):
    """Probe-level equality of the right orthogonals of T and of j_!T_C + i_*T_B: {"ok", "probes"}."""
    raw = list(cert.jT) + [i_star(cert.rec, T_Y) for T_Y in cert.T_B]
    results = []
    for pi, Z in enumerate(probes):
        lhs, rhs = _perp_positive(Z, cert.T), _perp_positive(Z, raw)
        results.append({"probe": pi, "perp_T": lhs, "perp_raw": rhs, "agree": lhs == rhs})
    return {"ok": all(r["agree"] for r in results), "probes": results}


def former_generated(algebra, T_list, v):
    """Is P_v in thick(T)?  The precover of the envelope cocone of P_v (in degree 0) by T is zero."""
    env = susp_envelope(ProjComplex.stalk(algebra, v), T_list)
    return cosusp_precover(env.V, T_list).U.is_zero()


def former_envelope(M, T_list):
    """(f, U, V, v_map, trace) of the susp(T)-envelope triangle V -> M -> U, by the former route on M itself."""
    T_list = indecomposable_refinement(T_list)
    W, maps, trace, between = M, [], [], {}
    while (found := s_search(W, T_list))[0] is not None:
        s, spaces = found
        if trace and s >= trace[-1][0]:
            raise ApproxError(f"statistic failed to decrease: {s} >= {trace[-1][0]}")
        pre = left_minimize(add_shift_preenvelope(W, T_list, s, spaces), between)
        W, u = former_minimal_cocone(pre.f)
        maps.append(u)
        trace.append((s, tuple(sorted(ti for ti, _ in pre.copies))))
    if not maps:
        Mm = minimize(M)
        U = ProjComplex.zero(M.algebra)
        return ChainMap.zero(M, U), U, Mm.complex, Mm.from_min, trace
    w = functools.reduce(ChainMap.compose, maps)
    U, f = former_minimal_cone(ChainMap(W, M, {n: -m for n, m in w.components.items()}))
    return f, U, W, w, trace


def former_cosusp_precover(M, T_list):
    """(V, U, trace) of the cosusp(T)-precover triangle V -> M -> U: `former_envelope` over A^op, read back."""
    A = M.algebra
    Aop = build_algebra(A.quiver.opposite(), A.field)
    _f, U_op, V_op, _v, trace = former_envelope(opposite_complex(M, Aop), [opposite_complex(T, Aop) for T in T_list])
    return opposite_complex(U_op, A), opposite_complex(V_op, A), [(-s, tags) for s, tags in trace]


def former_envelope_tail(f):
    """(V, v_map) of the envelope whose map M -> U is f, rebuilt from f."""
    V, v = former_cocone(f)
    Vm = former_minimize(V)
    return Vm.complex, Vm.pull(v)


def former_invert(m):
    """The inverse of a path matrix with invertible scalar part, by [S | 1] on `Matrix` objects."""
    if m.rows != m.cols:
        raise ComplexError("not square")
    alg = m.algebra
    fld = alg.field
    n = m.rows
    sp = m.scalar_part()
    if n == 1:
        if fld.is_zero(sp[0][0]):
            raise ComplexError("scalar part is singular")
        s_inv_field = [[fld.inv(sp[0][0])]]
    else:
        aug = [s + e for s, e in zip(sp, Matrix.identity(fld, n).data)]
        red, piv = Matrix(fld, aug, cols=2 * n).rref()
        if piv != list(range(n)):
            raise ComplexError("scalar part is singular")
        s_inv_field = [[red[i, n + j] for j in range(n)] for i in range(n)]
    cv, rv = m.col_vertices, m.row_vertices
    units = ((i, j, c) for i, row in enumerate(s_inv_field) for j, c in enumerate(row) if cv[i] == rv[j])
    cells = {(i, j): {alg.trivial_path(cv[i]): c} for i, j, c in units if not fld.is_zero(c)}
    s_inv = PathMatrix._of(alg, cv, rv, cells)
    r = radical_part(m)
    if r.is_zero():
        return s_inv
    term = s_inv.compose(r)
    acc = power = PathMatrix.identity(alg, cv)
    sign = -1
    while True:
        power = power.compose(term)
        if power.is_zero():
            break
        acc = acc + power if sign > 0 else acc - power
        sign = -sign
    return acc.compose(s_inv)


def radical_part(m):
    """The path matrix m with all trivial-path coefficients removed."""
    parts = ((ij, {p: c for p, c in t.items() if p.arrows}) for ij, t in m.cells.items())
    return PathMatrix._of(m.algebra, m.row_vertices, m.col_vertices, {ij: t for ij, t in parts if t})


def trivial_coefficient(x):
    """Coefficient of the trivial path in the algebra element x, or the field zero."""
    return next((c for p, c in x.terms.items() if p.is_trivial()), x.algebra.field.zero)


def former_left_minimize(pre):
    """`pre` with every copy rank-tested once, in order, and dropped when the rest still form a preenvelope."""
    M, T_list, s = pre.M, pre.T_list, pre.s
    spaces, reps = pre.spaces, pre.reps
    pairs = sorted({(ti, j) for ti, _ in pre.copies for j, hs in enumerate(spaces) if hs and hs.dim})
    shifted = {(a, b): [shift_map(h, s) for h in HomSpace(T_list[a], T_list[b], 0).basis_maps()] for a, b in pairs}
    copy_rows = []
    for ti, ri in pre.copies:
        r = reps[ti][ri]
        copy_rows.append([[hs.coordinates(h.compose(r)) for h in shifted[ti, j]] for j, hs in enumerate(spaces) if hs and hs.dim])
    dims = [hs.dim for hs in spaces if hs and hs.dim]
    keep = list(range(len(pre.copies)))
    for c in range(len(pre.copies)):
        cand = [k for k in keep if k != c]
        if former_is_preenvelope(M.algebra.field, dims, [copy_rows[k] for k in cand]):
            keep = cand
    return Preenvelope(M, T_list, s, [pre.copies[c] for c in keep], spaces, reps)


def former_is_preenvelope(fld, dims, copy_rows):
    """Do the copies with these rows span every space?  `copy_rows[c][j]` holds the coordinates in
    the j-th non-zero Hom(M, T_j[s]) of the maps copy c lets through, `dims[j]` its dimension."""
    return all(len(row_space_rref(fld, [v for rows in copy_rows for v in rows[j]])[1]) == d for j, d in enumerate(dims))


def former_reps(hs):
    """The representatives of a HomSpace, picked with every row of the dense delta^(k-1)."""
    pivots = set(hs.hom.equations(hs.k)[1])
    if not hs.dim:
        return []
    free = [c for c in range(hs.fvars.dim) if c not in pivots]
    boundaries = [[row[c] for c in reversed(free)] for row in hs.hom.dense(hs.k - 1)]
    skipped = {len(free) - 1 - p for p in row_space_rref(hs.X.algebra.field, boundaries)[1]}
    return [v for q, v in enumerate(hs.cycle_basis) if q not in skipped]


def former_equations(hom, m):
    """The RREF (rows, pivots) of delta^m as equations, reduced on every row of its transpose."""
    return row_space_rref(hom.field, hom.dense(m, transposed=True))


class FormerHomSpace(HomSpace):
    """HomSpace(X, Y, k) on a complex of its own, with the equations, dim and representatives of
    every row; `coordinates` and null-homotopy tests are HomSpace's, on these representatives."""

    def __init__(self, X, Y, k=0):
        super().__init__(X, Y, k, HomComplex(X, Y))

    @functools.cached_property
    def dim(self):
        return self.fvars.dim - len(self.equations[1]) - len(former_equations(self.hom, self.k - 1)[1])

    @functools.cached_property
    def equations(self):
        return former_equations(self.hom, self.k)

    @functools.cached_property
    def cycle_basis(self):
        return rref_kernel_basis(self.X.algebra.field, *self.equations, self.fvars.dim)

    @functools.cached_property
    def _reps(self):
        if not self.dim:
            return []
        pivots = set(self.equations[1])
        free = [c for c in range(self.fvars.dim) if c not in pivots]
        at = {c: len(free) - 1 - q for q, c in enumerate(free)}
        fld, rows = self.X.algebra.field, {}
        for a, b, c in self.hom.delta(self.k - 1) if self.hvars.dim else ():
            if b in at:
                rows.setdefault(a, [fld.zero] * len(free))[at[b]] = c
        skipped = {len(free) - 1 - p for p in row_space_rref(fld, [rows[a] for a in sorted(rows)])[1]}
        return [v for q, v in enumerate(self.cycle_basis) if q not in skipped]


def former_group_isomorphic(parts):
    """[summand, multiplicity, certified, *tags] per class, each record tested against every class."""
    classes = []
    for X, m, certified, *tags in parts:
        i = next((i for i, c in enumerate(classes) if is_isomorphic(c[0], X).isomorphic), None)
        if i is None:
            classes.append([X, m, certified, *tags])
        else:
            classes[i][1] += m
            classes[i][2] = classes[i][2] and certified
    return classes


class FormerMinimizeResult:
    """The minimal model and the steps `(n, rows, keep_src, keep_tgt, Gamma Phi^-1, (cols, Phi^-1, B))`,
    each in the indices of the complex before it."""

    def __init__(self, complex, source, steps):
        self.complex, self.source, self.steps = complex, source, steps

    def push(self, g):
        """to_min o g, replaying the steps on slices."""
        comps = dict(g.components)
        for n, rows, keep_src, keep_tgt, gamma_phi_inv, _ in self.steps:
            if n in comps:
                m = comps[n]
                comps[n] = m.submatrix(keep_src, range(m.cols))
            if n + 1 in comps:
                m = comps[n + 1]
                every = range(m.cols)
                comps[n + 1] = m.submatrix(keep_tgt, every) - gamma_phi_inv.compose(m.submatrix(rows, every))
        return ChainMap(g.source, self.complex, comps)

    def pull(self, h):
        """h o from_min, replaying the steps on slices."""
        comps = dict(h.components)
        for n, _rows, keep_src, keep_tgt, _, (cols, phi_inv, beta) in self.steps:
            if n in comps:
                m = comps[n]
                every = range(m.rows)
                comps[n] = m.submatrix(every, keep_src) - m.submatrix(every, cols).compose(phi_inv).compose(beta)
            if n + 1 in comps:
                m = comps[n + 1]
                comps[n + 1] = m.submatrix(range(m.rows), keep_tgt)
        return ChainMap(self.complex, h.target, comps)

    @property
    def to_min(self):
        return self.push(ChainMap.identity(self.source))

    @property
    def from_min(self):
        return self.pull(ChainMap.identity(self.source))


def former_minimize(X):
    """Minimal model of X by one sliced Gauss step per degree, in increasing order."""
    cur, steps = X, []
    for n in sorted(X.differentials):
        rows, cols = former_pivots(cur.differential(n))
        if rows:
            cur, step = former_cancel(cur, n, rows, cols)
            steps.append(step)
    return FormerMinimizeResult(cur, X, steps)


def former_pivots(d):
    """The unit block of d that the row-major Gauss loop takes, by a running RREF of every unit row."""
    fld = d.algebra.field
    units = {}
    for (i, j), t in d.cells.items():
        for p, c in t.items():
            if not p.arrows:
                units.setdefault(i, [fld.zero] * d.cols)[j] = c
    red, pivs, rows, cols = [], [], [], []
    for i, row in sorted(units.items()):
        if extend_rref(fld, red, pivs, row):
            rows.append(i)
            cols.append(next(c for c in pivs if c not in cols))
    return rows, cols


def former_cancel(X, n, rows, cols):
    """(Y, step): X with the block d^n[rows, cols] cancelled, by four slices of d^n and a new complex."""
    d = X.differential(n)
    src, tgt = X.component(n), X.component(n + 1)
    keep_src = [c for c in range(d.cols) if c not in cols]
    keep_tgt = [r for r in range(d.rows) if r not in rows]
    beta = d.submatrix(rows, keep_src)
    phi_inv = d.submatrix(rows, cols).invert()
    gamma_phi_inv = d.submatrix(keep_tgt, cols).compose(phi_inv)
    comps, diffs = dict(X.components), dict(X.differentials)
    comps[n], comps[n + 1] = tuple(src[c] for c in keep_src), tuple(tgt[r] for r in keep_tgt)
    diffs[n] = d.submatrix(keep_tgt, keep_src) - gamma_phi_inv.compose(beta)
    if n - 1 in diffs:
        diffs[n - 1] = diffs[n - 1].submatrix(keep_src, range(diffs[n - 1].cols))
    if n + 1 in diffs:
        diffs[n + 1] = diffs[n + 1].submatrix(range(diffs[n + 1].rows), keep_tgt)
    return ProjComplex(X.algebra, comps, diffs), (n, rows, keep_src, keep_tgt, gamma_phi_inv, (cols, phi_inv, beta))


def former_enumerate_paths(quiver):
    """The paths of an acyclic quiver, sorted by length, arrow indices and source vertex index."""
    paths = [Path(v, v, ()) for v in quiver.vertices]
    frontier = list(paths)
    while frontier:
        new = []
        for p in frontier:
            for a in quiver.arrows:
                if a.source == p.target:
                    new.append(Path(p.source, a.target, p.arrows + (a.name,)))
        paths.extend(new)
        frontier = new
    arrow_index = {a.name: i for i, a in enumerate(quiver.arrows)}
    vertex_index = {v: i for i, v in enumerate(quiver.vertices)}
    return sorted(paths, key=lambda p: (p.length, tuple(arrow_index[n] for n in p.arrows), vertex_index[p.source]))


def former_compose_paths(alg, p, q):
    """p*q, built as a new path and interned in the basis of `alg`; None when not composable."""
    if p.target != q.source:
        return None
    pq = Path(p.source, q.target, p.arrows + q.arrows)
    i = alg.basis_index.get(pq)
    return pq if i is None else alg.basis[i]


def former_product(alg, left, right):
    """The cells of left x right, as `PathMatrix._product` takes and gives them, term pair by term pair."""
    fld = alg.field
    sums = {}
    for (i, k), a in left.items():
        for j, b in right.get(k, ()):
            acc = sums.setdefault((i, j), {})
            for p, cp in a.items():
                for q, cq in b.items():
                    pq = former_compose_paths(alg, p, q)
                    if pq is not None:
                        c = fld.mul(cp, cq)
                        acc[pq] = c if pq not in acc else fld.add(acc[pq], c)
    parts = ((ij, {p: c for p, c in acc.items() if not fld.is_zero(c)}) for ij, acc in sums.items())
    return {ij: t for ij, t in parts if t}


def former_opposite_complex(X, op_algebra):
    """X over the opposite algebra: degrees negated, differentials transposed, each path built reversed and interned."""
    def reversed_path(p):
        path = Path(p.target, p.source, p.arrows[::-1])
        i = op_algebra.basis_index.get(path)
        return path if i is None else op_algebra.basis[i]

    diffs = {
        -n - 1: PathMatrix._of(op_algebra, d.col_vertices, d.row_vertices, {
            (j, i): {reversed_path(p): c for p, c in t.items()} for (i, j), t in d.cells.items()})
        for n, d in X.differentials.items()
    }
    return ProjComplex(op_algebra, {-n: tuple(vs) for n, vs in X.components.items()}, diffs)
