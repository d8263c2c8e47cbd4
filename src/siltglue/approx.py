"""Envelopes and precovers with respect to shifts of a fixed set of complexes.

Given a finite set T of complexes, this module builds add(T)[s]-preenvelopes
from Hom-basis representatives, minimizes them by greedy deletion, and runs
the inductive construction of the susp(T)-envelope triangle V -> M -> U via
homotopy pushouts.  All certificates are exact.
"""

from .complexes import (
    ChainMap,
    PathMatrix,
    ProjComplex,
    Triangle,
    cocone,
    cone,
    direct_sum,
    minimize,
    shift,
    shift_map,
)
from .homs import HomSpace, hom_dim, hom_window, s_sup
from .linalg import row_space_rref, in_row_space


class ApproxError(RuntimeError):
    pass


class Preenvelope:
    """A map f: M -> F into add(T)[s] together with its provenance.

    `copies` lists, per target summand block, the index into T and the
    representative index it came from (deletion order follows this list).
    """

    __slots__ = ("f", "T_list", "s", "copies", "minimal")

    def __init__(self, f, T_list, s, copies, minimal=False):
        self.f = f
        self.T_list = T_list
        self.s = s
        self.copies = copies
        self.minimal = minimal

    @property
    def source(self):
        return self.f.source

    @property
    def target(self):
        return self.f.target

    def cocone_triangle(self):
        return cocone(self.f)


def add_shift_preenvelope(M, T_list, s):
    """Preenvelope of M in add(T)[s]: one target copy per Hom representative."""
    alg = M.algebra
    F = ProjComplex.zero(alg)
    comps = {}
    copies = []
    for ti, T in enumerate(T_list):
        reps = HomSpace(M, T, s).basis_maps()
        for ri, r in enumerate(reps):
            Ts = r.target  # T[s]
            newF = direct_sum(F, Ts)
            new_comps = {}
            for n in set(comps) | set(r.components):
                top = comps.get(n)
                if top is None:
                    top = PathMatrix.zero(alg, F.component(n), M.component(n))
                bot = r.component(n)
                new_comps[n] = PathMatrix.vstack(top, bot)
            F, comps = newF, new_comps
            copies.append((ti, ri))
    f = ChainMap(M, F, comps)
    return Preenvelope(f, list(T_list), s, copies)


def _restrict_target(pre, keep):
    """Preenvelope obtained by dropping target copies not in `keep`."""
    alg = pre.source.algebra
    T_list, s = pre.T_list, pre.s
    F = ProjComplex.zero(alg)
    blocks = []  # per kept copy: (start per degree) -- rebuild instead
    kept_copies = [pre.copies[i] for i in keep]
    # summand index ranges per copy, per degree
    offsets = {}
    pos = {}
    for ci, (ti, _) in enumerate(pre.copies):
        Ts = shift(T_list[ti], s)
        for n, vs in Ts.components.items():
            start = pos.get(n, 0)
            offsets[(ci, n)] = (start, start + len(vs))
            pos[n] = start + len(vs)
        F = direct_sum(F, Ts)
    index_map = {}
    for n in F.components:
        idx = []
        for ci in keep:
            rng = offsets.get((ci, n))
            if rng:
                idx.extend(range(rng[0], rng[1]))
        index_map[n] = idx
    newF = ProjComplex.zero(alg)
    for ci in keep:
        newF = direct_sum(newF, shift(T_list[pre.copies[ci][0]], s))
    comps = {}
    for n in pre.f.components:
        m = pre.f.component(n)
        rows = index_map.get(n, [])
        if rows:
            comps[n] = m.submatrix(rows, range(m.cols))
    f = ChainMap(pre.source, newF, comps, check=False)
    f.check_chain_condition()
    return Preenvelope(f, T_list, s, kept_copies, pre.minimal)


def _is_preenvelope(f, T_list, s):
    """Does every map M -> T_i[s] factor through f up to homotopy?"""
    M, F = f.source, f.target
    for T in T_list:
        hsM = HomSpace(M, T, s)
        if hsM.dim == 0:
            continue
        hsF = HomSpace(F, T, s)
        span = []
        for g in hsF.basis_maps():
            span.append(hsM.coordinates(g.compose(f)))
        fld = M.algebra.field
        rows, pivs = row_space_rref(fld, span)
        for i in range(hsM.dim):
            e = [fld.one if j == i else fld.zero for j in range(hsM.dim)]
            if not in_row_space(fld, rows, pivs, e):
                return False
    return True


def left_minimize(pre):
    """Greedily delete target copies while the preenvelope property holds."""
    cur = pre
    changed = True
    while changed:
        changed = False
        for i in range(len(cur.copies)):
            keep = [j for j in range(len(cur.copies)) if j != i]
            cand = _restrict_target(cur, keep)
            if _is_preenvelope(cand.f, cur.T_list, cur.s):
                cur = cand
                changed = True
                break
    return Preenvelope(cur.f, cur.T_list, cur.s, cur.copies, minimal=True)


def check_left_minimality(pre):
    """Every g in End(target) with g o f ~ f must be an isomorphism.

    The solutions form an affine subspace; a spanning set is the particular
    solution plus its translates by a kernel basis.
    """
    f = pre.f
    F = f.target
    if F.is_zero():
        return f.source.is_zero() or f.is_zero()
    endF = HomSpace(F, F, 0)
    hsMF = HomSpace(f.source, F, 0)
    fld = f.source.algebra.field
    target_vec = hsMF.coordinates(f)
    # linear map End(F) -> Hom(M, F), g |-> g o f, in the representative bases
    from .linalg import Matrix, solve, kernel_basis

    cols = []
    basis = endF.basis_maps()
    for g in basis:
        cols.append(hsMF.coordinates(g.compose(f)))
    mat = Matrix(fld, [[cols[c][r] for c in range(len(cols))] for r in range(hsMF.dim)], cols=len(cols))
    x0 = solve(mat, target_vec)
    if x0 is None:
        return False
    ker = kernel_basis(mat)
    candidates = [x0] + [[fld.add(a, b) for a, b in zip(x0, k)] for k in ker]
    for coeffs in candidates:
        g = ChainMap.zero(F, F)
        for c, bmap in zip(coeffs, basis):
            if not fld.is_zero(c):
                g = g + bmap.scale(c)
        if not minimize(cone(g).Z).complex.is_zero():
            return False
    return True


def factors_through(f, t):
    """Does t: M -> W factor as w o f up to homotopy, for f: M -> U?"""
    M, U, W = f.source, f.target, t.target
    hsMW = HomSpace(M, W, 0)
    try:
        tvec = hsMW.coordinates(t)
    except ValueError:
        return False
    fld = M.algebra.field
    span = []
    for w in HomSpace(U, W, 0).basis_maps():
        span.append(hsMW.coordinates(w.compose(f)))
    rows, pivs = row_space_rref(fld, span)
    return in_row_space(fld, rows, pivs, tvec)


class EnvelopeResult:
    """Triangle V -> M -> U with U built from non-negative shifts of T.

    `trace` records, outermost first, the (shift, target summand multiset)
    of each minimal add(T)[s]-envelope layer used in the construction, so
    membership of U in add(T) * add(T)[1] * ... * add(T)[s] is explicit.
    """

    __slots__ = ("M", "U", "V", "f", "v_map", "s", "trace", "certificates")

    def __init__(self, M, U, V, f, v_map, s, trace, certificates):
        self.M = M
        self.U = U
        self.V = V
        self.f = f          # M -> U
        self.v_map = v_map  # V -> M
        self.s = s
        self.trace = trace
        self.certificates = certificates

    def triangle(self):
        return Triangle(self.V, self.M, self.U, self.v_map, self.f)


def indecomposable_refinement(T_list, seed=0):
    """Replace each member by its indecomposable summands.

    The additive hull add(T) is unchanged, but greedy copy-deletion in
    left_minimize / right_minimize then reaches a genuinely minimal
    approximation.  Falls back to the input over fields where splitting
    is unavailable.
    """
    from .decompose import DecomposeError, decompose

    out = []
    for T in T_list:
        if T.is_zero():
            continue
        try:
            parts = decompose(T, seed=seed)
        except DecomposeError:
            out.append(T)
            continue
        out.extend(X for X, _mult, _cert in parts)
    return out


def _susp_envelope_stage(M, T_list, bound):
    """Inductive stage: returns (f: M -> U, U, trace). s must drop each call."""
    s = s_sup(M, T_list)
    if s is None:
        Z = ProjComplex.zero(M.algebra)
        return ChainMap.zero(M, Z), Z, []
    if bound is not None and s >= bound:
        raise ApproxError(f"statistic failed to decrease: {s} >= {bound}")
    pre = left_minimize(add_shift_preenvelope(M, T_list, s))
    h = pre.f
    layer = (s, tuple(sorted((ti for ti, _ in pre.copies))))
    tri = cocone(h)  # C -> M -> F
    C, u = tri.X, tri.u
    Cm = minimize(C)
    u2 = u.compose(Cm.from_min)
    g, E, sub_trace = _susp_envelope_stage(Cm.complex, T_list, s)
    # homotopy pushout: X = cone of (g, -u): C -> E (+) M
    EM = direct_sum(E, M)
    comps = {}
    for n in set(g.components) | set(u2.components):
        comps[n] = PathMatrix.vstack(g.component(n), -u2.component(n))
    gu = ChainMap(Cm.complex, EM, comps)
    ctri = cone(gu)
    X = ctri.Z
    # f: M -> X through the M slot of E (+) M
    incl = {}
    alg = M.algebra
    for n, vs in M.components.items():
        zc = PathMatrix.zero(alg, Cm.complex.component(n + 1), vs)
        ze = PathMatrix.zero(alg, E.component(n), vs)
        incl[n] = PathMatrix.vstack(PathMatrix.vstack(zc, ze), PathMatrix.identity(alg, vs))
    fX = ChainMap(M, X, incl)
    Xm = minimize(X)
    return Xm.to_min.compose(fX), Xm.complex, [layer] + sub_trace


def susp_envelope(M, T_list, certify=True, seed=0):
    """Envelope triangle V -> M -> U with U in susp(T), V left-orthogonal.

    The statistic s = s_sup(M, T) strictly decreases through the recursion;
    the construction follows the iterated homotopy-pushout scheme.  When
    `certify` is set the orthogonality Hom(V, T_i[k]) = 0 for all k >= 0 is
    checked exactly over the support window.  `seed` drives the splitting
    of T into indecomposable summands.
    """
    s = s_sup(M, T_list)
    f, U, trace = _susp_envelope_stage(M, indecomposable_refinement(T_list, seed), None)
    tri = cocone(f)
    Vm = minimize(tri.X)
    V = Vm.complex
    v_map = tri.u.compose(Vm.from_min)
    certs = {}
    if certify:
        bad = []
        for i, T in enumerate(T_list):
            _, whi = hom_window(V, T)
            for k in range(0, whi + 1):
                d = hom_dim(V, T, k)
                if d:
                    bad.append((i, k, d))
        certs["cocone_orthogonal"] = not bad
        certs["orthogonality_failures"] = bad
        certs["layers"] = trace
        if bad:
            raise ApproxError(f"envelope cocone not orthogonal: {bad}")
    return EnvelopeResult(M, U, V, f, v_map, s, trace, certs)


def _t_sup_dual(M, T_list):
    """sup{k >= 0 : Hom(T_i, M[k]) != 0 for some i}, or None."""
    best = None
    for T in T_list:
        _, whi = hom_window(T, M)
        for k in range(0, whi + 1):
            if (best is None or k > best) and hom_dim(T, M, k) > 0:
                best = k
    return best


def _add_shift_precover(M, T_list, s):
    """Precover h: F -> M with F in add(T)[-s], one copy per representative."""
    alg = M.algebra
    F = ProjComplex.zero(alg)
    comps = {}
    copies = []
    for ti, T in enumerate(T_list):
        reps = HomSpace(T, M, s).basis_maps()  # T -> M[s]
        for ri, r in enumerate(reps):
            rm = shift_map(r, -s)  # T[-s] -> M
            Ts = rm.source
            newF = direct_sum(F, Ts)
            new_comps = {}
            for n in set(comps) | set(rm.components):
                left = comps.get(n)
                if left is None:
                    left = PathMatrix.zero(alg, M.component(n), F.component(n))
                new_comps[n] = PathMatrix.hstack(left, rm.component(n))
            F, comps = newF, new_comps
            copies.append((ti, ri))
    h = ChainMap(F, M, comps)
    return h, copies


def _restrict_source(h, T_list, s, copies, keep):
    alg = h.target.algebra
    offsets = {}
    pos = {}
    for ci, (ti, _) in enumerate(copies):
        Ts = shift(T_list[ti], -s)
        for n, vs in Ts.components.items():
            start = pos.get(n, 0)
            offsets[(ci, n)] = (start, start + len(vs))
            pos[n] = start + len(vs)
    newF = ProjComplex.zero(alg)
    for ci in keep:
        newF = direct_sum(newF, shift(T_list[copies[ci][0]], -s))
    index_map = {}
    for n in h.source.components:
        idx = []
        for ci in keep:
            rng = offsets.get((ci, n))
            if rng:
                idx.extend(range(rng[0], rng[1]))
        index_map[n] = idx
    comps = {}
    for n in h.components:
        m = h.component(n)
        cols = index_map.get(n, [])
        if cols:
            comps[n] = m.submatrix(range(m.rows), cols)
    f = ChainMap(newF, h.target, comps, check=False)
    f.check_chain_condition()
    return f, [copies[i] for i in keep]


def _is_precover(h, T_list, s):
    """Does every map T_i[-s] -> M factor through h up to homotopy?"""
    F, M = h.source, h.target
    for T in T_list:
        Ts = shift(T, -s)
        hsTM = HomSpace(Ts, M, 0)
        if hsTM.dim == 0:
            continue
        span = []
        for g in HomSpace(Ts, F, 0).basis_maps():
            span.append(hsTM.coordinates(h.compose(g)))
        fld = M.algebra.field
        rows, pivs = row_space_rref(fld, span)
        for i in range(hsTM.dim):
            e = [fld.one if j == i else fld.zero for j in range(hsTM.dim)]
            if not in_row_space(fld, rows, pivs, e):
                return False
    return True


def right_minimize(h, T_list, s, copies):
    changed = True
    while changed:
        changed = False
        for i in range(len(copies)):
            keep = [j for j in range(len(copies)) if j != i]
            cand, cand_copies = _restrict_source(h, T_list, s, copies, keep)
            if _is_precover(cand, T_list, s):
                h, copies = cand, cand_copies
                changed = True
                break
    return h, copies


def _cosusp_precover_stage(M, T_list, bound):
    """Returns (f: V -> M, V, trace) with V in the cosuspended hull of T."""
    s = _t_sup_dual(M, T_list)
    if s is None:
        Z = ProjComplex.zero(M.algebra)
        return ChainMap.zero(Z, M), Z, []
    if bound is not None and s >= bound:
        raise ApproxError(f"statistic failed to decrease: {s} >= {bound}")
    h, copies = _add_shift_precover(M, T_list, s)
    h, copies = right_minimize(h, T_list, s, copies)
    layer = (-s, tuple(sorted(ti for ti, _ in copies)))
    tri = cone(h)  # F -> M -> C
    C, v = tri.Z, tri.v
    Cm = minimize(C)
    v2 = Cm.to_min.compose(v)
    g, E, sub_trace = _cosusp_precover_stage(Cm.complex, T_list, s)
    # homotopy pullback: X = cocone of (g, -v): E (+) M -> C
    EM = direct_sum(E, M)
    comps = {}
    for n in set(g.components) | set(v2.components):
        comps[n] = PathMatrix.hstack(g.component(n), -v2.component(n))
    gv = ChainMap(EM, Cm.complex, comps)
    ctri = cocone(gv)
    X = ctri.X
    # f: X -> M through the M slot of E (+) M
    proj = {}
    alg = M.algebra
    for n in X.components:
        pe = PathMatrix.zero(alg, M.component(n), E.component(n))
        pm = PathMatrix.identity(alg, M.component(n))
        pc = PathMatrix.zero(alg, M.component(n), Cm.complex.component(n - 1))
        proj[n] = PathMatrix.hstack(PathMatrix.hstack(pe, pm), pc)
    fX = ChainMap(X, M, proj)
    Xm = minimize(X)
    return fX.compose(Xm.from_min), Xm.complex, [layer] + sub_trace


def cosusp_precover(M, T_list, certify=True, seed=0):
    """Precover triangle V -> M -> U with V in cosusp(T), U right-orthogonal.

    Mirror of susp_envelope with all arrows reversed; the certificate checks
    Hom(T_i, U[k]) = 0 for all k >= 0 over the window.
    """
    f, V, trace = _cosusp_precover_stage(M, indecomposable_refinement(T_list, seed), None)
    tri = cone(f)  # V -> M -> U
    Um = minimize(tri.Z)
    U = Um.complex
    u_map = Um.to_min.compose(tri.v)
    certs = {}
    if certify:
        bad = []
        for i, T in enumerate(T_list):
            _, whi = hom_window(T, U)
            for k in range(0, whi + 1):
                d = hom_dim(T, U, k)
                if d:
                    bad.append((i, k, d))
        certs["cone_orthogonal"] = not bad
        certs["orthogonality_failures"] = bad
        certs["layers"] = trace
        if bad:
            raise ApproxError(f"precover cone not orthogonal: {bad}")
    return EnvelopeResult(M, U, V, u_map, f, _t_sup_dual(M, T_list), trace, certs)


def weakly_preenveloping_check(T_list, probes):
    """For each probe M: finite s_sup and a certified add(T)[s]-preenvelope."""
    report = []
    for M in probes:
        s = s_sup(M, T_list)
        if s is None:
            report.append({"s": None, "target_summands": 0, "ok": True})
            continue
        pre = left_minimize(add_shift_preenvelope(M, T_list, s))
        ok = _is_preenvelope(pre.f, T_list, s)
        report.append(
            {"s": s, "target_summands": pre.f.target.summand_count(), "ok": ok}
        )
    return report
