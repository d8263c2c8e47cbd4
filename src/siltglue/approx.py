"""Envelopes and precovers with respect to shifts of a fixed set of complexes.

Given a finite set T of complexes, this module builds add(T)[s]-preenvelopes
from Hom-basis representatives, minimizes them by greedy deletion, and runs
the inductive construction of the susp(T)-envelope triangle V -> M -> U via
homotopy pushouts.  The cosusp(T)-precover is the same construction over the
opposite algebra, transported back.  All certificates are exact.
"""

from .complexes import (
    ChainMap,
    PathMatrix,
    ProjComplex,
    cocone,
    cone,
    direct_sum,
    minimize,
    opposite_complex,
    opposite_map,
    shift,
)
from .decompose import DecomposeError, decompose
from .homs import HomSpace, hom_dim, hom_window, s_sup
from .linalg import Matrix, in_row_space, kernel_basis, row_space_rref, solve
from .quiver import build_algebra


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
    kept_copies = [pre.copies[i] for i in keep]
    # summand index ranges per copy, per degree
    offsets = {}
    pos = {}
    for ci, (ti, _) in enumerate(pre.copies):
        for n, vs in shift(T_list[ti], s).components.items():
            start = pos.get(n, 0)
            offsets[(ci, n)] = (start, start + len(vs))
            pos[n] = start + len(vs)
    index_map = {}
    for n in pos:
        idx = []
        for ci in keep:
            rng = offsets.get((ci, n))
            if rng:
                idx.extend(range(rng[0], rng[1]))
        index_map[n] = idx
    newF = ProjComplex.zero(alg)
    for ti, _ in kept_copies:
        newF = direct_sum(newF, shift(T_list[ti], s))
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


def indecomposable_refinement(T_list, seed=0):
    """Replace each member by its indecomposable summands.

    The additive hull add(T) is unchanged, but greedy copy-deletion in
    left_minimize then reaches a genuinely minimal approximation.  Falls
    back to the input over fields where splitting is unavailable.
    """
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
    u2 = Cm.pull(u)
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
    return Xm.push(fX), Xm.complex, [layer] + sub_trace


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
    v_map = Vm.pull(tri.u)
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


def cosusp_precover(M, T_list, certify=True, seed=0):
    """Precover triangle V -> M -> U with V in cosusp(T), U right-orthogonal.

    The susp envelope of op(M) by op(T) over the opposite algebra, read
    back over A: the duality reverses the triangle, so its V is op of the
    envelope's U and its U is op of the envelope's V, and each layer
    shift s becomes -s.  `s` is sup{k >= 0 : Hom(T_i, M[k]) != 0}.  When
    `certify` is set, Hom(T_i, U[k]) = 0 for all k >= 0 is checked exactly
    over A itself, over the support window.
    """
    A = M.algebra
    Aop = build_algebra(A.quiver.opposite(), A.field)
    env = susp_envelope(
        opposite_complex(M, Aop), [opposite_complex(T, Aop) for T in T_list], certify=False, seed=seed
    )
    V = opposite_complex(env.U, A)
    U = opposite_complex(env.V, A)
    v_map = opposite_map(env.f, M, V, A)
    u_map = opposite_map(env.v_map, U, M, A)
    trace = [(-s, tags) for s, tags in env.trace]
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
    return EnvelopeResult(M, U, V, u_map, v_map, env.s, trace, certs)


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
