"""Verifiers that only the tests use: triangle closure, boundaries, factorization, minimality.

They recompute a claim from Hom spaces built afresh and never feed back
into the library.  The benchmark's oracle lives apart, in `oracle.py`.
"""

from fractions import Fraction

from former import cone
from siltglue.approx import add_shift_preenvelope, left_minimize
from siltglue.complexes import ChainMap, PathMatrix, minimize, shift
from siltglue.homs import HomSpace, s_sup
from siltglue.linalg import Matrix, in_row_space, kernel_basis, row_space_rref, solve


def is_q_scalar(x):
    """A Q scalar in its one representation: an int when integral, else a Fraction with denominator > 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def cone_projection(f):
    """The degreewise projection C(f) -> X[1] closing the triangle."""
    C = cone(f)
    X = f.source
    X1 = shift(X, 1)
    alg = X.algebra
    comps = {}
    for n in C.components:
        vs = X.component(n + 1)
        comps[n] = PathMatrix.blocks(alg, (vs,), (vs, f.target.component(n)), {(0, 0): PathMatrix.identity(alg, vs)})
    return ChainMap(C, X1, comps)


def boundary(hs, hcomps):
    """d_Z o h + h o d_X for a degreewise h: X -> Z of degree -1, where Z = Y[k] of `hs`."""
    X, Z = hs.X, hs.Z
    out = {}
    for n in set(X.components) | {m - 1 for m in hcomps}:
        hn = hcomps.get(n)
        hn1 = hcomps.get(n + 1)
        a = Z.differential(n - 1).compose(hn) if hn is not None else None
        b = hn1.compose(X.differential(n)) if hn1 is not None else None
        if a is None and b is None:
            continue
        if a is None:
            a = PathMatrix.zero(X.algebra, b.row_vertices, b.col_vertices)
        if b is None:
            b = PathMatrix.zero(X.algebra, a.row_vertices, a.col_vertices)
        s = a + b
        if not s.is_zero():
            out[n] = s
    return out


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
        if not minimize(cone(g)).complex.is_zero():
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


def certify_preenvelope(f, T_list, s):
    """Does every map M -> T_i[s] factor through f up to homotopy?

    Checked on the assembled map: Hom(F, T_i[s]) is built for the target F
    of f and composed with f.
    """
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


def weakly_preenveloping_check(T_list, probes):
    """For each probe M: finite s_sup and a certified add(T)[s]-preenvelope."""
    report = []
    for M in probes:
        s = s_sup(M, T_list)
        if s is None:
            report.append({"s": None, "target_summands": 0, "ok": True})
            continue
        pre = left_minimize(add_shift_preenvelope(M, T_list, s))
        ok = certify_preenvelope(pre.f, T_list, s)
        report.append(
            {"s": s, "target_summands": pre.f.target.summand_count(), "ok": ok}
        )
    return report


def reference_pivots(d):
    """The unit block `minimize` cancels, by the Gauss loop on the scalar part it replaced.

    Again and again the first unit entry in row-major order is taken, and
    its row and column are cleared from the rest of the scalar part.
    """
    fld = d.algebra.field
    s = d.scalar_part()
    rows, cols = list(range(d.rows)), list(range(d.cols))
    piv_rows, piv_cols = [], []
    while True:
        hit = next(((a, b) for a, row in enumerate(s) for b, x in enumerate(row) if not fld.is_zero(x)), None)
        if hit is None:
            return piv_rows, piv_cols
        a, b = hit
        piv_rows.append(rows.pop(a))
        piv_cols.append(cols.pop(b))
        top = s.pop(a)
        inv = fld.inv(top.pop(b))
        for row in s:
            f = row.pop(b)
            if not fld.is_zero(f):
                f = fld.mul(f, inv)
                for c, x in enumerate(top):
                    if not fld.is_zero(x):
                        row[c] = fld.sub(row[c], fld.mul(f, x))
