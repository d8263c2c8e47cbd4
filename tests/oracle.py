"""Independent brute-force Hom-dimension solver used as a test oracle, and
the differentials of the Hom complex built one unit map at a time.

Deliberately avoids the library's linear algebra and Hom machinery: it
flattens the chain-map and homotopy conditions into plain scalar matrices
with its own little Gaussian elimination, and multiplies paths by direct
tuple concatenation.
"""


def _rank(field, rows):
    if not rows:
        return 0
    m = [list(r) for r in rows]
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if not field.is_zero(m[r][col]):
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.mul(inv, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and not field.is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _paths_from_to(alg, src, tgt):
    return [p for p in alg.basis if p.source == src and p.target == tgt]


def _concat(alg, p, q):
    if p.target != q.source:
        return None
    from siltglue.quiver import Path

    return Path(p.source, q.target, p.arrows + q.arrows)


def _graded_map_vars(alg, X, Z, deg):
    """Variables of a degree-`deg` graded map X -> Z: (n, i, j, path)."""
    out = []
    for n in sorted(set(X.components)):
        src = X.component(n)
        tgt = Z.component(n + deg)
        for i, w in enumerate(tgt):
            for j, v in enumerate(src):
                for p in _paths_from_to(alg, w, v):
                    out.append((n, i, j, p))
    return out


def _apply_left(alg, dmat, n_slot, i, j, p, target_deg_comp):
    """Coefficients of (dmat o unit_{(i,j,p)}) in path coordinates.

    Returns {(row, col, path): coeff} of the composite, where the unit map
    sends source summand j to target summand i via path p.
    """
    out = {}
    for r in range(dmat.rows):
        entry = dmat.entries[r][i]
        for q, c in entry.terms.items():
            qp = _concat(alg, q, p)
            if qp is not None:
                out[(r, j, qp)] = out.get((r, j, qp), alg.field.zero)
                out[(r, j, qp)] = alg.field.add(out[(r, j, qp)], c)
    return out


def _apply_right(alg, i, j, p, dmat):
    """Coefficients of (unit_{(i,j,p)} o dmat)."""
    out = {}
    for c_ in range(dmat.cols):
        entry = dmat.entries[j][c_]
        for q, c in entry.terms.items():
            pq = _concat(alg, p, q)
            if pq is not None:
                out[(i, c_, pq)] = out.get((i, c_, pq), alg.field.zero)
                out[(i, c_, pq)] = alg.field.add(out[(i, c_, pq)], c)
    return out


def oracle_delta(X, Y, m):
    """delta^m of Hom•(X, Y) as dense rows, one unit map of Hom^m at a time.

    The row of the unit map u at (n, i, j, p) is d_Y u - (-1)^m u d_X in the
    coordinates of Hom^(m+1), summed term by term: the per-coordinate rule
    that the library replaces with action tables.  Coordinates are
    (n, i, j, path) in the library's order.
    """
    alg, field = X.algebra, X.algebra.field
    units, images = _graded_map_vars(alg, X, Y, m), _graded_map_vars(alg, X, Y, m + 1)
    index = {var: idx for idx, var in enumerate(images)}
    rows = []
    for n, i, j, p in units:
        row = [field.zero] * len(images)
        for (r, c_, q), coeff in _apply_left(alg, Y.differential(n + m), n, i, j, p, None).items():
            idx = index[n, r, c_, q]
            row[idx] = field.add(row[idx], coeff)
        for (r, c_, q), coeff in _apply_right(alg, i, j, p, X.differential(n - 1)).items():
            idx = index[n - 1, r, c_, q]
            row[idx] = field.add(row[idx], coeff if m % 2 else field.neg(coeff))
        rows.append(row)
    return rows


def oracle_hom_dim(X, Y, k):
    """dim Hom_{K^b}(X, Y[k]) by direct kernel/image dimension count."""
    from siltglue.complexes import shift

    alg = X.algebra
    field = alg.field
    Z = shift(Y, k)
    fvars = _graded_map_vars(alg, X, Z, 0)
    hvars = _graded_map_vars(alg, X, Z, -1)
    # equation coordinates: degree-(+1) graded maps X -> Z
    evars = _graded_map_vars(alg, X, Z, 1)
    eindex = {}
    for idx, (n, i, j, p) in enumerate(evars):
        eindex[(n, i, j, p)] = idx
    findex = {}
    for idx, (n, i, j, p) in enumerate(fvars):
        findex[(n, i, j, p)] = idx

    def defect_column(n, i, j, p):
        """d_Z f - f d_X applied to the unit variable, in e-coordinates."""
        col = [field.zero] * len(evars)
        dz = Z.differential(n)
        for (r, c_, q), coeff in _apply_left(alg, dz, n, i, j, p, None).items():
            key = (n, r, c_, q)
            if key in eindex:
                col[eindex[key]] = field.add(col[eindex[key]], coeff)
        dx = X.differential(n - 1)
        for (r, c_, q), coeff in _apply_right(alg, i, j, p, dx).items():
            key = (n - 1, r, c_, q)
            if key in eindex:
                col[eindex[key]] = field.sub(col[eindex[key]], coeff)
        return col

    # rank of the chain-condition map
    cc_rows = [defect_column(*var) for var in fvars]  # one row per f-variable
    cycles = len(fvars) - _rank(field, cc_rows)

    def boundary_column(n, i, j, p):
        """d_Z h + h d_X for the unit homotopy variable, in f-coordinates."""
        col = [field.zero] * len(fvars)
        dz = Z.differential(n - 1)
        for (r, c_, q), coeff in _apply_left(alg, dz, n, i, j, p, None).items():
            key = (n, r, c_, q)
            if key in findex:
                col[findex[key]] = field.add(col[findex[key]], coeff)
        dx = X.differential(n - 1)
        for (r, c_, q), coeff in _apply_right(alg, i, j, p, dx).items():
            key = (n - 1, r, c_, q)
            if key in findex:
                col[findex[key]] = field.add(col[findex[key]], coeff)
        return col

    b_rows = [boundary_column(*var) for var in hvars]
    boundaries = _rank(field, b_rows)
    return cycles - boundaries
