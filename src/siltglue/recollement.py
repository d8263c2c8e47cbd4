"""Recollements induced by vertex idempotents e = sum of e_v, v in S.

For a subset S of vertices with no arrow from S into its complement, the
quotient B = A/AeA and the corner C = eAe are again path algebras (on the
full subquivers).  j_! and i^* re-read differential entries in another
algebra (`_over`); i_* replaces each quotient projective by its two-term
resolution, read off one first-entry factorization table, `factor`.
"""

from .quiver import Path, build_algebra
from .complexes import PathMatrix, ProjComplex, minimize


class RecollementError(ValueError):
    pass


class IdempotentRecollement:
    """Validated idempotent recollement data for a vertex subset S.

    `factor[q]`, for each path q from a complement vertex that touches S, is
    (head, tail): head is the first-entry path of q (every interior vertex
    outside S, target in S) and q = head * tail.  Both are A's own basis
    paths.  The table is built once, and it is the only place that factors
    paths.  `resolutions[v]`, for v outside S, lists in basis order the
    heads with trivial tail from v; left multiplication by them gives the
    exact two-term resolution 0 -> (+)_p P_{t(p)} -> P_v of the
    B-projective P_v.
    """

    def __init__(self, A, S):
        S = [str(v) for v in S]
        unknown = [v for v in S if v not in A.quiver.vertex_index]
        if unknown:
            raise RecollementError(f"unknown vertex {unknown[0]!r}")
        if not S:
            raise RecollementError("S must be nonempty")
        if len(set(S)) == len(A.quiver.vertices):
            raise RecollementError("S must be a proper subset of the vertices")
        sset = set(S)
        for a in A.quiver.arrows:
            if a.source in sset and a.target not in sset:
                raise RecollementError(
                    f"arrow {a.name}: {a.source}->{a.target} leaves S; eA(1-e) != 0"
                )
        self.A = A
        self.S = tuple(v for v in A.quiver.vertices if v in sset)
        comp = [v for v in A.quiver.vertices if v not in sset]
        self.complement = tuple(comp)
        self.C = build_algebra(A.quiver.full_subquiver(self.S), A.field)
        self.B = build_algebra(A.quiver.full_subquiver(comp), A.field)
        self.factor = {}
        for q in A.basis:
            if q.source not in sset:
                fac = _first_entry_factor(A, sset, q)
                if fac is not None:
                    self.factor[q] = fac
        self.resolutions = {}
        for v in comp:
            firsts = [q for q, (_head, tail) in self.factor.items() if q.source == v and tail.is_trivial()]
            # exactness by dimension count: every path from v touching S
            # factors uniquely as (first-entry path) * (tail)
            touched = sum(1 for q in self.factor if q.source == v)
            span = sum(
                sum(1 for q in A.basis if q.source == p.target) for p in firsts
            )
            if span != touched:
                raise RecollementError(
                    f"resolution table for {v} is not exact: {span} != {touched}"
                )
            self.resolutions[v] = firsts

    def __repr__(self):
        return f"IdempotentRecollement(S={list(self.S)})"


def idempotent_recollement(A, S):
    return IdempotentRecollement(A, S)


def _first_entry_factor(A, sset, path):
    """Factor an A-path touching the vertex set `sset` as (first-entry path, tail)."""
    cur = path.source
    for i, name in enumerate(path.arrows):
        cur = A.quiver.arrow_by_name[name].target
        if cur in sset:
            head = Path(path.source, cur, path.arrows[: i + 1])
            tail = Path(cur, path.target, path.arrows[i + 1 :])
            return A._interned(head), A._interned(tail)
    return None


def _over(m, algebra):
    """The path matrix `m` read in `algebra`, which contains all its paths.

    Each path becomes the target algebra's own basis object, as in
    `complexes._op_matrix`, so dict lookups on it match by identity.
    """
    intern = algebra._interned
    cells = {ij: {intern(p): c for p, c in t.items()} for ij, t in m.cells.items()}
    return PathMatrix._of(algebra, m.row_vertices, m.col_vertices, cells)


def j_lower_shriek(rec, X):
    """Extension by zero: relabel a C-complex as an A-complex verbatim.

    Valid because no path leaves S, so e_w C e_v = e_w A e_v for v, w in S.
    """
    if X.algebra != rec.C:
        raise RecollementError("expected a complex over the corner algebra")
    for vs in X.components.values():
        for v in vs:
            if v not in rec.S:
                raise RecollementError(f"vertex {v} outside S")
    return ProjComplex(rec.A, X.components, {n: _over(d, rec.A) for n, d in X.differentials.items()})


def i_star(rec, Y):
    """Derived restriction i_* on a complex of B-projectives.

    Degree m of the total complex is P(Y^m) followed by the syzygy slots
    (j, p) of Y^{m+1}, one per summand j and first-entry path p of its
    resolution.  Each differential is [[d_Y, res], [0, -lift]]: the
    resolution block holds p at row j, and the syzygy lift has -c * tail
    at row (i, head) for each term c * q of d_Y^{m+1}[i][j], where
    (head, tail) = factor[q * p].  The total complex is checked, since
    d^2 = 0 rests on the factor table, and then minimized.
    """
    if Y.algebra != rec.B:
        raise RecollementError("expected a complex over the quotient algebra")
    A = rec.A
    if Y.is_zero():
        return ProjComplex.zero(A)
    fld, factor = A.field, rec.factor
    dY = {n: _over(d, A) for n, d in Y.differentials.items()}

    def slots(n):
        return [(j, p) for j, v in enumerate(Y.component(n)) for p in rec.resolutions[v]]

    comps = {}
    for m in range(Y.lo - 1, Y.hi + 1):
        vs = Y.component(m) + tuple(p.target for _j, p in slots(m + 1))
        if vs:
            comps[m] = vs
    diffs = {}
    for m in comps:
        if m + 1 not in comps:
            continue
        row_of = {slot: r for r, slot in enumerate(slots(m + 2), len(Y.component(m + 1)))}
        d_cols = dY[m + 1].lines(1) if m + 1 in dY else {}
        cells = dict(dY[m].cells) if m in dY else {}
        for col, (j, p) in enumerate(slots(m + 1), len(Y.component(m))):
            cells[j, col] = {p: fld.one}
            for i, terms in d_cols.get(j, ()):
                for q, c in terms.items():
                    head, tail = factor[A.compose_paths(q, p)]
                    cells.setdefault((row_of[i, head], col), {})[tail] = fld.neg(c)
        diffs[m] = PathMatrix._of(A, comps[m + 1], comps[m], cells)
    total = ProjComplex(A, comps, diffs)
    total.check()
    return minimize(total).complex


def i_upper_star(rec, Z):
    """Quotient functor: delete P_v summands with v in S, keep the rest.

    Paths between complement vertices never touch S (arrows cannot re-exit),
    so the surviving differential entries are read in B verbatim.
    """
    if Z.algebra != rec.A:
        raise RecollementError("expected a complex over the ambient algebra")
    sset = set(rec.S)
    comps = {}
    keep = {}
    for n, vs in Z.components.items():
        idx = [i for i, v in enumerate(vs) if v not in sset]
        keep[n] = idx
        if idx:
            comps[n] = tuple(vs[i] for i in idx)
    diffs = {}
    for n, d in Z.differentials.items():
        rows = keep.get(n + 1, [])
        cols = keep.get(n, [])
        if rows and cols:
            diffs[n] = _over(d.submatrix(rows, cols), rec.B)
    return ProjComplex(rec.B, comps, diffs)
