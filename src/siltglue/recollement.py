"""Recollements induced by vertex idempotents e = sum of e_v, v in S.

For a subset S of vertices with no arrow from S into its complement, the
quotient B = A/AeA and the corner C = eAe are again path algebras (on the
full subquivers).  j_! and i^* re-read differential entries in another
algebra (`_over`); i_* replaces each quotient projective P_v by its
two-term resolution, whose generators are the first-entry paths from v
into S (the combinatorial syzygies of Green-Happel-Zacharia).
"""

from .quiver import build_algebra
from .complexes import PathMatrix, ProjComplex, minimize, subcomplex_on_indices


class RecollementError(ValueError):
    pass


class IdempotentRecollement:
    """Validated idempotent recollement data for a vertex subset S.

    `resolutions[v]`, for v outside S, lists in basis order the first-entry
    paths from v: the paths that end in S and whose last arrow starts
    outside S.  No arrow leaves S, so a path touches S exactly when it ends
    there, and every such path from v factors uniquely as p * r with p
    first-entry.  Left multiplication by them gives the exact two-term
    resolution 0 -> (+)_p P_{t(p)} -> P_v of the B-projective P_v.
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
        self.resolutions = {}
        for v in comp:
            into = [q for q in A.basis if q.source == v and q.target in sset]
            firsts = [q for q in into if A.quiver.arrow_by_name[q.arrows[-1]].source not in sset]
            # exactness by dimension count: the products p * r span the paths into S
            span = sum(sum(1 for r in A.basis if r.source == p.target) for p in firsts)
            if span != len(into):
                raise RecollementError(
                    f"resolution table for {v} is not exact: {span} != {len(into)}"
                )
            self.resolutions[v] = firsts

    def __repr__(self):
        return f"IdempotentRecollement(S={list(self.S)})"


def idempotent_recollement(A, S):
    return IdempotentRecollement(A, S)


def _over(m, algebra):
    """The path matrix `m` read in `algebra`, which contains all its paths.

    Each path becomes the target algebra's own basis object, as in
    `complexes._op_matrix`, so dict lookups on it match by identity.
    """
    paths = algebra.basis_path
    cells = {ij: {paths[p]: c for p, c in t.items()} for ij, t in m.cells.items()}
    return PathMatrix._of(algebra, m.row_vertices, m.col_vertices, cells)


def j_lower_shriek(rec, X):
    """Extension by zero: relabel a C-complex as an A-complex verbatim.

    Valid because no path leaves S, so e_w C e_v = e_w A e_v for v, w in S.
    """
    if X.algebra is not rec.C and X.algebra != rec.C:
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
    resolution.  Each differential is the block matrix [[d_Y, res], [0,
    lift]]: `res` holds p at row j of slot (j, p), and `lift` has
    -c * e_{t(p)} at row (i, q * p) for each term c * q of d_Y^{m+1}[i][j].
    A term q of d_Y never touches S, so q * p is again a first-entry path.
    The total complex is checked, since d^2 = 0 rests on the lift, and then
    minimized.
    """
    if Y.algebra is not rec.B and Y.algebra != rec.B:
        raise RecollementError("expected a complex over the quotient algebra")
    A = rec.A
    if Y.is_zero():
        return ProjComplex.zero(A)
    one, neg = A.field.one, A.field.neg
    dY = {n: _over(d, A) for n, d in Y.differentials.items()}
    slots = {
        n: [(j, p) for j, v in enumerate(Y.component(n)) for p in rec.resolutions[v]] for n in range(Y.lo, Y.hi + 2)
    }
    # degree m in two blocks: P(Y^m) and the syzygies of Y^{m+1}
    parts = {m: (Y.component(m), tuple(p.target for _j, p in slots[m + 1])) for m in range(Y.lo - 1, Y.hi + 1)}
    diffs = {}
    for m in range(Y.lo - 1, Y.hi):
        (_, syz_cols), (y_rows, syz_rows) = parts[m], parts[m + 1]
        row_of = {slot: r for r, slot in enumerate(slots[m + 2])}
        d_cols = dY[m + 1].lines(1) if m + 1 in dY else {}
        res, lift = {}, {}
        for col, (j, p) in enumerate(slots[m + 1]):
            res[j, col] = {p: one}
            for i, terms in d_cols.get(j, ()):
                for q, c in terms.items():
                    lift[row_of[i, A.compose_paths(q, p)], col] = {A.trivial_path(p.target): neg(c)}
        blocks = {(0, 1): PathMatrix._of(A, y_rows, syz_cols, res), (1, 1): PathMatrix._of(A, syz_rows, syz_cols, lift)}
        if m in dY:
            blocks[0, 0] = dY[m]
        diffs[m] = PathMatrix.blocks(A, parts[m + 1], parts[m], blocks)
    total = ProjComplex(A, {m: sum(part, ()) for m, part in parts.items()}, diffs)
    total.check()
    return minimize(total).complex


def i_upper_star(rec, Z):
    """Quotient functor: delete P_v summands with v in S, keep the rest.

    Paths between complement vertices never touch S (arrows cannot re-exit),
    so the surviving differential entries are read in B verbatim.
    """
    if Z.algebra is not rec.A and Z.algebra != rec.A:
        raise RecollementError("expected a complex over the ambient algebra")
    sset = set(rec.S)
    outside = {n: [i for i, v in enumerate(vs) if v not in sset] for n, vs in Z.components.items()}
    kept = subcomplex_on_indices(Z, outside)
    return ProjComplex(rec.B, kept.components, {n: _over(d, rec.B) for n, d in kept.differentials.items()})
