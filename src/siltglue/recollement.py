"""Recollements induced by vertex idempotents e = sum of e_v, v in S.

For a subset S of vertices with no arrow from S into its complement, the
quotient B = A/AeA and the corner C = eAe are again path algebras (on the
full subquivers), and the derived functors j_!, i_*, i^* act on complexes of
projectives by explicit relabeling, resolution replacement, and truncation.
"""

from .quiver import Path, build_algebra
from .complexes import ComplexError, PathMatrix, ProjComplex, minimize


class RecollementError(ValueError):
    pass


class IdempotentRecollement:
    """Validated idempotent recollement data for a vertex subset S.

    `resolutions[v]`, for v outside S, lists the paths from v into S with all
    interior vertices outside S; left multiplication by them gives the exact
    two-term resolution 0 -> (+)_p P_{t(p)} -> P_v of the B-projective P_v.
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
            factors = [(p, _first_entry_factor(self, p)) for p in A.basis if p.source == v]
            firsts = [p for p, fac in factors if fac is not None and fac[1].is_trivial()]
            # exactness by dimension count: every path from v touching S
            # factors uniquely as (first-entry path) * (tail)
            touched = sum(1 for _p, fac in factors if fac is not None)
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


def _transport_element(x, target_algebra):
    """Move an element to an algebra sharing the arrow names of its paths."""
    terms = {}
    for p, c in x.terms.items():
        if p.is_trivial():
            q = target_algebra.trivial_path(p.source)
        else:
            q = target_algebra.path_of_arrows(p.arrows)
        terms[q] = c
    return target_algebra.element(terms)


def _transport_complex(X, target_algebra):
    comps = dict(X.components)
    diffs = {}
    for n, d in X.differentials.items():
        ents = [[_transport_element(x, target_algebra) for x in row] for row in d.entries]
        diffs[n] = PathMatrix(target_algebra, d.row_vertices, d.col_vertices, ents)
    return ProjComplex(target_algebra, comps, diffs)


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
    return _transport_complex(X, rec.A)


def _first_entry_factor(rec, path):
    """Factor an A-path touching S as (first-entry path, tail in A)."""
    A = rec.A
    sset = set(rec.S)
    cur = path.source
    for i, name in enumerate(path.arrows):
        cur = A.quiver.arrow_by_name[name].target
        if cur in sset:
            head = Path(path.source, cur, path.arrows[: i + 1])
            tail = Path(cur, path.target, path.arrows[i + 1 :])
            return head, tail
    return None


def i_star(rec, Y):
    """Derived restriction i_* on a complex of B-projectives.

    Each P_v is replaced by its two-term resolution; the differentials lift
    to the syzygy level by the unique first-entry factorization q*p = p'*r,
    and the total complex is assembled (syzygy-to-syzygy maps carry a minus
    sign so that d^2 = 0) and minimized.
    """
    if Y.algebra != rec.B:
        raise RecollementError("expected a complex over the quotient algebra")
    A = rec.A

    def syz_vertices(vs):
        out = []
        for v in vs:
            out.extend(p.target for p in rec.resolutions[v])
        return tuple(out)

    def syz_slots(vs):
        out = []
        for j, v in enumerate(vs):
            for p in rec.resolutions[v]:
                out.append((j, p))
        return out

    comps = {}
    degs = sorted(Y.components)
    if not degs:
        return ProjComplex.zero(A)
    for m in range(min(degs) - 1, max(degs) + 1):
        vs = tuple(Y.component(m)) + syz_vertices(Y.component(m + 1))
        # order: degree-0 parts (P_v for v in Y^m) first, then syzygies of Y^{m+1}
        if vs:
            comps[m] = vs

    def lift_syzygy(dmat, src_vs, tgt_vs):
        """Syzygy-level lift of a differential matrix of B-paths."""
        src = syz_slots(src_vs)
        tgt = syz_slots(tgt_vs)
        ents = [[A.zero_element() for _ in src] for _ in tgt]
        for si, (j, p) in enumerate(src):
            for ti, (i, pp) in enumerate(tgt):
                q = dmat.entries[i][j]  # B-elem, paths from tgt vertex to src vertex
                acc = A.zero_element()
                for qp, c in q.terms.items():
                    qa = _transport_element(rec.B.path_element(qp), A).terms
                    (qpa, _coef), = qa.items()
                    total = A.compose_paths(qpa, p)
                    fact = _first_entry_factor(rec, total)
                    assert fact is not None
                    head, tail = fact
                    if head == pp:
                        acc = acc + A.path_element(tail, c)
                ents[ti][si] = acc
        return PathMatrix(A, [pp.target for _, pp in tgt], [p.target for _, p in src], ents)

    diffs = {}
    for m in comps:
        if m + 1 not in comps:
            continue
        Ym = tuple(Y.component(m))
        Ym1 = tuple(Y.component(m + 1))
        Ym2 = tuple(Y.component(m + 2))
        dm = Y.differential(m)
        dm1 = Y.differential(m + 1)
        dA = PathMatrix(
            A,
            Ym1,
            Ym,
            [[_transport_element(x, A) for x in row] for row in dm.entries],
        )
        # block rows: [P(Y^{m+1}); Syz(Y^{m+2})], cols: [P(Y^m) | Syz(Y^{m+1})]
        res_block = PathMatrix.zero(A, Ym1, syz_vertices(Ym1))
        col = 0
        for j, v in enumerate(Ym1):
            for p in rec.resolutions[v]:
                res_block.entries[j][col] = A.path_element(p)
                col += 1
        top = PathMatrix.hstack(dA, res_block)
        syzlift = lift_syzygy(dm1, Ym1, Ym2)
        bot = PathMatrix.hstack(
            PathMatrix.zero(A, syz_vertices(Ym2), Ym), -syzlift
        )
        diffs[m] = PathMatrix.vstack(top, bot)
    tot = ProjComplex(A, comps, diffs)
    return minimize(tot).complex


def i_upper_star(rec, Z):
    """Quotient functor: delete P_v summands with v in S, keep the rest.

    Paths between complement vertices never touch S (arrows cannot re-exit),
    so the surviving differential entries transport to B verbatim.
    """
    if Z.algebra != rec.A:
        raise RecollementError("expected a complex over the ambient algebra")
    sset = set(rec.S)
    B = rec.B
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
        if not rows or not cols:
            continue
        sub = d.submatrix(rows, cols)
        ents = [[_transport_element(x, B) for x in row] for row in sub.entries]
        diffs[n] = PathMatrix(B, sub.row_vertices, sub.col_vertices, ents)
    try:
        return ProjComplex(B, comps, diffs)
    except ComplexError as exc:  # pragma: no cover - guarded by condition (a)
        raise RecollementError(f"quotient differential inconsistent: {exc}")
