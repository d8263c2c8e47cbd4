"""Envelopes and precovers with respect to shifts of a fixed set of complexes.

Given a finite set T of complexes, this module builds add(T)[s]-preenvelopes
from Hom-basis representatives, minimizes them by one greedy pass that tests
each copy at most once, and builds the susp(T)-envelope triangle V -> M -> U in
stages: each takes the minimal cocone W of its input's minimal
add(T)[s]-preenvelope, with its map to the input.  With w the composite of
those maps, W -w-> M -> C(-w) -> W[1] is distinguished, being the cone
triangle of -w with its first term changed by -id: V is the last stage's W
and v_map is w, and U is one cone, the minimal C(-w).  With no stage U = 0,
f = 0 and V is the minimal model of M.  A non-minimal M is minimized once,
at entry: the stages and the cone run on its model, and f and v_map pass
back to M through the model's homotopy equivalences.  The members of T are
minimal and so is each W, so every cocone and the cone come from one direct
elimination of the map's unit block (`complexes.minimal_cocone` and
`minimal_cone`), with no full cone built.  Where T is stalks of a vertex set
that no arrow leaves, in one degree, and the model's summands at those
vertices lie in no higher degree, the triangle is the model's own split, with
no stage (`_stalk_split`).
A deletion is decided on Hom coordinates: a copy of T_i can go exactly when
its representative factors through the other kept copies (Auslander-Smalo),
a rank condition in the one space Hom(M, T_i[s]) on the coordinates of the
maps they let through, so no candidate map is assembled.  Most copies need no test: a copy that
no other copy can reach, because the Hom spaces between the members'
complexes are zero or the member's End is the field, is needed, and Hom
dimensions alone say so (the rule and both proofs are in `left_minimize`).
The cosusp(T)-precover is the same construction over the opposite
algebra, transported back.  All certificates are exact.

Each stage builds Hom(W, T_i[k]) once, and only below the previous stage's
s: for presilting T the statistic strictly decreases (Aihara-Iyama), since
W's cocone triangle makes every Hom(W, T_i[k]) with k at or above that s
zero.  So s decreases by construction and the loop ends; a non-presilting T
that leaves such a space non-zero is caught by the certificate.  The
s-search (`s_search`) keeps the spaces at s, and the preenvelope carries
them and their representatives into `left_minimize`; each Hom(T_i, T_j) a
stage reads is built once per envelope, and its basis is shifted to the
stage's s only when a copy of T_j is tested.  The last s-search finds every
Hom(V, T_i[k]) it scans zero; the certificate reads those spaces and builds
the ones at and above the previous stage's s.  The chain condition
is checked once, on the maps a result reports: f and v_map of
`susp_envelope`, the latter the composite of the cocone maps, and u_map and
v_map of `cosusp_precover` over A (not again over the opposite algebra).
The stacked preenvelopes are chain maps by construction and are not
checked.
"""

from collections import Counter
from functools import reduce

from .complexes import (ChainMap, PathMatrix, ProjComplex, _inclusion, _projection, direct_sum_many, is_minimal,
                        minimal_cocone, minimal_cone, minimize, opposite_complex, opposite_map, shift_map,
                        subcomplex_on_indices)
from .decompose import decompose
from .homs import HomSpace, hom_spaces, nonzero_homs, s_search
from .linalg import row_space_rref
from .quiver import build_algebra


class ApproxError(RuntimeError):
    pass


class Preenvelope:
    """A map f: M -> F into add(T)[s], given by its provenance.

    `copies` lists, per target summand block, the index into T and the
    representative index it came from (deletion order follows this list).
    `spaces[i]` is HomSpace(M, T_i, s), or None where the s-search showed
    it zero, and `reps[i]` its `basis_maps()`; `add_shift_preenvelope`
    builds them once and `left_minimize` reads them.
    """

    __slots__ = ("M", "T_list", "s", "copies", "spaces", "reps")

    def __init__(self, M, T_list, s, copies, spaces, reps):
        self.M = M
        self.T_list = T_list
        self.s = s
        self.copies = copies
        self.spaces = spaces
        self.reps = reps

    @property
    def f(self):
        """The stacked map M -> F of the copies' representatives, built on each read."""
        return _stack(self.M, [self.reps[ti][ri] for ti, ri in self.copies])


def _stack(M, reps):
    """The map M -> (+) r.target whose block rows are the maps `reps`, in order.

    Block rows of chain maps with one source form a chain map, so the
    result is not checked here.  One representative is its own stack, and
    is returned as it is: nothing writes into a map once built.
    """
    if len(reps) == 1:
        return reps[0]
    alg = M.algebra
    F = direct_sum_many(alg, [r.target for r in reps])
    comps = {}
    for k, r in enumerate(reps):
        for n, m in r.components.items():
            comps.setdefault(n, {})[k, 0] = m
    rows = {n: [r.target.component(n) for r in reps] for n in comps}
    return ChainMap(M, F, {n: PathMatrix.blocks(alg, rows[n], (M.component(n),), ms) for n, ms in comps.items()})


def add_shift_preenvelope(M, T_list, s, spaces=None):
    """Preenvelope of M in add(T)[s]: one target copy per Hom representative.

    `spaces` maps member indices to HomSpace(M, T_i, s) as `s_search`
    returns it: a member it leaves out has Hom(M, T_i[s]) = 0, so it gets
    no copy and no space (None).  Without `spaces` every member's space is
    built here.
    """
    known = dict(enumerate(HomSpace(M, T, s) for T in T_list)) if spaces is None else spaces
    spaces = [known.get(ti) for ti in range(len(T_list))]
    reps = [[] if hs is None else hs.basis_maps() for hs in spaces]
    copies = [(ti, ri) for ti, rs in enumerate(reps) for ri in range(len(rs))]
    return Preenvelope(M, list(T_list), s, copies, spaces, reps)


def _is_preenvelope(fld, dim, rows):
    """Do these coordinate rows span Hom(M, T_ti[s]), of dimension `dim`?  (See `left_minimize`.)"""
    return len(row_space_rref(fld, rows, reduced=False)[1]) == dim


def left_minimize(pre, between=None):
    """Greedily delete target copies while the preenvelope property holds.

    The copies' target F is a direct sum, so the maps M -> T_j[s] that
    factor through the copies are spanned by the h o r_k: h runs over a
    basis of Hom(T_tk[s], T_j[s]) and r_k is copy k's representative, with
    coordinates e_rk in Hom(M, T_tk[s]).  Each copy is tried once, in
    order, and dropped when the copies kept without it still form a
    preenvelope; those kept so far always do, as every representative
    starts with its own copy.  A copy kept once is never tried again:
    dropping it from a smaller set would leave smaller spans still.  The
    spaces Hom(M, T_j[s]) and their representatives are those `pre` carries.

    One space decides whether c = (ti, ri) can go (Auslander-Smalo), by two
    steps.  The span S of the other kept copies' rows in Hom(M, T_ti[s]) is
    closed under End(T_ti), since an endomorphism after h o r_k is another
    map through copy k; with c the rows span the whole space, and c adds
    only End(T_ti) o r_c, so S is full exactly when it holds r_c = e_ri.
    And if r_c factors through the other copies, so does h o r_c for every
    h: T_ti[s] -> T_j[s], so no other space adds a condition.  A deletion
    is thus one rank test, and rows are built only in the spaces
    Hom(M, T_ti[s]) of the members with a tested copy; the map is built
    only when `f` is read.

    Most copies need no test.  When no other copy has rows in
    Hom(M, T_ti[s]) that can reach e_ri, S cannot be full and c is kept by
    Hom dimensions: every other copy k = (tk, rk) has Hom(T_tk, T_ti) = 0
    (tk != ti), and no rows there, or dim End(T_ti) = 1 (tk = ti), so End
    is k.id modulo homotopy and k's rows lie in span{e_rk}, rk != ri.  A
    lone copy is the case with no other copy.  `between` keeps
    HomSpace(T_a, T_b, 0) by (a, b) for calls on one T_list, or None where
    0 lies outside the support window and the space is zero, unbuilt: the
    rule reads dimensions, and a test reads the basis of Hom(T_tk, T_ti),
    shifted, as that of Hom(T_tk[s], T_ti[s]).
    """
    M, T_list, s = pre.M, pre.T_list, pre.s
    spaces, reps = pre.spaces, pre.reps
    between = {} if between is None else between

    def hom(a, b):
        if (a, b) not in between:
            between[a, b] = hom_spaces(T_list[a], T_list[b], 0, 0)[0]
        return between[a, b]

    def dim(a, b):
        return 0 if hom(a, b) is None else hom(a, b).dim

    count = Counter(ti for ti, _ in pre.copies)

    def decided(ti):
        return (count[ti] == 1 or dim(ti, ti) == 1) and not any(dim(tk, ti) for tk in count if tk != ti)

    undecided = [c for c, (ti, _) in enumerate(pre.copies) if not decided(ti)]
    if not undecided:
        return pre
    targets = {pre.copies[c][0] for c in undecided}
    shifted = {  # bases of Hom(T_tk[s], T_ti[s])
        (tk, ti): [] if hom(tk, ti) is None else [shift_map(h, s) for h in hom(tk, ti).basis_maps()]
        for tk in count
        for ti in targets
    }
    rows = {  # coordinates in Hom(M, T_ti[s]) of the maps copy k lets through
        (k, ti): [spaces[ti].coordinates(h.compose(reps[tk][rk])) for h in shifted[tk, ti]]
        for k, (tk, rk) in enumerate(pre.copies)
        for ti in targets
    }
    fld = M.algebra.field
    keep = list(range(len(pre.copies)))
    for c in undecided:
        ti = pre.copies[c][0]
        cand = [k for k in keep if k != c]
        if _is_preenvelope(fld, spaces[ti].dim, [v for k in cand for v in rows[k, ti]]):
            keep = cand
    return Preenvelope(M, T_list, s, [pre.copies[c] for c in keep], spaces, reps)


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


def indecomposable_refinement(T_list):
    """Replace each member by its indecomposable summands.

    The additive hull add(T) is unchanged, but greedy copy-deletion in
    left_minimize then reaches a genuinely minimal approximation.
    """
    return [X for T in T_list for X, _mult, _cert in decompose(T)]


def _susp_envelope_stage(W, T_list, below, between, scan):
    """One stage: (layer, Cm, u), or None when Hom(W, T_i[s]) = 0 for every s with 0 <= s < `below`.

    Cm is the minimal cocone of W's minimal add(T)[s]-preenvelope and
    u: Cm -> W its map to W, from `minimal_cocone`: one direct elimination,
    as W and the copies of T are minimal.  `below` is the previous stage's
    s, or None at the first stage: the s-search scans no shift at or above
    it, so s strictly decreases.  The s-search hands the Hom spaces it
    built at s on to the preenvelope, and every space it built to `scan`;
    `between` is the envelope's table for `left_minimize`.
    """
    s, spaces = s_search(W, T_list, scan, below)
    if s is None:
        return None
    pre = left_minimize(add_shift_preenvelope(W, T_list, s, spaces), between)
    Cm, u = minimal_cocone(pre.f)  # Cm -> W -> F
    return (s, tuple(sorted(ti for ti, _ in pre.copies))), Cm, u


def _stalk_split(W, T_list):
    """The envelope triangle V -> W -> U read off W's summands, (V, v_map, U, f, trace); None where it may not be.

    Read when T_list is stalks P_v in one degree d, one per vertex of a set S
    that no arrow leaves, and W's S-summands lie in degrees <= d.  An entry
    of d_W from a complement summand to an S-summand would be a path leaving
    S, so the complement summands span a subcomplex V, with no non-zero map
    to any P_v[k] even on chains, and the S-summands the quotient U, in
    susp(T): the triangle, unique up to isomorphism (Auslander-Smalo), with
    the selections v_map and f and a layer (d - n, sorted tags of U's
    degree-n summands, a tag being P_v's index in T_list) per degree n of U,
    outermost first.  With no S-summand only the empty trace is read.
    """
    d, tags = T_list[0].lo if T_list else 0, {}
    for i, T in enumerate(T_list):
        if T.summand_count() != 1 or T.lo != d:
            return None
        tags.setdefault(T.components[d][0], i)
    alg = W.algebra
    if len(tags) < len(T_list) or any(a.source in tags and a.target not in tags for a in alg.quiver.arrows):
        return None
    keep = {n: [i for i, v in enumerate(vs) if v not in tags] for n, vs in W.components.items()}
    quotient = {n: [i for i, v in enumerate(vs) if v in tags] for n, vs in W.components.items()}
    if any(n > d and idx for n, idx in quotient.items()):
        return None
    if not any(quotient.values()):
        return W, None, None, None, []
    V, U = subcomplex_on_indices(W, keep), subcomplex_on_indices(W, quotient)
    v_map = ChainMap(V, W, {n: _inclusion(alg, vs, 0, {i: k for k, i in enumerate(keep[n])}, None, V.component(n))
                            for n, vs in W.components.items()})
    f = ChainMap(W, U, {n: _projection(alg, vs, 0, {i: k for k, i in enumerate(quotient[n])}, None, U.component(n))
                        for n, vs in W.components.items()})
    return V, v_map, U, f, [(d - n, tuple(sorted(tags[v] for v in U.components[n]))) for n in sorted(U.components)]


def _envelope(M, T_list):
    """The envelope triangle V -> M -> U, unchecked: (f, U, V, v_map, trace, zeros).

    A non-minimal M is minimized once, here, and the triangle is taken of
    its model W_0; a minimal M is W_0 itself.  It is read off W_0's summands
    where `_stalk_split` may; otherwise the stages give
    W_0 <- W_1 <- ... <- W_r, each map the pulled cocone map u of a stage,
    and w: W_r -> W_0 composes them.  The triangle
    W_r -w-> W_0 -> C(-w) -> W_r[1] is distinguished: it is the cone
    triangle of -w with its first term changed by -id.  So V is W_r,
    already minimal, and U is the minimal model of C(-w), with the push of
    the inclusion of W_0, from `minimal_cone`: one direct elimination, as
    both ends are minimal.  By the octahedral axiom C(-w) is the iterated
    homotopy pushout of the stages, so U takes a single cone.  Through the
    homotopy equivalences of M with W_0, f is that push after `to_min` and
    v_map is `from_min` after w.  With no stage U = 0 and f = 0, V is W_0
    and v_map its inclusion.  `zeros` are the spaces Hom(V, T_i[k]) of the
    last stage's scan: every k below the previous stage's s (every k >= 0
    with no stage) where they can be non-zero; a split has none.
    """
    T_list = indecomposable_refinement(T_list)
    model = None if is_minimal(M) else minimize(M)
    W0 = M if model is None else model.complex
    split, zeros = _stalk_split(W0, T_list), []
    if split is not None:
        W, w, U, f, trace = split
    else:
        W, maps, trace, between = W0, [], [], {}
        # a fresh scan per stage: after the loop it holds the search that found no s
        while stage := _susp_envelope_stage(W, T_list, trace[-1][0] if trace else None, between, scan := {}):
            layer, W, u = stage
            maps.append(u)
            trace.append(layer)
        zeros = list(scan.values())
        if maps:
            w = reduce(ChainMap.compose, maps)
            U, f = minimal_cone(ChainMap(W, W0, {n: -m for n, m in w.components.items()}))  # C(-w)^n = W^{n+1} (+) W0^n
    if not trace:
        U = ProjComplex.zero(M.algebra)
        return ChainMap.zero(M, U), U, W0, ChainMap.identity(M) if model is None else model.from_min, trace, zeros
    if model is not None:
        f, w = f.compose(model.to_min), model.from_min.compose(w)
    return f, U, W, w, trace, zeros


def _check_orthogonal(pairs, what, built=()):
    """Raise ApproxError unless Hom(X_i, Y_i[k]) = 0 for all (X_i, Y_i) in `pairs`, k >= 0.

    Checked exactly over each support window; the error lists the
    (i, k, dim) of every non-zero Hom.  A space in `built` whose X and Y
    are the pair's own objects is read, not built again.
    """
    bad = []
    for i, (X, Y) in enumerate(pairs):
        known = {hs.k: hs for hs in built if hs.X is X and hs.Y is Y}
        bad += [(i, k, hs.dim) for k, hs in nonzero_homs(X, Y, 0, known)]
    if bad:
        raise ApproxError(f"{what} not orthogonal: {bad}")


def susp_envelope(M, T_list):
    """Envelope triangle V -> M -> U with U in susp(T), V left-orthogonal.

    The statistic s = s_sup(W, T) strictly decreases from stage to stage;
    V is the last stage's cocone, v_map the composite of the stages'
    cocone maps and U its cone (see `_envelope`).  The reported s is that
    of the outermost layer: splitting T into its indecomposable summands
    does not change s_sup.  The maps f and v_map are checked to be chain
    maps, and the orthogonality Hom(V, T_i[k]) = 0 for all k >= 0 is
    certified, reading the spaces the last stage's s-search built on V and
    building the ones it did not scan, at and above the previous stage's s.
    A triangle read off M's summands (`_stalk_split`) is certified by
    `homs.nonzero_homs`, which builds no space: no vertex of T reaches one
    of V by a path.  Splitting T into its indecomposable summands searches
    the one fixed stream of `decompose`.
    """
    f, U, V, v_map, trace, zeros = _envelope(M, T_list)
    f.check_chain_condition()
    v_map.check_chain_condition()
    _check_orthogonal([(V, T) for T in T_list], "envelope cocone", zeros)
    return EnvelopeResult(M, U, V, f, v_map, trace[0][0] if trace else None, trace, {"cocone_orthogonal": True})


def cosusp_precover(M, T_list):
    """Precover triangle V -> M -> U with V in cosusp(T), U right-orthogonal.

    The susp envelope of op(M) by op(T) over the opposite algebra, read
    back over A: the duality reverses the triangle, so its V is op of the
    envelope's U and its U is op of the envelope's V, and each layer
    shift s becomes -s.  `s` is sup{k >= 0 : Hom(T_i, M[k]) != 0}.  The
    maps u_map and v_map are checked to be chain maps once, over A, and
    Hom(T_i, U[k]) = 0 for all k >= 0 is certified over A itself.
    """
    A = M.algebra
    Aop = build_algebra(A.quiver.opposite(), A.field)
    T_op = [opposite_complex(T, Aop) for T in T_list]
    f_op, U_op, V_op, v_op, op_trace, _ = _envelope(opposite_complex(M, Aop), T_op)
    V = opposite_complex(U_op, A)
    U = opposite_complex(V_op, A)
    v_map = opposite_map(f_op, M, V, A)
    u_map = opposite_map(v_op, U, M, A)
    u_map.check_chain_condition()
    v_map.check_chain_condition()
    trace = [(-s, tags) for s, tags in op_trace]
    _check_orthogonal([(T, U) for T in T_list], "precover cone")
    return EnvelopeResult(M, U, V, u_map, v_map, op_trace[0][0] if op_trace else None, trace, {"cone_orthogonal": True})
