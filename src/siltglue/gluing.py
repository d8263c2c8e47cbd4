"""Gluing silting sets along an idempotent recollement, with certificates.

Given non-positive sets T_C over the corner algebra and T_B over the
quotient, each i_*(T_Y) receives a susp(j_!T_C)[1]-envelope; the cocone
T~_Y replaces it, and T = j_!(T_C) together with the T~_Y is the glued set.
Every certificate is re-derivable from raw Hom computations.
"""

from .fields import QQ
from .complexes import ProjComplex, direct_sum_many, minimize, shift, subcomplex_on_indices
from .homs import is_nonpositive, nonzero_homs
from .approx import susp_envelope
from .recollement import i_star, j_lower_shriek
from .decompose import decompose, group_isomorphic, summand_order
from .linalg import Matrix, det, rank


class GlueError(RuntimeError):
    pass


class GlueCertificate:
    """The glued set with its verification reports.

    `T` is the list of glued complexes over A (j_! images first, then the
    modified T~_Y); `triangles` records, per T_Y, the envelope triangle
    T~_Y -> i_*T_Y -> U (the shifted third term U[1]).  `reports` and
    `decomposition` are filled in by `_certify`.
    """

    __slots__ = (
        "rec",
        "T_C",
        "T_B",
        "jT",
        "iT",
        "tildes",
        "triangles",
        "T",
        "reports",
        "decomposition",
    )

    def __init__(self, rec, T_C, T_B, jT, iT, tildes, triangles, T):
        self.rec = rec
        self.T_C = T_C
        self.T_B = T_B
        self.jT = jT
        self.iT = iT
        self.tildes = tildes
        self.triangles = triangles
        self.T = T
        self.reports = {}
        self.decomposition = None

    @property
    def passed(self):
        return all(r.get("ok", False) for r in self.reports.values())


def check_presilting(T_list):
    """The presilting report; a failure names a non-zero Hom(T_i, T_j[k]), k > 0.

    The witness is a representative of that Hom space, checked here to be a
    chain map.
    """
    ok, witness = is_nonpositive(T_list)
    rep = {"ok": ok}
    if not ok:
        i, j, k, f = witness
        f.check_chain_condition()
        rep["witness"] = {"from": i, "to": j, "shift": k}
    return rep


def summand_classes(T_list):
    """Distinct indecomposable summands of a set, with multiplicities.

    Returns [summand, multiplicity, certified, index of the first T_i
    containing it] per class, in order of first appearance; the
    multiplicity is summed over all members.
    """
    return group_isomorphic((c, m, certified, ti) for ti, T in enumerate(T_list) for c, m, certified in decompose(T))


def k0_report(classes, algebra):
    """Classes [T_i] in the basis [P_v], with a unimodularity verdict.

    Rows are the distinct indecomposable summand classes of the set
    (`classes` as `summand_classes` returns them).
    """
    verts = list(algebra.quiver.vertices)
    rows = [c[0] for c in classes]
    mat = []
    for c in rows:
        row = [0] * len(verts)
        for n, vs in c.components.items():
            sgn = 1 if n % 2 == 0 else -1
            for v in vs:
                row[verts.index(v)] += sgn
        mat.append(row)
    qmat = Matrix(QQ, [[QQ.of(x) for x in row] for row in mat], cols=len(verts))
    d = int(det(qmat)) if len(mat) == len(verts) else 0  # square: full rank exactly when d != 0
    r, d = (len(verts), d) if d else (rank(qmat) if mat else 0, None)
    uni = d in (1, -1)
    return {
        "matrix": mat,
        "rank": r,
        "square": len(mat) == len(verts),
        "det": d,
        "unimodular": uni,
        "ok": uni,
        "classes": [c.describe() for c in rows],
    }


def check_generation(algebra, classes, presilting):
    """Does thick(T) hold every P_v?  A report with status "generated", "not generated" or "undecided".

    T is given by its summand classes (`classes` as `summand_classes`
    returns them); `presilting` is the verdict of `check_presilting`.  A
    vertex v whose stalk P_v[k] is a summand class is witnessed by it.  At
    every other vertex one envelope V -> X -> U, U in susp(T), is taken of
    X, the stalk P_v in degree lo, the lowest degree of any class: V = 0
    puts P_v in thick(T), and the envelope's trace, whose tags index the
    classes, is the witness with lo.  For a presilting T, V = 0 exactly
    when P_v lies in thick(T).  If V = 0, X is U, in susp(T).  If P_v lies
    in thick(T), T is silting there, so susp(T) is the right orthogonal of
    cosusp(T[-1]) (Bondarko, "Weight structures vs. t-structures", 2010;
    Aihara-Iyama, "Silting mutation in triangulated categories", 2012);
    each T_i[-a], a >= 1, lives in degrees >= lo + 1 and has no non-zero
    chain map to X, so X lies in susp(T) and is its own envelope, V = 0.
    So V != 0 proves that T does not generate.  A set that is not
    presilting is approximated nowhere: with a vertex left after the
    stalks, its report is "undecided".  `missing` lists the vertices not
    shown to be in thick(T); with no class, that is every vertex.
    """
    T_list = [c for c, _m, _certified, _ti in classes]
    witnesses = {}
    for c, _m, _certified, ti in classes:
        if c.summand_count() == 1:  # a stalk: one P_v, in degree lo
            witnesses.setdefault(c.components[c.lo][0], (f"input[{ti}]", c.lo))
    missing = [v for v in algebra.quiver.vertices if v not in witnesses]
    report = {"objects": len(classes), "witnesses": witnesses}
    if missing and not presilting["ok"]:
        return {"status": "undecided", "ok": False, "missing": missing, **report}
    lo = min((c.lo for c in T_list), default=0)  # with no class, P_v is its own envelope cocone
    for v in missing:
        env = susp_envelope(ProjComplex.stalk(algebra, v, lo), T_list)
        if env.V.is_zero():
            witnesses[v] = {"envelope": env.trace, "degree": lo}
    missing = [v for v in missing if v not in witnesses]
    if missing:
        return {"status": "not generated", "ok": False, "missing": missing, **report}
    return {"status": "generated", "ok": True, **report}


def certify_set(T_list, algebra):
    """Presilting, generation and K_0 reports of a set, splitting it once.

    Returns the reports and the distinct summand classes (`summand_classes`),
    which the generation check and the K_0 screen share.
    """
    classes = summand_classes(T_list)
    presilting = check_presilting(T_list)
    reports = {
        "presilting": presilting,
        "generation": check_generation(algebra, classes, presilting),
        "k0": k0_report(classes, algebra),
    }
    return reports, classes


def check_star_condition(cert):
    """Re-verify condition (*) from scratch.

    (i) each envelope trace layer uses shifts >= 1 of j_!T_C;
    (ii) Hom(T~_Y, j_!t[k]) = 0 for every k >= 1 over the window.
    """
    layer_ok = True
    for tri in cert.triangles:
        for s, _tags in tri["trace"]:
            if s + 1 < 1:
                layer_ok = False
    failures = []
    for ti, tilde in enumerate(cert.tildes):
        for ci, jt in enumerate(cert.jT):
            for k, hs in nonzero_homs(tilde, jt, 1):
                failures.append({"tilde": ti, "jT": ci, "shift": k, "dim": hs.dim})
    return {"ok": layer_ok and not failures, "trace_ok": layer_ok, "failures": failures}


def _perp_positive(Z, objs):
    """Is Hom(Z, O[k]) = 0 for all O in objs and all k > 0 (window-checked)?"""
    return not any(next(nonzero_homs(Z, O, 1), None) for O in objs)


def check_co_aisle_agreement(cert, probes):
    """Probe-level equality of the two right-orthogonality classes.

    For each probe Z the membership Z in perp_{>0}(T) must agree with
    Z in perp_{>0}(j_!T_C + i_*T_B).
    """
    raw = list(cert.jT) + list(cert.iT)
    results = []
    ok = True
    for pi, Z in enumerate(probes):
        lhs = _perp_positive(Z, cert.T)
        rhs = _perp_positive(Z, raw)
        agree = lhs == rhs
        ok = ok and agree
        results.append({"probe": pi, "perp_T": lhs, "perp_raw": rhs, "agree": agree})
    return {"ok": ok, "probes": results}


def _require_nonpositive(name, T_list):
    """Raise GlueError with a nonzero Hom(T_i, T_j[k]), k > 0, as witness."""
    ok, w = is_nonpositive(T_list)
    if not ok:
        raise GlueError(f"{name} is not non-positive: Hom(T_{w[0]}, T_{w[1]}[{w[2]}]) != 0")


def glue(rec, T_C, T_B, probes=None, decompose_result=True):
    """Glue non-positive sets along the recollement; returns certificates.

    T_C is a list of complexes over the corner algebra, T_B over the
    quotient algebra.  Raises GlueError with a witness when an input set is
    not non-positive.  Every randomized search (the splitting and
    isomorphism tests of the envelope, the reports and the final
    decomposition) draws from the one fixed stream of `decompose`.
    """
    _require_nonpositive("T_C", T_C)
    _require_nonpositive("T_B", T_B)
    jT = [j_lower_shriek(rec, t) for t in T_C]
    env_targets = [shift(t, 1) for t in jT]
    iT = []
    tildes = []
    triangles = []
    for T_Y in T_B:
        M = i_star(rec, T_Y)
        iT.append(M)
        env = susp_envelope(M, env_targets)
        tildes.append(env.V)
        triangles.append(
            {
                "V": env.V,
                "M": M,
                "U": env.U,
                "f": env.f,
                "v_map": env.v_map,
                "s": env.s,
                "trace": env.trace,
            }
        )
    T = jT + tildes
    return _certify(GlueCertificate(rec, T_C, T_B, jT, iT, tildes, triangles, T), probes, decompose_result)


def _certify(cert, probes, decompose_result):
    """Fill the reports of a glued set (condition (*), then `certify_set`) and its decomposition.

    By Krull-Schmidt the decomposition of (+)T is the union of the members'
    summand classes, so it is read off those, sorted as `decompose` sorts.
    """
    cert.reports["star_condition"] = check_star_condition(cert)
    reports, classes = certify_set(cert.T, cert.rec.A)
    cert.reports.update(reports)
    if probes is not None:
        cert.reports["co_aisle_agreement"] = check_co_aisle_agreement(cert, probes)
    if decompose_result:
        cert.decomposition = sorted(((c, m, certified) for c, m, certified, _ti in classes), key=summand_order)
    return cert


def canonical_corner_silting(rec):
    """The corner algebra as a complex over itself: (+) P_v, v in S."""
    return direct_sum_many(
        rec.C, [ProjComplex.stalk(rec.C, v) for v in rec.C.quiver.vertices]
    )


def glue_shortcut(rec, T_B, probes=None, decompose_result=True):
    """Shortcut for canonical T_C = {C}: split minimize(i_*(+)T_B) directly.

    Requires every T_B component in degrees <= 0 after minimization; the
    complement-vertex summands of P := minimize(i_* (+) T_B) form a
    subcomplex T~ (no path leaves S), and the S-vertex summands are the
    quotient U[1].
    """
    _require_nonpositive("T_B", T_B)
    for t in T_B:
        tm = minimize(t).complex
        if not tm.is_zero() and tm.hi > 0:
            raise GlueError("shortcut requires T_B concentrated in degrees <= 0")
    T_C = [canonical_corner_silting(rec)]
    jT = [j_lower_shriek(rec, T_C[0])]
    if T_B:
        total_B = direct_sum_many(rec.B, T_B)
        P = i_star(rec, total_B)
    else:
        P = ProjComplex.zero(rec.A)
    sset = set(rec.S)
    idx_comp = {n: [i for i, v in enumerate(vs) if v not in sset] for n, vs in P.components.items()}
    idx_s = {n: [i for i, v in enumerate(vs) if v in sset] for n, vs in P.components.items()}
    tilde = subcomplex_on_indices(P, idx_comp)
    U1 = subcomplex_on_indices(P, idx_s)
    tildes = [] if tilde.is_zero() and not T_B else [tilde]
    iT = [P] if T_B else []
    triangles = (
        []
        if not T_B
        else [{"V": tilde, "M": P, "U": U1, "f": None, "v_map": None, "s": None, "trace": [(0, ())]}]
    )
    T = jT + [t for t in tildes if not t.is_zero()]
    return _certify(GlueCertificate(rec, T_C, T_B, jT, iT, tildes, triangles, T), probes, decompose_result)
