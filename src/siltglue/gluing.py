"""Gluing silting sets along an idempotent recollement, with certificates.

Given non-positive sets T_C over the corner algebra and T_B over the
quotient, each i_*(T_Y) receives a susp(j_!T_C)[1]-envelope; the cocone
T~_Y replaces it, and T = j_!(T_C) together with the T~_Y is the glued set.
Every certificate is re-derivable from raw Hom computations.
"""

from .fields import QQ
from .complexes import ProjComplex, direct_sum_many, is_minimal, minimize, shift
from .homs import is_nonpositive, nonzero_homs
from .approx import susp_envelope
from .recollement import i_star, i_upper_star, j_lower_shriek
from .decompose import decompose, group_isomorphic, is_isomorphic, summand_order
from .linalg import Matrix, det, rank


class GlueError(RuntimeError):
    pass


class GlueCertificate:
    """The glued set with its verification reports.

    `T` is the list of glued complexes over A (j_! images first, then the
    non-zero T~_Y), and `tildes` every T~_Y, one per T_Y; `triangles`
    records, per T_Y, the envelope triangle T~_Y -> M = i_*T_Y -> U (the
    shifted third term U[1]) of `susp_envelope`.  `_certify` fills `reports`
    and `decomposition`.
    """

    __slots__ = ("rec", "T_C", "T_B", "jT", "tildes", "triangles", "T", "reports", "decomposition")

    def __init__(self, rec, T_C, T_B, jT, tildes, triangles, T):
        self.rec = rec
        self.T_C = T_C
        self.T_B = T_B
        self.jT = jT
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
    layer_ok = all(s + 1 >= 1 for tri in cert.triangles for s, _tags in tri["trace"])
    failures = []
    for ti, tilde in enumerate(cert.tildes):
        for ci, jt in enumerate(cert.jT):
            for k, hs in nonzero_homs(tilde, jt, 1):
                failures.append({"tilde": ti, "jT": ci, "shift": k, "dim": hs.dim})
    return {"ok": layer_ok and not failures, "trace_ok": layer_ok, "failures": failures}


def check_co_aisle_agreement(cert):
    """Is T's t-structure the one glued from T_C's and T_B's?  Decided by i^*T~_Y ~= T_Y for each Y.

    i^*T~_Y is minimal: it is compared by `==` with T_Y (minimized first
    unless minimal), and by `is_isomorphic` where `==` fails; `failures`
    lists the Y where both fail.  If T's presilting or generation report
    fails, the status is "undecided": the argument needs T silting, with
    aisle T^{perp>0} = susp T (Aihara-Iyama 2012).  T_C and T_B are then
    silting: `glue` requires them non-positive, and i^*T = T_B and j^*T in
    thick(T_C) (j^*T~_Y = j^*U_Y[-1]) generate.  The glued aisle
    {X : j^*X in susp T_C, i^*X in susp T_B} (Beilinson-Bernstein-Deligne
    1982, Thm 1.4.10) is susp G, G = j_!T_C + i_*T_B, as X is an extension
    of i_*i^*X by j_!j^*X.  It holds T, as U_Y lies in susp(j_!T_C[1]) and
    i^*T~_Y = T_Y; G lies in T^{perp>0} by adjunction, as
    Hom(T~_Z, i_*T_Y[k]) = Hom(T_Z, T_Y[k]) = 0 for k > 0.  The identity
    i^*T~_Y ~= T_Y is i^*i_* ~= id, as i^* kills U_Y in thick(j_!T_C): a
    failure shows that T~_Y is not the cocone `glue` builds.
    """
    if not (cert.reports["presilting"]["ok"] and cert.reports["generation"]["ok"]):
        return {"status": "undecided", "ok": False}
    failures = []
    for y, (T_Y, tilde) in enumerate(zip(cert.T_B, cert.tildes)):
        X = i_upper_star(cert.rec, tilde)
        if X != (T_Y if is_minimal(T_Y) else minimize(T_Y).complex) and not is_isomorphic(X, T_Y).isomorphic:
            failures.append(y)
    return {"status": "differ" if failures else "agree", "ok": not failures, "failures": failures}


def _require_nonpositive(name, T_list):
    """Raise GlueError with a nonzero Hom(T_i, T_j[k]), k > 0, as witness."""
    ok, w = is_nonpositive(T_list)
    if not ok:
        raise GlueError(f"{name} is not non-positive: Hom(T_{w[0]}, T_{w[1]}[{w[2]}]) != 0")


def glue(rec, T_C, T_B, decompose_result=True):
    """Glue non-positive sets along the recollement; returns certificates.

    T_C is a list of complexes over the corner algebra, T_B over the
    quotient algebra.  Raises GlueError with a witness when an input set is
    not non-positive.  Each i_*T_Y takes its envelope triangle from
    `susp_envelope`, which reads it off i_*T_Y's summands when T_C is stalks
    in one degree and i_*T_Y's S-summands lie below it; a zero T~_Y is left
    out of T.  `check_co_aisle_agreement` decides that
    T's t-structure is the glued one.  Every randomized search (envelope,
    reports, decomposition) draws from the one fixed stream of `decompose`.
    """
    _require_nonpositive("T_C", T_C)
    _require_nonpositive("T_B", T_B)
    jT = [j_lower_shriek(rec, t) for t in T_C]
    env_targets = [shift(t, 1) for t in jT]
    envs = [susp_envelope(i_star(rec, T_Y), env_targets) for T_Y in T_B]
    tildes = [env.V for env in envs]
    triangles = [{k: getattr(env, k) for k in ("V", "M", "U", "f", "v_map", "s", "trace")} for env in envs]
    T = jT + [t for t in tildes if not t.is_zero()]
    return _certify(GlueCertificate(rec, T_C, T_B, jT, tildes, triangles, T), decompose_result)


def _certify(cert, decompose_result):
    """Fill the reports of a glued set (condition (*), `certify_set`, then the co-aisle check) and its decomposition.

    By Krull-Schmidt the decomposition of (+)T is the union of the members'
    summand classes, so it is read off those, sorted as `decompose` sorts.
    """
    cert.reports["star_condition"] = check_star_condition(cert)
    reports, classes = certify_set(cert.T, cert.rec.A)
    cert.reports.update(reports)
    cert.reports["co_aisle_agreement"] = check_co_aisle_agreement(cert)
    if decompose_result:
        cert.decomposition = sorted(((c, m, certified) for c, m, certified, _ti in classes), key=summand_order)
    return cert


def canonical_corner_silting(rec):
    """The corner algebra as a complex over itself: (+) P_v, v in S."""
    return direct_sum_many(rec.C, [ProjComplex.stalk(rec.C, v) for v in rec.C.quiver.vertices])
