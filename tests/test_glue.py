import itertools
import json
import signal

import pytest
from click.testing import CliRunner

from conftest import conjugated, glue_by_envelope, random_complex, seeded_rng, triangle_json
from former import former_co_aisle_agreement, former_generated
from siltglue import approx, complexes, gluing, serialize
from siltglue.fields import QQ, PrimeField
from siltglue.approx import susp_envelope
from siltglue.cli import main
from siltglue.complexes import PathMatrix, ProjComplex, direct_sum, direct_sum_many, is_minimal, make_complex, shift
from siltglue.decompose import decompose, is_isomorphic
from siltglue.fixtures import (
    canonical_quotient_silting,
    glue_fixtures,
    ka3_algebra,
    ka3_named_complexes,
    linear_an,
    star_quiver,
)
from siltglue.gluing import (
    GlueCertificate,
    GlueError,
    canonical_corner_silting,
    check_generation,
    check_presilting,
    check_co_aisle_agreement,
    check_star_condition,
    glue,
    k0_report,
    summand_classes,
)
from siltglue.serialize import complex_to_json
from siltglue.recollement import i_star, idempotent_recollement, j_lower_shriek


@pytest.fixture(scope="module")
def worked_glue():
    name, rec, T_B = glue_fixtures()[0]
    T_C = [canonical_corner_silting(rec)]
    return rec, glue(rec, T_C, T_B)


def test_glue_anchor_decomposition(worked_glue):
    rec, cert = worked_glue
    assert cert.passed
    got = {frozenset(x.graded_multiset().items()) for x, _, _ in cert.decomposition}
    P = {v: ProjComplex.stalk(rec.A, v) for v in rec.A.quiver.vertices}
    want = {
        frozenset(shift(P["1"], 1).graded_multiset().items()),
        frozenset(P["2"].graded_multiset().items()),
        frozenset(P["3"].graded_multiset().items()),
    }
    assert got == want
    assert all(m == 1 for _, m, _ in cert.decomposition)


def test_glue_anchor_triangle(worked_glue):
    rec, cert = worked_glue
    (tri,) = cert.triangles
    assert tri["s"] == 1
    assert tri["M"].graded_multiset() == {-2: ("3",), -1: ("1", "3"), 0: ("2",)}
    assert tri["V"].graded_multiset() == {-1: ("1",), 0: ("2",)}
    assert tri["U"].graded_multiset() == {-2: ("3",), -1: ("3",)}


def test_glue_anchor_reports(worked_glue):
    rec, cert = worked_glue
    assert cert.reports["star_condition"]["ok"]
    assert cert.reports["presilting"]["ok"]
    assert cert.reports["generation"]["status"] == "generated"
    assert cert.reports["k0"]["unimodular"]
    assert abs(cert.reports["k0"]["det"]) == 1


def test_glue_rejects_positive_input():
    rec = idempotent_recollement(ka3_algebra(), ["3"])
    bad_B = [canonical_quotient_silting(rec, shifted=("2",))]  # P1 -> P2[1] map
    with pytest.raises(GlueError, match="not non-positive"):
        glue(rec, [canonical_corner_silting(rec)], bad_B)
    bad_C = [shift(canonical_corner_silting(rec), 1), canonical_corner_silting(rec)]
    with pytest.raises(GlueError, match="T_C"):
        glue(rec, bad_C, [canonical_quotient_silting(rec)])


def test_glue_empty_quotient_part():
    rec = idempotent_recollement(ka3_algebra(), ["3"])
    cert = glue(rec, [canonical_corner_silting(rec)], [])
    assert cert.tildes == []
    # only j_! of the corner silting survives; it is presilting but cannot
    # generate the whole category
    assert cert.reports["presilting"]["ok"]
    assert cert.reports["generation"]["status"] == "not generated"
    assert cert.reports["generation"]["missing"] == ["1", "2"]
    assert cert.reports["co_aisle_agreement"] == {"status": "undecided", "ok": False}
    assert not cert.passed


@pytest.mark.parametrize("name,rec,T_B", glue_fixtures(), ids=[f[0] for f in glue_fixtures()])
def test_glue_fixture_matrix(name, rec, T_B):
    T_C = [canonical_corner_silting(rec)]
    cert = glue(rec, T_C, T_B)
    assert cert.passed, cert.reports
    assert cert.reports["co_aisle_agreement"] == {"status": "agree", "ok": True, "failures": []}
    # the glued set has exactly one K_0 class per vertex
    assert cert.reports["k0"]["square"]


@pytest.mark.parametrize("name,rec,T_B", glue_fixtures(), ids=[f[0] for f in glue_fixtures()])
def test_shortcut_agrees_with_glue(name, rec, T_B):
    """On every fixture, the envelopes read off i_*T_Y's summands give the stage route's triangles and set.

    Both glues pass, and their triangles, glued sets and decompositions
    are equal byte for byte.
    """
    T_C = [canonical_corner_silting(rec)]
    split, enveloped = glue(rec, T_C, T_B), glue_by_envelope(rec, T_C, T_B)
    assert split.passed and enveloped.passed, split.reports
    assert [triangle_json(t) for t in split.triangles] == [triangle_json(t) for t in enveloped.triangles]
    assert [complex_to_json(t) for t in split.T] == [complex_to_json(t) for t in enveloped.T]
    assert _serialized(split.decomposition) == _serialized(enveloped.decomposition)


def _serialized(decomposition):
    return json.dumps([[serialize.complex_to_json(c), m, ok] for c, m, ok in decomposition], sort_keys=True)


@pytest.mark.parametrize("copies", [1, 2], ids=["T_B", "T_B+T_B"])
@pytest.mark.parametrize("shortcut", [False, True], ids=["glue", "shortcut"])
@pytest.mark.parametrize("name,rec,T_B", glue_fixtures(), ids=[f[0] for f in glue_fixtures()])
def test_decomposition_equals_decompose_of_the_sum(name, rec, T_B, shortcut, copies):
    # read off the members' summand classes, byte for byte what splitting (+)T from scratch gives,
    # with envelopes read off i_*T_Y's summands ("shortcut") and by their stages ("glue")
    T_B = T_B * copies
    cert = (glue if shortcut else glue_by_envelope)(rec, [canonical_corner_silting(rec)], T_B)
    assert _serialized(cert.decomposition) == _serialized(decompose(direct_sum_many(rec.A, cert.T)))
    assert max(m for _, m, _ in cert.decomposition) == copies


def test_glue_takes_the_envelope_for_an_s_summand_in_degree_0(monkeypatch):
    """T_B in degree 1 puts an S-summand of i_*T_Y in degree 0: the envelope's split declines, its stages run, and
    the glue passes."""
    rec = idempotent_recollement(ka3_algebra(), ["3"])
    splits, stages = [], []
    split, stage = approx._stalk_split, approx._susp_envelope_stage
    monkeypatch.setattr(approx, "_stalk_split", lambda *args: splits.append(out := split(*args)) or out)
    monkeypatch.setattr(approx, "_susp_envelope_stage", lambda *args: stages.append(out := stage(*args)) or out)
    cert = glue(rec, [canonical_corner_silting(rec)], [shift(canonical_quotient_silting(rec), -1)])
    assert splits[0] is None and stages[0] is None  # the i_*T_Y envelope, with no s >= 0; the generation check's follow
    M = cert.triangles[0]["M"]
    assert 0 in M.components and "3" in M.components[0]
    assert cert.triangles[0]["trace"] == [] and cert.triangles[0]["V"] == M
    assert cert.passed, cert.reports


def test_corrupted_certificate_fails_star():
    # skip the envelope correction: T~ := i_* T_B directly leaves a positive
    # Hom against j_! T_C[1] and the star report must catch it
    name, rec, T_B = glue_fixtures()[0]
    T_C = [canonical_corner_silting(rec)]
    cert = glue(rec, T_C, T_B)
    tampered = glue(rec, T_C, T_B)
    tampered.tildes = [tri["M"] for tri in tampered.triangles]
    tampered.triangles = [dict(tri, V=tri["M"], U=ProjComplex.zero(rec.A), trace=[]) for tri in tampered.triangles]
    rep = check_star_condition(tampered)
    assert not rep["ok"]
    assert rep["failures"]
    assert cert.reports["star_condition"]["ok"]


def test_co_aisle_agreement_random_probes():
    """The exact check passes, and so every probe, random ones included, agrees (the former probe check)."""
    name, rec, T_B = glue_fixtures()[1]
    cert = glue(rec, [canonical_corner_silting(rec)], T_B)
    assert check_co_aisle_agreement(cert) == {"status": "agree", "ok": True, "failures": []}
    rng = seeded_rng(55)
    probes = [random_complex(rec.A, rng, steps=2, max_width=4) for _ in range(4)]
    rep = former_co_aisle_agreement(cert, probes)
    assert rep["ok"]
    assert len(rep["probes"]) == 4


def _recertified(cert, T_B=None, shift_by=0):
    """cert's glue with each T~_Y shifted by `shift_by`, or checked against another T_B, certified afresh."""
    tildes = [shift(t, shift_by) for t in cert.tildes]
    T = cert.jT + [t for t in tildes if not t.is_zero()]
    T_B = cert.T_B if T_B is None else T_B
    faulty = GlueCertificate(cert.rec, cert.T_C, T_B, cert.jT, tildes, cert.triangles, T)
    return gluing._certify(faulty, decompose_result=False)


def _true_glues(field):
    """(name, rec, T_C, T_B): the fixtures with T_C = C and with T_C = C[1], and the A8 and A16 staircases."""
    for name, rec, T_B in glue_fixtures(field):
        yield name, rec, [canonical_corner_silting(rec)], T_B
        yield f"{name}[1]", rec, [shift(canonical_corner_silting(rec), 1)], T_B
    for n in (8, 16):
        rec = idempotent_recollement(linear_an(n, field), [str(i) for i in range(n // 2 + 1, n + 1)])
        yield f"A{n}", rec, _staircase(rec.C), _staircase(rec.B)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
def test_co_aisle_check_passes_true_glues_and_fails_shifted_tildes(monkeypatch, field):
    """Every true glue passes by `==` alone; T~_Y[1] or T~_Y[-1] in place of every T~_Y fails.

    A fault whose set is still silting is decided, and fails at every Y;
    the others are "undecided".  The stalk probes of the former check pass
    every decided T~_Y[1] fault.
    """
    def no_isomorphism_test(*args):
        raise AssertionError("== failed on a true glue")

    glues, decided = 0, {1: 0, -1: 0}
    for name, rec, T_C, T_B in _true_glues(field):
        with monkeypatch.context() as mp:
            mp.setattr(gluing, "is_isomorphic", no_isomorphism_test)
            cert = glue(rec, T_C, T_B, decompose_result=False)
        assert cert.passed, (name, cert.reports)
        assert cert.reports["co_aisle_agreement"] == {"status": "agree", "ok": True, "failures": []}, name
        glues += 1
        for k in (1, -1):
            fault = _recertified(cert, shift_by=k)
            rep = fault.reports["co_aisle_agreement"]
            assert not rep["ok"], (name, k)
            if rep["status"] != "undecided":
                assert rep["failures"] == list(range(len(T_B))), (name, k)
                decided[k] += 1
                stalks = [ProjComplex.stalk(rec.A, v) for v in rec.A.quiver.vertices]
                assert former_co_aisle_agreement(fault, stalks)["ok"] == (k == 1), (name, k)
    assert glues == 14 and decided == {1: 8, -1: 5}, (glues, decided)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
def test_co_aisle_check_fails_the_ka3_wrong_pairs(field):
    """ka3's glue of the shifted T_B checked against the canonical T_B fails, and the other way round."""
    rec = idempotent_recollement(ka3_algebra(field), ["3"])
    T_C = [canonical_corner_silting(rec)]
    pair = [[canonical_quotient_silting(rec, shifted=("1",))], [canonical_quotient_silting(rec)]]
    for T_B, other in (pair, pair[::-1]):
        cert = glue(rec, T_C, T_B)
        assert cert.reports["co_aisle_agreement"]["ok"]
        wrong = _recertified(cert, T_B=other).reports
        assert wrong["presilting"]["ok"] and wrong["generation"]["ok"]
        assert wrong["co_aisle_agreement"] == {"status": "differ", "ok": False, "failures": [0]}


def test_co_aisle_check_minimizes_t_y_and_falls_back_to_is_isomorphic(monkeypatch):
    """A T_Y with a contractible summand is minimized, then equal by `==`; a T_Y isomorphic to the glued one but not
    equal passes by `is_isomorphic`."""
    rec = idempotent_recollement(ka3_algebra(), ["3"])
    contractible = make_complex(rec.B, {-1: ("1",), 0: ("1",)}, {-1: PathMatrix.identity(rec.B, ("1",))})
    T_Y = direct_sum(canonical_quotient_silting(rec, shifted=("1",)), contractible)
    assert not is_minimal(T_Y)
    minimized, isomorphism_tests = [], []
    monkeypatch.setattr(gluing, "minimize", lambda X: minimized.append(X) or complexes.minimize(X))
    monkeypatch.setattr(gluing, "is_isomorphic", lambda X, Y: isomorphism_tests.append(Y) or is_isomorphic(X, Y))
    cert = glue(rec, [canonical_corner_silting(rec)], [T_Y])
    assert cert.passed and (minimized, isomorphism_tests) == ([T_Y], []), cert.reports
    rec = idempotent_recollement(linear_an(8), [str(i) for i in range(5, 9)])
    T_Y = direct_sum_many(rec.B, _staircase(rec.B))
    twisted = conjugated(T_Y, 1)
    assert twisted != T_Y and is_minimal(twisted)
    cert = _recertified(glue(rec, _staircase(rec.C), [T_Y]), T_B=[twisted])
    assert cert.reports["co_aisle_agreement"]["ok"] and isomorphism_tests == [twisted]


def _multisets(cert):
    return [(sorted(x.graded_multiset().items()), m) for x, m, _ in cert.decomposition]


def test_glue_matrix_over_prime_fields():
    """Every gluing fixture, rebuilt over F_5, F_2 and F_2^31-1, glues by the envelopes' stages and their split.

    Each passes with generation "generated" and a certified decomposition
    whose graded multisets are those over Q.  The whole matrix, sympy's
    first import included, runs within a 20 s budget.
    """

    def too_slow(_signum, _frame):
        raise TimeoutError("the gluing matrix over prime fields ran for more than 20 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        for field in (PrimeField(5), PrimeField(2), PrimeField(2147483647)):
            for (name, rec, T_B), (_, rec_q, T_B_q) in zip(glue_fixtures(field), glue_fixtures()):
                expected = _multisets(glue(rec_q, [canonical_corner_silting(rec_q)], T_B_q))
                for route in (glue, glue_by_envelope):
                    cert = route(rec, [canonical_corner_silting(rec)], T_B)
                    assert cert.passed, (field, name, cert.reports)
                    assert cert.reports["generation"]["status"] == "generated"
                    assert _multisets(cert) == expected, (field, name)
                    assert all(ok for _, _, ok in cert.decomposition)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_k0_report_over_fp_splits_its_input():
    # P1 (+) P2 (+) P3 given as one complex over F_5 is split into its three summand classes
    A = ka3_algebra(PrimeField(5))
    total = direct_sum_many(A, [ProjComplex.stalk(A, v) for v in A.quiver.vertices])
    rep = k0_report(summand_classes([total]), A)
    assert rep["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rep["ok"] and rep["det"] == 1
    assert "status" not in rep


def test_k0_report_eliminates_once(monkeypatch, ka3):
    """A non-zero determinant gives the rank; `rank` runs only for a singular or non-square matrix."""
    ranks = []
    orig = gluing.rank
    monkeypatch.setattr(gluing, "rank", lambda mat: ranks.append(mat.rows) or orig(mat))
    A, P = ka3["A"], ka3["P"]
    rep = k0_report(summand_classes([P["1"], P["2"], P["3"]]), A)
    assert (rep["rank"], rep["square"], rep["det"], rep["ok"]) == (3, True, 1, True)
    assert ranks == []
    rep = k0_report(summand_classes([P["1"], shift(P["1"], 1), P["2"]]), A)  # [P1[1]] = -[P1]
    assert (rep["rank"], rep["square"], rep["det"], rep["ok"]) == (2, True, None, False)
    rep = k0_report(summand_classes([P["1"], P["2"]]), A)
    assert (rep["rank"], rep["square"], rep["det"], rep["ok"]) == (2, False, None, False)
    assert ranks == [3, 2]


def _generation(T_list):
    return check_generation(T_list[0].algebra, summand_classes(T_list), check_presilting(T_list))


def test_generation_refutes_a_presilting_set(ka3):
    """P1 (+) P2 is presilting, and the envelope of P3 has a non-zero cocone: "not generated"."""
    P = ka3["P"]
    rep = _generation([P["1"], P["2"]])
    witnesses = {"1": ("input[0]", 0), "2": ("input[1]", 0)}
    assert rep == {"status": "not generated", "ok": False, "missing": ["3"], "objects": 2, "witnesses": witnesses}
    assert _generation([P["1"], P["2"], P["3"]])["status"] == "generated"


def test_generation_approximates_nothing_for_a_set_that_is_not_presilting(monkeypatch, ka3):
    """I2, S2, P3 is not presilting: the vertices its stalks miss are "undecided", with no envelope taken."""
    monkeypatch.setattr(gluing, "susp_envelope", None)
    rep = _generation([ka3["I2"], ka3["S2"], ka3["P"]["3"]])
    witnesses = {"3": ("input[2]", 0)}
    assert rep == {"status": "undecided", "ok": False, "missing": ["1", "2"], "objects": 3, "witnesses": witnesses}


def _staircase(alg):
    """P_v1 and the P_vm -> P_vi, i < m, in degrees -1 and 0, over a linear quiver v1 -> ... -> vm.

    Each differential is the path vi -> vm; the set is 2-term silting.
    """
    verts = list(alg.quiver.vertices)
    vm = verts[-1]
    steps = [
        make_complex(alg, {-1: (vm,), 0: (vi,)}, {-1: PathMatrix(alg, (vi,), (vm,), [[alg.path_element(path)]])})
        for vi in verts[:-1]
        for (path,) in [alg.paths_between(vi, vm)]
    ]
    return [ProjComplex.stalk(alg, verts[0])] + steps


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
def test_staircase_glue_on_a16_passes(tmp_path, field):
    """The staircases over the two halves of A16 glue to a silting set, and the `glue` verb exits 0.

    The glued set has a stalk summand at two vertices only, so generation
    is decided at the other fourteen by one envelope each.
    """
    rec = idempotent_recollement(linear_an(16, field), [str(i) for i in range(9, 17)])
    T_C, T_B = _staircase(rec.C), _staircase(rec.B)
    cert = glue(rec, T_C, T_B)
    assert cert.passed, cert.reports
    gen = cert.reports["generation"]
    assert gen["status"] == "generated" and sorted(gen["witnesses"]) == sorted(rec.A.quiver.vertices)
    envelopes = [w for w in gen["witnesses"].values() if isinstance(w, dict)]
    assert len(envelopes) == 14  # all but the stalks P1 and P9
    assert all(w["degree"] == -1 for w in envelopes)  # the staircases' lowest degree
    args = ["glue"]
    for key, alg in (("A", rec.A), ("C", rec.C), ("B", rec.B)):
        serialize.save_algebra(alg, str(tmp_path / f"{key}.json"))
    args += [str(tmp_path / "A.json"), "--e", ",".join(rec.S)]
    for opt, key, T in (("--tc", "C", T_C), ("--tb", "B", T_B)):
        for i, t in enumerate(T):
            path = tmp_path / f"t{key}{i}.json"
            serialize.save_complex(t, str(path), algebra_ref=f"{key}.json")
            args += [opt, str(path)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.stdout)["passed"] is True


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
def test_approximations_generate_every_vertex_of_the_glued_fixtures(field):
    """At every vertex, stalk or not, the envelope of P_v in the lowest degree of a glued fixture set has V = 0."""
    for name, rec, T_B in glue_fixtures(field):
        cert = glue(rec, [canonical_corner_silting(rec)], T_B)
        T_list = [c for c, _m, _certified, _ti in summand_classes(cert.T)]
        lo = min(c.lo for c in T_list)
        for v in rec.A.quiver.vertices:
            assert susp_envelope(ProjComplex.stalk(rec.A, v, lo), T_list).V.is_zero(), (name, v)


def test_staircase_generation_takes_one_envelope_per_vertex(monkeypatch):
    """On the A16 staircase glue, `check_generation` takes 14 envelopes, one per non-stalk vertex, and no precover."""
    rec = idempotent_recollement(linear_an(16), [str(i) for i in range(9, 17)])
    T = glue(rec, _staircase(rec.C), _staircase(rec.B)).T
    classes, presilting = summand_classes(T), check_presilting(T)
    calls = []

    def spy(name, f):
        return lambda *args: calls.append(name) or f(*args)

    monkeypatch.setattr(gluing, "susp_envelope", spy("envelope", susp_envelope))
    monkeypatch.setattr(approx, "cosusp_precover", spy("precover", approx.cosusp_precover))
    assert check_generation(rec.A, classes, presilting)["status"] == "generated"
    assert calls == ["envelope"] * 14
    assert not hasattr(gluing, "cosusp_precover")


def test_envelopes_with_minimal_ends_build_no_cone(monkeypatch):
    """On the glued fixtures' envelopes and the A16 staircase's generation check, no stage or final cone whose map has
    minimal ends calls `cone`, `cocone` or `minimize`: each eliminates the map's unit block directly.

    Every binding the envelope code can reach is spied on: complexes' own
    and any that approx imports.  `cone` and `cocone` fail on a map with
    minimal ends, and `minimize` on any complex but one they built or the
    input of an envelope (minimized when it takes no stage).
    """
    def minimal(X):
        return not any(not p.arrows for d in X.differentials.values() for t in d.cells.values() for p in t)

    built, inputs, traces = [], [], []

    def building(real):
        def spy(f):
            assert not (minimal(f.source) and minimal(f.target)), "a cone or cocone of a map with minimal ends"
            out = real(f)
            built.append(out[0] if isinstance(out, tuple) else out)
            return out
        return spy

    def minimizing(real):
        def spy(X):
            assert any(X is Y for Y in built + inputs), "minimize of a complex that is not a built cone or an input"
            return real(X)
        return spy

    def enveloping(M, T_list):
        inputs.append(M)
        out = envelope(M, T_list)
        traces.append(out[4])
        return out

    envelope = approx._envelope
    monkeypatch.setattr(approx, "_envelope", enveloping)
    for module in (complexes, approx):
        for name, wrap in (("cone", building), ("cocone", building), ("minimize", minimizing)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    monkeypatch.setattr(approx, "_stalk_split", lambda *args: None)  # these would be read off i_*T_Y's summands
    for _name, rec, T_B in glue_fixtures():
        targets = [shift(j_lower_shriek(rec, canonical_corner_silting(rec)), 1)]
        for T_Y in T_B:
            susp_envelope(i_star(rec, T_Y), targets)
        assert glue(rec, [canonical_corner_silting(rec)], T_B).passed
    rec = idempotent_recollement(linear_an(16), [str(i) for i in range(9, 17)])
    T = glue(rec, _staircase(rec.C), _staircase(rec.B)).T
    assert check_generation(rec.A, summand_classes(T), check_presilting(T))["status"] == "generated"
    assert sum(len(trace) + bool(trace) for trace in traces) >= 90  # stages and final cones
    assert built == []  # every one of them has minimal ends


def _subsets(xs, proper=False):
    return [list(c) for r in range(len(xs) + (not proper)) for c in itertools.combinations(xs, r)]


def _generation_families(field):
    """(algebra, set) pairs on which one envelope per vertex is checked against the envelope and the precover.

    Each glued fixture and all its proper subsets of summand classes; the
    A8 and A12 staircase glues; the A8 staircase with one member dropped,
    and shifted by 2; every subset of I2, S2, P1, P2, P3 over ka3; every
    set of stalks in degrees 0 to 2 over A4 and the three-leaf star.
    """
    for _name, rec, T_B in glue_fixtures(field):
        T = glue(rec, [canonical_corner_silting(rec)], T_B).T
        yield from ((rec.A, S) for S in [T] + _subsets([c for c, _m, _certified, _ti in summand_classes(T)], True))
    for n in (8, 12):
        rec = idempotent_recollement(linear_an(n, field), [str(i) for i in range(n // 2 + 1, n + 1)])
        yield rec.A, glue(rec, _staircase(rec.C), _staircase(rec.B)).T
    A8 = linear_an(8, field)
    stair = _staircase(A8)
    yield from ((A8, stair[:i] + stair[i + 1 :]) for i in range(len(stair)))
    yield A8, [shift(t, 2) for t in stair]
    ka3 = ka3_named_complexes(ka3_algebra(field))
    yield from ((ka3["A"], S) for S in _subsets([ka3["I2"], ka3["S2"], *ka3["P"].values()]))
    for alg in (linear_an(4, field), star_quiver(3, field)):
        verts = list(alg.quiver.vertices)
        for degrees in itertools.product((None, 0, 1, 2), repeat=len(verts)):
            yield alg, [ProjComplex.stalk(alg, v, d) for v, d in zip(verts, degrees) if d is not None]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
def test_one_envelope_decides_generation_as_the_envelope_and_precover_did(field):
    """At every vertex of every presilting set of the families, `check_generation` misses P_v exactly when the
    precover of the envelope cocone of P_v, the former rule, is not zero; both verdicts occur."""
    compared, statuses, envelopes = 0, set(), 0
    for alg, T in _generation_families(field):
        presilting = check_presilting(T)
        if not presilting["ok"]:
            continue
        classes = summand_classes(T)
        rep = check_generation(alg, classes, presilting)
        stalks = {v for v, w in rep["witnesses"].items() if isinstance(w, tuple)}
        T_list = [c for c, _m, _certified, _ti in classes]
        former = [v for v in alg.quiver.vertices if v not in stalks and not former_generated(alg, T_list, v)]
        assert rep.get("missing", []) == former, (alg.quiver.vertices, T, rep)
        compared += 1
        statuses.add(rep["status"])
        envelopes += sum(isinstance(w, dict) for w in rep["witnesses"].values())
    assert compared == 438 and statuses == {"generated", "not generated"} and envelopes, (compared, envelopes)
