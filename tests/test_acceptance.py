"""End-to-end acceptance checks for the gluing pipeline.

Each test exercises one externally visible guarantee: the worked small
example, the staged envelope triangle, the intermediate-extension fixtures,
the statistic, corner-split agreement, randomized envelope properties, the
independent Hom oracle, the exact co-aisle check (with the former
probe check, which its verdict implies), and the silting certificates on
every shipped fixture.
"""

import time

import pytest

from conftest import glue_by_envelope, random_complex, random_quiver, seeded_rng
from former import cocone, former_co_aisle_agreement
from siltglue.fields import QQ, PrimeField
from siltglue.quiver import build_algebra
from siltglue.complexes import ProjComplex, direct_sum, minimize, shift
from siltglue.homs import HomSpace, hom_dim_table, hom_window, is_nonpositive, s_sup
from siltglue.approx import (
    add_shift_preenvelope,
    indecomposable_refinement,
    left_minimize,
    susp_envelope,
)
from siltglue.decompose import is_isomorphic
from siltglue.fixtures import (
    canonical_quotient_silting,
    glue_fixtures,
    ka3_named_complexes,
)
from siltglue.gluing import canonical_corner_silting, check_co_aisle_agreement, glue
from siltglue.recollement import i_star, idempotent_recollement
from oracle import oracle_hom_dim
from verifiers import check_left_minimality, factors_through


@pytest.fixture(scope="module")
def ka3_glue():
    ka3 = ka3_named_complexes()
    rec = idempotent_recollement(ka3["A"], ["3"])
    T_B = [canonical_quotient_silting(rec, shifted=("1",))]
    start = time.monotonic()
    cert = glue(rec, [canonical_corner_silting(rec)], T_B)
    elapsed = time.monotonic() - start
    return ka3, rec, cert, elapsed


@pytest.fixture(scope="module")
def glued_fixtures():
    out = []
    for name, rec, T_B in glue_fixtures():
        cert = glue(rec, [canonical_corner_silting(rec)], T_B)
        out.append((name, rec, T_B, cert))
    return out


def _same_classes(parts_a, parts_b):
    if len(parts_a) != len(parts_b):
        return False
    used = set()
    for x, mx, _ in parts_a:
        hit = None
        for i, (y, my, _) in enumerate(parts_b):
            if i not in used and mx == my and is_isomorphic(x, y).isomorphic:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


# 1: the worked example end to end


def test_glued_set_is_shifted_projective_generator(ka3_glue):
    ka3, rec, cert, elapsed = ka3_glue
    assert elapsed < 1.0
    assert cert.passed
    P = ka3["P"]
    want = [(shift(P["1"], 1), 1, True), (P["2"], 1, True), (P["3"], 1, True)]
    assert _same_classes(cert.decomposition, want)


# 2: the intermediate envelope triangle, including both staged cocones


def test_envelope_triangle_termwise(ka3_glue):
    ka3, rec, cert, _ = ka3_glue
    (tri,) = cert.triangles
    P = ka3["P"]
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    assert is_isomorphic(tri["M"], M).isomorphic
    assert is_isomorphic(tri["V"], direct_sum(shift(P["1"], 1), P["2"])).isomorphic
    assert is_isomorphic(
        tri["U"], direct_sum(shift(P["3"], 2), shift(P["3"], 1))
    ).isomorphic


def test_envelope_staged_cocones(ka3):
    P = ka3["P"]
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    T = [shift(P["3"], 1)]
    pre1 = left_minimize(add_shift_preenvelope(M, T, 1))
    C1 = minimize(cocone(pre1.f)[0]).complex
    assert is_isomorphic(C1, direct_sum(shift(P["1"], 1), ka3["S2"])).isomorphic
    pre2 = left_minimize(add_shift_preenvelope(C1, T, 0))
    C2 = minimize(cocone(pre2.f)[0]).complex
    assert is_isomorphic(C2, direct_sum(shift(P["1"], 1), P["2"])).isomorphic


# 3: intermediate extension of the quotient projectives


def test_intermediate_extension_fixtures(ka3):
    rec = idempotent_recollement(ka3["A"], ["3"])
    for v, target in (("1", ka3["I2"]), ("2", ka3["S2"])):
        img = minimize(i_star(rec, ProjComplex.stalk(rec.B, v))).complex
        assert is_isomorphic(img, target).isomorphic


# 4: the approximation statistic on the worked example


def test_statistic_value(ka3):
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    assert s_sup(M, [shift(ka3["P"]["3"], 1)]) == 1


# 5: the envelopes read off i_*T_Y's summands (the former shortcut) agree with their stages across the fixture matrix


def test_shortcut_add_equivalent_on_all_fixtures():
    fixtures = glue_fixtures()
    assert len(fixtures) >= 5
    start = time.monotonic()
    for name, rec, T_B in fixtures:
        cert = glue_by_envelope(rec, [canonical_corner_silting(rec)], T_B)
        short = glue(rec, [canonical_corner_silting(rec)], T_B)
        assert cert.passed and short.passed, name
        assert _same_classes(cert.decomposition, short.decomposition), name
    assert time.monotonic() - start < 30.0


# 6: randomized envelope properties


def test_envelope_property_suite():
    start = time.monotonic()
    nontrivial = 0
    for seed in range(50):
        rng = seeded_rng(4000 + seed)
        alg = build_algebra(random_quiver(rng, max_vertices=5), QQ)
        M = random_complex(alg, rng, steps=2, max_width=4)
        while True:
            T = [random_complex(alg, rng, steps=1, max_width=3) for _ in range(rng.randint(1, 2))]
            if is_nonpositive(T)[0]:
                break
        s = s_sup(M, T)
        env = susp_envelope(M, T)  # certifies cocone orthogonality internally
        assert env.certificates["cocone_orthogonal"]
        if s is None:
            assert env.U.is_zero()
            continue
        nontrivial += 1
        refined = indecomposable_refinement(T)
        pre = left_minimize(add_shift_preenvelope(M, refined, s))
        assert check_left_minimality(pre)
        C = minimize(cocone(pre.f)[0]).complex
        sC = s_sup(C, T)
        assert sC is None or sC < s
        # factorization universality against a random suspended-hull object
        W = shift(T[rng.randrange(len(T))], rng.randint(0, 2))
        for t in HomSpace(M, W, 0).basis_maps()[:2]:
            assert factors_through(env.f, t)
    assert nontrivial >= 15
    assert time.monotonic() - start < 60.0


# 7: the independent Hom oracle


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_hom_tables_match_oracle(field):
    rng = seeded_rng(4100)
    algs = [build_algebra(random_quiver(rng, max_vertices=4), field) for _ in range(4)]
    complexes = []
    for alg in algs:
        for _ in range(5):
            complexes.append(random_complex(alg, rng, steps=2, max_width=3, shift_range=1))
    assert len(complexes) == 20
    for X in complexes:
        for Y in complexes:
            if X.algebra != Y.algebra:
                continue
            lo, hi = hom_window(X, Y)
            table = hom_dim_table(X, Y)
            for k in range(lo, hi + 1):
                assert table[k] == oracle_hom_dim(X, Y, k)


# 8: co-aisle agreement, exact, and so on a rich probe set


def test_co_aisle_agreement_on_all_fixtures(glued_fixtures):
    for name, rec, T_B, cert in glued_fixtures:
        assert check_co_aisle_agreement(cert) == {"status": "agree", "ok": True, "failures": []}, name
        assert cert.reports["co_aisle_agreement"]["ok"], name
        rng = seeded_rng(4200)
        probes = [ProjComplex.stalk(rec.A, v) for v in rec.A.quiver.vertices]
        probes += list(cert.T)
        probes += [tri["M"] for tri in cert.triangles]
        probes += [random_complex(rec.A, rng, steps=1, max_width=3) for _ in range(10)]
        rep = former_co_aisle_agreement(cert, probes)
        assert rep["ok"], (name, rep)


# 9: silting certificates on every fixture


def test_silting_certificates_on_all_fixtures(glued_fixtures):
    for name, rec, T_B, cert in glued_fixtures:
        assert cert.reports["presilting"]["ok"], name
        gen = cert.reports["generation"]
        assert gen["status"] == "generated", name
        assert gen["witnesses"], name
        k0 = cert.reports["k0"]
        assert k0["unimodular"] and abs(k0["det"]) == 1, name
