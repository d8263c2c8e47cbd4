from collections import Counter
import itertools
import json
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import conjugated, random_complex, random_quiver, seeded_rng, triangle_json
from former import (
    cocone,
    cone,
    former_cosusp_precover,
    former_envelope,
    former_envelope_tail,
    former_left_minimize,
)
from oracle import oracle_hom_dim
from siltglue.fields import QQ, PrimeField
from siltglue.quiver import Quiver, build_algebra
from siltglue import approx
from siltglue.fixtures import glue_fixtures
from siltglue.gluing import canonical_corner_silting
from siltglue.recollement import i_star, j_lower_shriek
from siltglue.serialize import algebra_from_json, chain_map_to_json, complex_from_json, complex_to_json
from siltglue.complexes import (
    ChainMap,
    ComplexError,
    PathMatrix,
    ProjComplex,
    direct_sum,
    direct_sum_many,
    is_minimal,
    minimal_cone,
    minimize,
    opposite_complex,
    shift,
)
from siltglue.homs import HomSpace, hom_dim, hom_window, is_nonpositive, s_sup
from siltglue.approx import (
    ApproxError,
    _stack,
    add_shift_preenvelope,
    cosusp_precover,
    indecomposable_refinement,
    left_minimize,
    susp_envelope,
)
from siltglue.decompose import is_isomorphic
from verifiers import certify_preenvelope, check_left_minimality, factors_through, weakly_preenveloping_check

FIELDS = [QQ, PrimeField(5), PrimeField(2147483647)]
FIELD_IDS = ["Q", "F5", "F2147483647"]


def test_preenvelope_anchor_h(ka3):
    # the add(P3[1])[1]-envelope of I2[1] (+) S2 has target P3[2]
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    T = [shift(ka3["P"]["3"], 1)]
    pre = left_minimize(add_shift_preenvelope(M, T, 1))
    assert pre.f.target.graded_multiset() == {-2: ("3",)}
    assert check_left_minimality(pre)


def test_preenvelope_anchor_g(ka3):
    # second stage: P1[1] (+) S2 has add(P3[1])[0]-envelope with target P3[1]
    M = direct_sum(shift(ka3["P"]["1"], 1), ka3["S2"])
    T = [shift(ka3["P"]["3"], 1)]
    pre = left_minimize(add_shift_preenvelope(M, T, 0))
    assert pre.f.target.graded_multiset() == {-1: ("3",)}


def test_preenvelope_identity(ka3):
    P3 = ka3["P"]["3"]
    pre = left_minimize(add_shift_preenvelope(P3, [P3], 0))
    assert pre.f.target.graded_multiset() == P3.graded_multiset()
    assert check_left_minimality(pre)


def test_left_minimize_drops_redundant_copy(ka3):
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    T = [shift(ka3["P"]["3"], 1), shift(ka3["P"]["3"], 1)]  # doubled member
    pre = add_shift_preenvelope(M, T, 1)
    assert pre.f.target.summand_count() == 2
    mini = left_minimize(pre)
    assert mini.f.target.summand_count() == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_left_minimize_against_the_assembled_certificate(field):
    """The kept copies pass the certificate on the assembled map, and none can go.

    Every other instance repeats a member, so that some copies are redundant.
    """
    hits = deleted = 0
    for seed in range(24):
        rng = seeded_rng(5100 + seed)
        alg = build_algebra(random_quiver(rng, max_vertices=4), field)
        M = random_complex(alg, rng, steps=2, max_width=3)
        T = [random_complex(alg, rng, steps=1, max_width=3) for _ in range(rng.randint(1, 3))]
        if seed % 2:
            T.append(T[0])
        s = s_sup(M, T)
        if s is None:
            continue
        hits += 1
        pre = add_shift_preenvelope(M, T, s)
        mini = left_minimize(pre)
        assert set(mini.copies) <= set(pre.copies)
        deleted += len(pre.copies) - len(mini.copies)
        assert certify_preenvelope(mini.f, T, s)
        reps = [HomSpace(M, X, s).basis_maps() for X in T]
        for i in range(len(mini.copies)):
            rest = mini.copies[:i] + mini.copies[i + 1 :]
            assert not certify_preenvelope(_stack(M, [reps[ti][ri] for ti, ri in rest]), T, s)
    assert hits >= 16 and deleted >= 10


def _undecided(pre):
    """The copies whose need Hom dimensions leave open: some other copy, of member tk, has
    Hom(T_tk, T_ti) != 0 (tk != ti) or dim End(T_ti) > 1 (tk = ti), for the copy's member ti."""
    T = pre.T_list

    def reaches(tk, ti):
        return HomSpace(T[tk], T[ti], 0).dim > (tk == ti)

    return [
        c for c, (ti, _) in enumerate(pre.copies)
        if any(reaches(tk, ti) for k, (tk, _) in enumerate(pre.copies) if k != c)
    ]


def test_left_minimize_tries_each_copy_once(ka3, monkeypatch):
    """At most one rank test per copy, and none for a copy that Hom dimensions keep.

    On I2 (+) S2 against [P3, P2] the two copies of P3 are kept by
    dimensions (End(P3) = k, Hom(P2, P3) = 0) and the copy of P2 alone is
    tested and dropped.  On the random instances, over each field, every
    copy left open is tested exactly once.
    """
    tests = []
    orig = approx._is_preenvelope
    monkeypatch.setattr(approx, "_is_preenvelope", lambda *args: tests.append(1) or orig(*args))
    P = ka3["P"]
    pre = add_shift_preenvelope(direct_sum(ka3["I2"], ka3["S2"]), [P["3"], P["2"]], 1)
    assert left_minimize(pre).copies == [(0, 0), (0, 1)] and len(pre.copies) == 3 and len(tests) == 1
    tested = 0
    for field, seed in itertools.product(FIELDS, range(24)):
        rng = seeded_rng(5100 + seed)
        alg = build_algebra(random_quiver(rng, max_vertices=4), field)
        M = random_complex(alg, rng, steps=2, max_width=3)
        T = [random_complex(alg, rng, steps=1, max_width=3) for _ in range(rng.randint(1, 3))]
        s = s_sup(M, T + T[:1])
        if s is not None:
            tests.clear()
            pre = add_shift_preenvelope(M, T + T[:1], s)
            left_minimize(pre)
            assert len(tests) == len(_undecided(pre)) <= len(pre.copies)
            tested += len(tests)
    assert tested >= 30


def _preenvelope_instances(field, seed, count):
    """`count` random preenvelopes, in turn with T repeating a member, T summing two members into a third, and T as drawn."""
    rng = seeded_rng(seed)
    out = []
    while len(out) < count:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.6), field)
        M = random_complex(alg, rng, steps=2, max_width=3)
        T = [random_complex(alg, rng, steps=1, max_width=3) for _ in range(rng.randint(1, 3))]
        kind = len(out) % 3
        if kind == 0:
            T.append(T[0])
        elif kind == 1:
            T.append(direct_sum(T[0], T[-1]))
        s = s_sup(M, T)
        if s is not None:
            out.append(add_shift_preenvelope(M, T, s))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_left_minimize_keeps_the_copies_every_test_keeps(field):
    """The copies equal those of the former form, which rank-tests every copy, on random preenvelopes.

    The instances repeat members, sum two members into a third, and have Hom
    between members, so that dimensions decide some copies, leave others
    open, and some open copies are dropped.
    """
    decided = opened = dropped = 0
    for pre in _preenvelope_instances(field, 5300, 30):
        mini = left_minimize(pre)
        assert mini.copies == former_left_minimize(pre).copies
        open_ = len(_undecided(pre))
        decided += len(pre.copies) - open_
        opened += open_
        dropped += len(pre.copies) - len(mini.copies)
    assert decided >= 8 and opened >= 10 and dropped >= 5


def test_each_minimality_test_reads_one_space(ka3, monkeypatch):
    """Each rank test reads Hom(M, T_ti[s]) alone, for the member ti of the copy it tests, and
    coordinates are taken only in the spaces of members with a tested copy.

    On I2 (+) S2 against [P3, P2] at s = 1 only the copy of P2 is undecided, so no coordinates are
    taken in Hom(M, P3[1]).  The random preenvelopes, over each field, also have non-zero spaces
    that no test reads.
    """
    coords, dims = [], []
    coordinates, is_preenvelope = HomSpace.coordinates, approx._is_preenvelope
    monkeypatch.setattr(HomSpace, "coordinates", lambda self, f: coords.append(self) or coordinates(self, f))
    monkeypatch.setattr(approx, "_is_preenvelope", lambda *args: dims.append(args[1]) or is_preenvelope(*args))
    P = ka3["P"]
    pres = [add_shift_preenvelope(direct_sum(ka3["I2"], ka3["S2"]), [P["3"], P["2"]], 1)]
    pres += [pre for field in FIELDS for pre in _preenvelope_instances(field, 5300, 30)]
    unread = 0
    for pre in pres:
        members = [pre.copies[c][0] for c in _undecided(pre)]
        coords.clear()
        dims.clear()
        left_minimize(pre)
        read = [pre.spaces[ti] for ti in set(members)]
        assert all(any(hs is space for space in read) for hs in coords)
        assert dims == [pre.spaces[ti].dim for ti in members]
        unread += sum(1 for hs in pre.spaces if hs is not None and hs.dim and not any(hs is space for space in read))
    assert pres[0].copies[2:] == [(1, 0)] and _undecided(pres[0]) == [2]
    assert unread >= 10


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_envelope_stage_keeps_the_former_copies(field, monkeypatch, staged):
    """Each preenvelope that an envelope or precover of the gluing fixtures and of the random sample
    minimizes, by its stages, keeps the copies the former form keeps."""
    seen = []
    minimize_ = approx.left_minimize

    def checked(pre, between=None):
        mini = minimize_(pre, between)
        assert mini.copies == former_left_minimize(pre).copies
        seen.append(len(pre.copies) - len(mini.copies))
        return mini

    monkeypatch.setattr(approx, "left_minimize", checked)
    for M, T in _envelope_inputs(field):
        susp_envelope(M, T)
        cosusp_precover(M, T)
    assert len(seen) >= 20 and sum(seen) >= 1


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_preenvelopes_build_no_hom_space_outside_its_window(field, monkeypatch):
    """The envelopes and precovers of the gluing fixtures and of the random sample build no Hom(W, T_i[k])
    outside its support window, where it is zero: a member that the s-search left without a space at s
    gets no copy and no space, and `left_minimize` takes a Hom(T_a, T_b) between two members outside its
    window as zero, unbuilt.  The copies equal those of the former form."""
    inputs = list(_envelope_inputs(field))
    built = _recording_homspaces(monkeypatch)
    missing, minimize_ = [], approx.left_minimize

    def checked(pre, between=None):
        mini = minimize_(pre, between)
        mark = len(built)
        assert mini.copies == former_left_minimize(pre).copies
        del built[mark:]  # the former form's own spaces
        none = {ti for ti, hs in enumerate(pre.spaces) if hs is None}
        assert not none & {ti for ti, _ in pre.copies} and all(not pre.reps[ti] for ti in none)
        missing.extend(none)
        return mini

    monkeypatch.setattr(approx, "left_minimize", checked)
    for M, T in inputs:
        susp_envelope(M, T)
        cosusp_precover(M, T)
    outside = [(X, Y, k) for X, Y, k in built if not hom_window(X, Y)[0] <= k <= hom_window(X, Y)[1]]
    assert len(built) > 100 and len(missing) >= 3
    assert outside == []


def _recording_homspaces(monkeypatch):
    """Patch HomSpace to record (X, Y, k) of every space built; returns the record."""
    built = []
    init = HomSpace.__init__

    def recording(self, X, Y, k=0, hom=None):
        built.append((X, Y, k))
        init(self, X, Y, k, hom)

    monkeypatch.setattr(HomSpace, "__init__", recording)
    return built


def test_minimized_preenvelope_builds_each_hom_space_once(monkeypatch):
    built = _recording_homspaces(monkeypatch)
    hits = 0
    for seed in range(12):
        rng = seeded_rng(5200 + seed)
        alg = build_algebra(random_quiver(rng, max_vertices=4), QQ)
        M = random_complex(alg, rng, steps=2, max_width=3)
        T = [random_complex(alg, rng, steps=1, max_width=3) for _ in range(rng.randint(1, 3))]
        s = s_sup(M, T)
        if s is None:
            continue
        built.clear()
        left_minimize(add_shift_preenvelope(M, T, s))
        for X in T:
            assert sum(1 for A, B, k in built if A is M and B is X and k == s) == 1
        hits += 1
    assert hits >= 8


def test_envelope_builds_no_hom_space_twice(ka3, monkeypatch):
    """The s-search hands its spaces on: no (source, target, shift) is built twice."""
    built = _recording_homspaces(monkeypatch)
    for M, T in (
        (direct_sum(shift(ka3["I2"], 1), ka3["S2"]), [shift(ka3["P"]["3"], 1)]),
        (ka3["I2"], [ka3["P"]["1"], ka3["P"]["2"]]),
        (direct_sum(ka3["I2"], ka3["S2"]), [shift(ka3["P"]["3"], 1)]),
    ):
        built.clear()
        env = susp_envelope(M, T)
        assert env.trace
        keys = [(id(X), id(Y), k) for X, Y, k in built]  # `built` keeps every X and Y alive
        assert len(keys) == len(set(keys))


def test_reported_maps_are_checked_once(ka3, monkeypatch):
    checked = []
    check = ChainMap.check_chain_condition

    def recording(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(ChainMap, "check_chain_condition", recording)
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    T = [shift(ka3["P"]["3"], 1)]
    env = susp_envelope(M, T)
    assert checked == [env.f, env.v_map]
    checked.clear()
    res = cosusp_precover(direct_sum(ka3["P"]["1"], shift(ka3["P"]["2"], -1)), T)
    assert checked == [res.f, res.v_map]  # over A, not again over the opposite algebra
    assert all(f.source.algebra is ka3["A"] for f in checked)


def test_envelope_takes_one_cone_after_its_stages(ka3, monkeypatch, staged):
    """Two layers: one stage call per layer and one that finds no s, then a single cone."""
    cones, stages = [], []
    cone_, stage = approx.minimal_cone, approx._susp_envelope_stage
    monkeypatch.setattr(approx, "minimal_cone", lambda f: cones.append(f) or cone_(f))
    monkeypatch.setattr(approx, "_susp_envelope_stage", lambda *a: stages.append(a) or stage(*a))
    env = susp_envelope(direct_sum(shift(ka3["I2"], 1), ka3["S2"]), [shift(ka3["P"]["3"], 1)])
    assert [s for s, _ in env.trace] == [1, 0]
    assert len(stages) == len(env.trace) + 1
    assert len(cones) == 1


def test_envelope_composes_its_stage_maps_without_an_identity(ka3, monkeypatch):
    """The composite of the cocone maps starts from the first stage map, not from the identity of M."""
    identities = []
    identity = ChainMap.identity.__func__
    monkeypatch.setattr(ChainMap, "identity", classmethod(lambda cls, X: identities.append(X) or identity(cls, X)))
    for M, T in (
        (ka3["I2"], [ka3["P"]["1"], ka3["P"]["2"]]),
        (direct_sum(shift(ka3["I2"], 1), ka3["S2"]), [shift(ka3["P"]["3"], 1)]),
    ):
        env = susp_envelope(M, T)
        assert env.trace
    assert identities == []


def _sign_flipper(n, flipped):
    """f -> f with entry (0, 0) of its degree-n component negated, where that entry is non-zero.

    Each flipped map goes to `flipped`.
    """

    def flip(f):
        m = f.components.get(n)
        if m is None or m.entries[0][0].is_zero():
            return f
        ents = [list(row) for row in m.entries]
        ents[0][0] = -ents[0][0]
        comps = dict(f.components)
        comps[n] = PathMatrix(m.algebra, m.row_vertices, m.col_vertices, ents)
        flipped.append(ChainMap(f.source, f.target, comps))
        return flipped[-1]

    return flip


def _flip_instance(ka3):
    """I2 and [P1, P2].

    Most one-entry sign flips in the stacked maps or in the map whose cone
    is U give a triangle isomorphic to the true one, which is no error.  On
    this instance the flipped map reaches the reported maps, so the boundary
    check must refuse them.
    """
    return ka3["I2"], [ka3["P"]["1"], ka3["P"]["2"]]


def test_sign_flip_in_the_stacked_preenvelope_is_caught(ka3, monkeypatch):
    M, T = _flip_instance(ka3)
    susp_envelope(M, T)
    flipped = []
    flip, stack = _sign_flipper(0, flipped), approx._stack
    monkeypatch.setattr(approx, "_stack", lambda M_, reps: flip(stack(M_, reps)))
    with pytest.raises(ComplexError, match="not a chain map"):
        susp_envelope(M, T)
    with pytest.raises(ComplexError):
        flipped[0].check_chain_condition()


def test_sign_flip_in_the_pushout_map_is_caught(ka3, monkeypatch):
    M, T = _flip_instance(ka3)
    flipped = []
    flip = _sign_flipper(-1, flipped)
    monkeypatch.setattr(approx, "minimal_cone", lambda gu: minimal_cone(flip(gu)))
    with pytest.raises(ComplexError, match="not a chain map"):
        susp_envelope(M, T)
    with pytest.raises(ComplexError):
        flipped[0].check_chain_condition()


def test_envelope_triangle_anchor(ka3):
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    env = susp_envelope(M, [shift(ka3["P"]["3"], 1)])
    assert env.s == 1
    assert env.V.graded_multiset() == {-1: ("1",), 0: ("2",)}  # P1[1] (+) P2
    assert env.U.graded_multiset() == {-2: ("3",), -1: ("3",)}  # P3[2] (+) P3[1]
    assert env.certificates["cocone_orthogonal"]
    env.f.check_chain_condition()
    env.v_map.check_chain_condition()
    # the triangle closes: cocone(f) is the stored V
    vm = minimize(cocone(env.f)[0]).complex
    assert vm.graded_multiset() == env.V.graded_multiset()


def test_envelope_unshifted_anchor(ka3):
    M = direct_sum(ka3["I2"], ka3["S2"])
    env = susp_envelope(M, [shift(ka3["P"]["3"], 1)])
    assert env.V.graded_multiset() == {0: ("1", "2")}
    assert env.U.graded_multiset() == {-1: ("3", "3")}


def test_envelope_trivial_when_s_none(ka3):
    P3 = ka3["P"]["3"]
    env = susp_envelope(shift(P3, -1), [P3])
    assert env.U.is_zero()
    assert env.V.graded_multiset() == shift(P3, -1).graded_multiset()


def test_envelope_idempotence(ka3):
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    T = [shift(ka3["P"]["3"], 1)]
    env = susp_envelope(M, T)
    again = susp_envelope(env.U, T)
    # U is already in the suspended hull: the triangle degenerates to 0 -> U -> U
    assert again.V.is_zero()
    assert is_isomorphic(again.U, env.U).isomorphic


def _random_instance(seed, field=QQ):
    rng = seeded_rng(seed)
    alg = build_algebra(random_quiver(rng, max_vertices=5), field)
    M = random_complex(alg, rng, steps=2, max_width=4)
    # strict descent needs a non-positive T; rejection-sample until we get one
    while True:
        T = [random_complex(alg, rng, steps=1, max_width=3) for _ in range(rng.randint(1, 2))]
        if is_nonpositive(T)[0]:
            return rng, alg, M, T


def _random_susp_object(rng, alg, T, layers=2):
    """A random object of the suspended hull: iterated cones into shifts of T."""
    W = shift(rng.choice(T), rng.randint(0, 2))
    for _ in range(layers - 1):
        W2 = shift(rng.choice(T), rng.randint(0, 2))
        hs = HomSpace(W2, W, 0)
        if hs.dim == 0:
            W = direct_sum(W, W2)
            continue
        f = hs.basis_maps()[rng.randrange(hs.dim)]
        W = minimize(cone(f)).complex
    return W


def test_envelope_properties_random_sample():
    """Factorization universality, orthogonality, minimality, strict descent."""
    hits = 0
    for seed in range(12):
        rng, alg, M, T = _random_instance(900 + seed)
        s = s_sup(M, T)
        env = susp_envelope(M, T)  # raises on orthogonality failure
        if s is None:
            assert env.U.is_zero()
            continue
        hits += 1
        # strict descent at the first stage (indecomposable copies make
        # greedy deletion reach a genuinely minimal approximation)
        pre = left_minimize(add_shift_preenvelope(M, indecomposable_refinement(T), s))
        assert check_left_minimality(pre)
        C = minimize(cocone(pre.f)[0]).complex
        sC = s_sup(C, T)
        assert sC is None or sC < s
        # factorization universality against random susp(T) objects
        for _ in range(2):
            W = _random_susp_object(rng, alg, T)
            hsMW = HomSpace(M, W, 0)
            for t in hsMW.basis_maps()[:2]:
                assert factors_through(env.f, t)
    assert hits >= 4


def test_weakly_preenveloping_check(ka3):
    A = ka3["A"]
    T = [ka3["P"]["3"]]
    probes = list(ka3["P"].values())
    report = weakly_preenveloping_check(T, probes)
    assert all(r["ok"] for r in report)
    # empty T: vacuous pass, s is None everywhere
    report = weakly_preenveloping_check([], probes)
    assert all(r["ok"] and r["s"] is None for r in report)


def test_cosusp_precover_trivial(ka3):
    P3 = ka3["P"]["3"]
    res = cosusp_precover(P3, [P3])
    assert res.U.is_zero()
    assert res.V.graded_multiset() == P3.graded_multiset()


def test_cosusp_precover_anchor(ka3):
    P = ka3["P"]
    res = cosusp_precover(P["1"], [shift(P["3"], 1)])
    assert res.V.graded_multiset() == {0: ("3",)}
    assert res.U.graded_multiset() == {-1: ("3",), 0: ("1",)}
    res.v_map.check_chain_condition()


def test_cosusp_precover_orthogonal_certificate(ka3):
    M = direct_sum(ka3["P"]["1"], shift(ka3["P"]["2"], -1))
    T = [shift(ka3["P"]["3"], 1)]
    res = cosusp_precover(M, T)
    assert not res.V.is_zero()
    assert res.certificates["cone_orthogonal"]
    for Tc in T:
        _, whi = hom_window(Tc, res.U)
        for k in range(0, whi + 1):
            assert hom_dim(Tc, res.U, k) == 0


def _k0(X):
    cls = {}
    for n, vs in X.components.items():
        for v in vs:
            cls[v] = cls.get(v, 0) + (1 if n % 2 == 0 else -1)
    return {v: c for v, c in cls.items() if c}


def _check_precover_by_oracle(M, T):
    """The precover triangle V -> M -> U against independent computations."""
    res = cosusp_precover(M, T)
    s = None
    for t in T:
        for k in range(0, M.hi - t.lo + 1):
            if (s is None or k > s) and oracle_hom_dim(t, M, k):
                s = k
    assert res.s == s
    assert [-layer[0] for layer in res.trace[:1]] == ([] if s is None else [s])
    for t in T:
        for k in range(0, res.U.hi - t.lo + 1):
            assert oracle_hom_dim(t, res.U, k) == 0
    km, kv, ku = _k0(M), _k0(res.V), _k0(res.U)
    assert all(km.get(v, 0) == kv.get(v, 0) + ku.get(v, 0) for v in set(km) | set(kv) | set(ku))
    res.v_map.check_chain_condition()
    res.f.check_chain_condition()
    assert HomSpace(res.V, res.U, 0).is_null_homotopic(res.f.compose(res.v_map))
    assert is_isomorphic(minimize(cone(res.v_map)).complex, res.U).isomorphic
    assert is_isomorphic(minimize(cone(res.f)).complex, shift(res.V, 1)).isomorphic
    return res


@pytest.mark.parametrize("which", ["trivial", "nontrivial"])
def test_cosusp_precover_oracle_ka3(ka3, which):
    if which == "trivial":
        M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    else:
        M = direct_sum(ka3["P"]["1"], shift(ka3["P"]["2"], -1))
    res = _check_precover_by_oracle(M, [shift(ka3["P"]["3"], 1)])
    assert res.V.is_zero() == (which == "trivial")


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_cosusp_precover_oracle_random(field):
    hits = 0
    for seed in range(8):
        rng = seeded_rng(700 + seed)
        alg = build_algebra(random_quiver(rng, max_vertices=4), field)
        M = random_complex(alg, rng, steps=2, max_width=4)
        while True:
            T = [random_complex(alg, rng, steps=1, max_width=3) for _ in range(rng.randint(1, 2))]
            if is_nonpositive(T)[0]:
                break
        res = _check_precover_by_oracle(M, T)
        hits += not res.V.is_zero() and not res.U.is_zero()
    assert hits >= 3


def _dump(x):
    return json.dumps(chain_map_to_json(x) if isinstance(x, ChainMap) else complex_to_json(x), sort_keys=True)


def _envelope_inputs(field):
    """(M, T) of every envelope the gluing fixtures take, then of the random sample's instances, over `field`."""
    for _name, rec, T_B in glue_fixtures(field):
        targets = [shift(j_lower_shriek(rec, canonical_corner_silting(rec)), 1)]
        for T_Y in T_B:
            yield i_star(rec, T_Y), targets
    for seed in range(12):
        _rng, _alg, M, T = _random_instance(900 + seed, field)
        yield M, T


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_envelope_reads_v_and_v_map_off_its_last_stage(field):
    """V and v_map equal the former tail, the minimized cocone of f and the pull of its projection, byte for byte.

    Over the envelopes and, through the opposite algebra, the precovers of
    the gluing fixtures and of the random sample's instances.
    """
    staged = unstaged = 0
    for M, T in _envelope_inputs(field):
        A = M.algebra
        Aop = build_algebra(A.quiver.opposite(), A.field)
        for M_, T_ in ((M, T), (opposite_complex(M, Aop), [opposite_complex(t, Aop) for t in T])):
            f, U, V, v_map, trace, _zeros = approx._envelope(M_, T_)
            V_old, v_old = former_envelope_tail(f)
            assert V == V_old and _dump(V) == _dump(V_old)
            assert v_map.source == V_old and v_map.components == v_old.components and _dump(v_map) == _dump(v_old)
            staged += bool(trace)
            unstaged += not trace
    assert staged >= 10 and unstaged >= 4


def test_an_envelope_without_a_stage_builds_no_cone(ka3, monkeypatch):
    """No stage: U = 0 and f = 0, V is the minimal model of M and v_map its inclusion, with no cone taken."""
    cones = []
    monkeypatch.setattr(approx, "minimal_cone", lambda f: cones.append(f) or minimal_cone(f))
    P = ka3["P"]
    contractible = cone(ChainMap.identity(P["2"]))
    for M in (shift(P["3"], -1), direct_sum(shift(P["3"], -1), contractible)):
        env = susp_envelope(M, [P["3"]])
        assert env.trace == [] and env.s is None and cones == []
        assert env.U.is_zero() and env.f.is_zero() and env.f.source is M and env.f.target is env.U
        assert env.V == shift(P["3"], -1)
        assert env.v_map.source is env.V and env.v_map.target is M
        assert env.v_map.components == minimize(M).from_min.components
        V_old, v_old = former_envelope_tail(env.f)
        assert env.V == V_old and _dump(env.v_map) == _dump(v_old)


def test_envelope_takes_no_cocone_after_its_stages(ka3, monkeypatch, staged):
    """One cocone per stage, for its preenvelope, and none to rebuild V."""
    cocones = []
    cocone_ = approx.minimal_cocone
    monkeypatch.setattr(approx, "minimal_cocone", lambda f: cocones.append(f) or cocone_(f))
    for M, T in (
        (direct_sum(shift(ka3["I2"], 1), ka3["S2"]), [shift(ka3["P"]["3"], 1)]),
        (ka3["I2"], [ka3["P"]["1"], ka3["P"]["2"]]),
    ):
        cocones.clear()
        env = susp_envelope(M, T)
        assert len(cocones) == len(env.trace) >= 1


@pytest.mark.parametrize("scan", ["kept", "lost"])
def test_an_envelope_stopped_a_stage_early_fails_its_certificate(ka3, monkeypatch, staged, scan):
    """Stop the stage loop before its last stage: V is then not orthogonal to T, and the certificate says so.

    `kept`: the stopped stage's s-search still runs, so the certificate
    reads the non-zero spaces it handed on; `lost`: it hands on nothing,
    and the certificate builds every space itself.
    """
    stage = approx._susp_envelope_stage
    instances = [
        (direct_sum(shift(ka3["I2"], 1), ka3["S2"]), [shift(ka3["P"]["3"], 1)]),
        (ka3["I2"], [ka3["P"]["1"], ka3["P"]["2"]]),
        (direct_sum(ka3["I2"], ka3["S2"]), [shift(ka3["P"]["3"], 1)]),
    ]
    for M, T in instances:
        layers = len(susp_envelope(M, T).trace)
        calls = []

        def early(W, T_list, bound, between, scan_):
            calls.append(W)
            if len(calls) < layers:
                return stage(W, T_list, bound, between, scan_)
            if scan == "kept":
                stage(W, T_list, bound, between, scan_)
            return None

        monkeypatch.setattr(approx, "_susp_envelope_stage", early)
        with pytest.raises(ApproxError, match="envelope cocone not orthogonal"):
            susp_envelope(M, T)
        assert len(calls) == layers
        monkeypatch.setattr(approx, "_susp_envelope_stage", stage)


def _raw(M, rng):
    """M (+) C(id_P) for a seeded stalk P, conjugated by a seeded change of basis: M up to homotopy, not minimal."""
    alg = M.algebra
    P = ProjComplex.stalk(alg, rng.choice(alg.quiver.vertices), rng.randint(-1, 1))
    raw = conjugated(direct_sum(M, cone(ChainMap.identity(P))), rng.randrange(10**6))
    assert not is_minimal(raw)
    return raw


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_no_stage_scans_at_or_above_the_previous_stage_s(field, monkeypatch, staged):
    """After the first, no stage of an envelope or precover builds a Hom(W, T_i[k]) with k at or above the
    previous stage's s, where W's cocone triangle makes it zero for presilting T.

    Over the envelopes of the gluing fixtures, the random sample's
    instances and raw copies of their M, each also as a precover, all by
    their stages.
    """
    inputs = list(_envelope_inputs(field))
    inputs += [(_raw(M, seeded_rng(4500 + i)), T) for i, (M, T) in enumerate(inputs[-12:])]
    built = _recording_homspaces(monkeypatch)
    stage, last, bounded = approx._susp_envelope_stage, [None, None], []

    def spied(W, *rest):
        mark = len(built)
        out = stage(W, *rest)
        if W is last[0]:  # a later stage of the same envelope
            assert max((k for X, _Y, k in built[mark:] if X is W), default=-1) < last[1]
            bounded.append(W)
        last[:] = (out[1], out[0][0]) if out else (None, None)
        return out

    monkeypatch.setattr(approx, "_susp_envelope_stage", spied)
    for M, T in inputs:
        susp_envelope(M, T)
        cosusp_precover(M, T)
    assert len(bounded) >= 40


def _raw_cases():
    """(M, T) of the three envelope-mix inputs whose output presentation a raw M's minimization at entry changed:
    seed 1 operations 19 (a precover) and 40, and seed 3 operation 70, all over Q."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "envelope_mix_raw.json")) as fh:
        cases = json.load(fh)
    for case in cases:
        alg = algebra_from_json(case["algebra"])
        yield complex_from_json(case["M"], alg), [complex_from_json(t, alg) for t in case["T"]]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_a_raw_m_gives_the_former_routes_envelope_and_precover_up_to_isomorphism(field):
    """For a non-minimal M, `susp_envelope` and `cosusp_precover` (M minimized once, at entry) give the trace of
    the former route (full cones on M itself) and U and V isomorphic to its own.

    Over raw copies of the random sample's M and, over Q, the three
    envelope-mix inputs whose outputs this reshaped.
    """
    cases = [(_raw(M, rng), T) for rng, _alg, M, T in (_random_instance(4600 + seed, field) for seed in range(10))]
    cases += list(_raw_cases()) if field == QQ else []
    staged = 0
    for M, T in cases:
        assert not is_minimal(M)
        env, (_f, U, V, _v, trace) = susp_envelope(M, T), former_envelope(M, T)
        pre, (V_pre, U_pre, trace_pre) = cosusp_precover(M, T), former_cosusp_precover(M, T)
        assert env.trace == trace and pre.trace == trace_pre
        for new, old in ((env.U, U), (env.V, V), (pre.U, U_pre), (pre.V, V_pre)):
            assert is_isomorphic(new, old).isomorphic
        staged += bool(trace) + bool(trace_pre)
    assert staged >= 12


def _stalk_split_case(field, rng):
    """(route, M, T, applies, presilting, multi, above): random stalks P_v, v in S, each in a degree d_v in [-2, 1] (one degree
    for all one time in four), split over one or two members in a random order, one time in eight with one stalk
    again as a member of its own, and a random M, raw one time in four.  S is closed under the arrows (under the
    reversed arrows for a precover) four times in five, and a random set otherwise; the degrees are raised along
    the arrows in S, so that d_w <= d_v for every path w -> v, three times in four.  `applies` says whether the
    split may be read: S is closed, no stalk is repeated and the degrees satisfy the path condition, which is
    presiltingness.  `presilting` says whether T is presilting, by `is_nonpositive`, for any S.  `multi` says
    whether the stalks lie in two or more degrees, and `above` whether M's minimal model has an S-summand P_v in
    a degree n > d_v (n < d_v for a precover, the split then taken over A^op).
    """
    alg = build_algebra(random_quiver(rng, max_vertices=6, arrow_prob=0.6), field)
    route = rng.choice([susp_envelope, cosusp_precover])
    ends = [(a.source, a.target) if route is susp_envelope else (a.target, a.source) for a in alg.quiver.arrows]
    S = set(rng.sample(alg.quiver.vertices, rng.randint(1, len(alg.quiver.vertices))))
    if rng.random() < 0.8:
        S = {rng.choice(sorted(S))}
        while grown := {t for s, t in ends if s in S} - S:  # close S under the arrows, or under the reversed ones
            S |= grown
    inner = [(a.source, a.target) for a in alg.quiver.arrows if a.source in S and a.target in S]
    one = rng.randint(-2, 1) if rng.random() < 0.25 else None
    d = {v: rng.randint(-2, 1) if one is None else one for v in sorted(S)}
    if rng.random() < 0.75:
        while raised := [(w, v) for w, v in inner if d[w] > d[v]]:
            for w, v in raised:
                d[v] = max(d[v], d[w])
    stalks = [ProjComplex.stalk(alg, v, d[v]) for v in rng.sample(sorted(S), len(S))]
    cut = rng.randint(1, len(stalks) - 1) if len(stalks) > 1 and rng.random() < 0.5 else len(stalks)
    T = [direct_sum_many(alg, part) for part in (stalks[:cut], stalks[cut:]) if part]
    repeated = rng.random() < 0.125
    if repeated:
        T.insert(rng.randint(0, len(T)), rng.choice(stalks))
    M = random_complex(alg, rng, steps=rng.randint(1, 3), max_width=4, shift_range=2)
    M = _raw(M, rng) if rng.random() < 0.25 else M
    above = any(n > d[v] if route is susp_envelope else n < d[v]
                for n, vs in minimize(M).complex.components.items() for v in vs if v in S)
    closed = not any(s in S and t not in S for s, t in ends)
    applies = closed and not repeated and all(d[w] <= d[v] for w, v in inner)
    return route, M, T, applies, is_nonpositive(T)[0], len(set(d.values())) > 1, above


def _triangle_or_error(route, M, T):
    """`triangle_json` of route(M, T) with its M and certificates, or the message of the ApproxError it raises."""
    try:
        res = route(M, T)
    except ApproxError as e:
        return str(e)
    return res.M is M, res.certificates, triangle_json(res)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_stalk_split_equals_the_stages(field, monkeypatch):
    """Where `_stalk_split` reads the triangle off M's summands, it equals the stage route's byte for byte.

    V, U, f, v_map, s and the trace, as envelope and as precover, against
    the same call with the split declining.  The split is read exactly
    where it may be (`_stalk_split_case`), also with its layers at stalks
    in several degrees and with S-summands of M above their vertex's
    degree, and never raises; the others run the stages either way, and
    only a T that is not presilting may make both raise, with the same
    ApproxError.  Both routes return M itself.
    """
    split, declining = approx._stalk_split, lambda *args: None
    rng, counts = seeded_rng(4700), Counter()
    for _ in range(700):
        route, M, T, applies, presilting, multi, above = _stalk_split_case(field, rng)
        read = []
        monkeypatch.setattr(approx, "_stalk_split", lambda *args: read.append(out := split(*args)) or out)
        got = _triangle_or_error(route, M, T)
        monkeypatch.setattr(approx, "_stalk_split", declining)
        assert got == _triangle_or_error(route, M, T), (M, T)
        assert (read[0] is not None) == applies, (M, T)
        assert presilting or not applies, (M, T)
        if isinstance(got, str):
            assert not presilting, (M, T, got)
        else:
            assert got[0] is True, (M, T)
        layered = applies and bool(read[0][4])
        counts.update({"split": applies, "layered": layered, "multi": layered and multi, "above": applies and above,
                       "precover": applies and route is cosusp_precover, "declined": not applies,
                       "raised": isinstance(got, str), "declined presilting": presilting and not applies})
    monkeypatch.setattr(approx, "_stalk_split", split)
    floors = {"split": 400, "layered": 250, "multi": 70, "above": 150, "precover": 200, "declined": 150,
              "declined presilting": 100, "raised": 5}
    assert all(counts[k] >= floor for k, floor in floors.items()), counts


def test_the_split_declines_stalks_that_are_not_presilting(monkeypatch):
    """On a: 1 -> 2, T = {P_2 in degree 0, P_1 in degree 1} is not presilting: Hom(P_2, T_1[1]) != 0 runs along
    the path 1 -> 2 against the degrees.  The split declines, so M = P_2 is not read as V = 0 and U = P_2, and
    `susp_envelope` raises as the stage route does."""
    alg = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), QQ)
    T, M = [ProjComplex.stalk(alg, "2", 0), ProjComplex.stalk(alg, "1", 1)], ProjComplex.stalk(alg, "2", 0)
    assert HomSpace(M, T[1], 1).dim == 1
    assert approx._stalk_split(M, T) is None
    with pytest.raises(ApproxError, match="envelope cocone not orthogonal") as split:
        susp_envelope(M, T)
    monkeypatch.setattr(approx, "_stalk_split", lambda *args: None)
    with pytest.raises(ApproxError) as staged:
        susp_envelope(M, T)
    assert str(split.value) == str(staged.value)


def _check_envelope_by_oracle(M, T, res):
    """The envelope triangle V -> M -> U against independent computations."""
    s = max((k for t in T for k in range(0, t.hi - M.lo + 1) if oracle_hom_dim(M, t, k)), default=None)
    assert res.s == s and res.certificates == {"cocone_orthogonal": True}
    assert all(k >= 0 for k, _tags in res.trace)
    for t in T:
        for k in range(0, t.hi - res.V.lo + 1):
            assert oracle_hom_dim(res.V, t, k) == 0
    km, kv, ku = _k0(M), _k0(res.V), _k0(res.U)
    assert all(km.get(v, 0) == kv.get(v, 0) + ku.get(v, 0) for v in set(km) | set(kv) | set(ku))
    assert HomSpace(res.V, res.U, 0).is_null_homotopic(res.f.compose(res.v_map))
    assert is_isomorphic(minimize(cone(res.v_map)).complex, res.U).isomorphic


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([QQ, PrimeField(5)]), st.booleans())
def test_on_a_t_that_is_not_presilting_an_envelope_raises_or_is_certified(seed, field, raw):
    """With no statistic guard, a T with Hom(T_i, T_j[k]) != 0 for some k >= 1 either fails the orthogonality
    certificate (ApproxError) or gives a triangle that the oracle confirms, as envelope and as precover."""
    rng = seeded_rng(seed)
    alg = build_algebra(random_quiver(rng, max_vertices=4), field)
    M = random_complex(alg, rng, steps=2, max_width=4)
    T = next((T for T in ([random_complex(alg, rng, steps=1, max_width=3) for _ in range(rng.randint(1, 2))]
                          for _ in range(20)) if not is_nonpositive(T)[0]), None)
    assume(T is not None)
    M = _raw(M, rng) if raw else M
    try:
        res = susp_envelope(M, T)
    except ApproxError as e:
        assert "envelope cocone not orthogonal" in str(e)
    else:
        _check_envelope_by_oracle(M, T, res)
    try:
        _check_precover_by_oracle(M, T)
    except ApproxError as e:
        assert "precover cone not orthogonal" in str(e)
