import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from conftest import connected_conjugate, glue_by_envelope, random_complex, random_quiver, seeded_rng
import former
from former import cone, former_group_isomorphic, radical_part
from siltglue import _kernel
from siltglue.fields import QQ, PrimeField
from siltglue.fixtures import glue_fixtures, ka3_algebra, ka3_named_complexes
from siltglue.gluing import canonical_corner_silting, glue, summand_classes
from siltglue.homs import HomSpace
from siltglue.linalg import Matrix, kernel_basis, row_space_rref, solve
from siltglue.quiver import Quiver, build_algebra
from siltglue.complexes import (
    ChainMap,
    PathMatrix,
    ProjComplex,
    direct_sum,
    direct_sum_many,
    make_complex,
    minimize,
    shift,
)
from siltglue import decompose as decompose_module
from siltglue.decompose import (
    DecomposeError,
    EndAlgebra,
    ISO_TRIALS,
    SemisimpleQuotient,
    _candidates,
    _components,
    _conjugate_by_idempotent,
    _find_idempotent,
    _first_factor,
    _min_poly,
    _newton_idempotent_chain,
    _scalar_invertible_everywhere,
    _try_minpoly_split,
    decompose,
    group_isomorphic,
    is_isomorphic,
    summand_order,
)


def two_term(A, verts1, verts0, entries):
    return make_complex(
        A,
        {-1: tuple(verts1), 0: tuple(verts0)},
        {-1: PathMatrix(A, tuple(verts0), tuple(verts1), entries)},
    )


def test_iso_detects_hidden_shift_summand(ka3):
    # (P3 (+) P1 --(b,0)--> P2) decomposes as P1[1] (+) S2
    A = ka3["A"]
    b = A.path_element(A.path_of_arrows(["b"]))
    X = two_term(A, ["3", "1"], ["2"], [[b, A.zero_element()]])
    Y = direct_sum(shift(ka3["P"]["1"], 1), ka3["S2"])
    res = is_isomorphic(X, Y)
    assert res.isomorphic and res.certified
    # the witness is verified: its cone is contractible
    w = res.witness
    w.check_chain_condition()
    assert minimize(cone(w)).complex.is_zero()


def test_iso_negative_certified_by_multiset(ka3):
    res = is_isomorphic(ka3["I2"], ka3["S2"])
    assert not res.isomorphic
    assert res.certified  # distinct minimal graded multisets are conclusive


def test_iso_scalar_obstruction(ka3):
    # same graded multiset but non-isomorphic: I2 vs P3[1] (+) P1
    A = ka3["A"]
    X = direct_sum(shift(ka3["P"]["3"], 1), ka3["P"]["1"])
    assert X.graded_multiset() == ka3["I2"].graded_multiset()
    res = is_isomorphic(X, ka3["I2"])
    assert not res.isomorphic


def test_iso_reflexive_and_shifted(ka3):
    for X in (ka3["I2"], ka3["S2"], direct_sum(ka3["I2"], ka3["I2"])):
        assert is_isomorphic(X, X).isomorphic
    assert not is_isomorphic(ka3["I2"], shift(ka3["I2"], 1)).isomorphic


def test_decompose_stalk_and_sum(ka3):
    P = ka3["P"]
    parts = decompose(P["1"])
    assert len(parts) == 1 and parts[0][1] == 1 and parts[0][2]
    X = direct_sum(direct_sum(P["1"], P["1"]), shift(P["2"], 3))
    parts = decompose(X)
    assert sorted(m for _, m, _ in parts) == [1, 2]
    total = sum(x.summand_count() * m for x, m, _ in parts)
    assert total == 3


def test_a_complex_with_no_differential_is_not_minimized(ka3, monkeypatch):
    """Such a complex is its own minimal model, so `is_isomorphic` and `decompose` take it as it is; the cone
    of a candidate isomorphism between the minimal models is one direct elimination, so nothing is minimized."""
    calls = []
    monkeypatch.setattr(decompose_module, "minimize", lambda X: calls.append(X) or minimize(X))
    P = ka3["P"]
    X, Y = direct_sum(P["1"], shift(P["2"], 1)), direct_sum(shift(P["2"], 1), P["1"])
    res = is_isomorphic(X, Y)
    assert res.isomorphic and res.certified
    assert res.witness.source is X and res.witness.target is Y and minimize(cone(res.witness)).complex.is_zero()
    assert not is_isomorphic(X, direct_sum(P["1"], P["2"])).isomorphic
    parts = decompose(direct_sum(X, P["1"]))
    assert [(Z.components, m, cert) for Z, m, cert in parts] == [({-1: ("2",)}, 1, True), ({0: ("1",)}, 2, True)]
    assert calls == []


def test_decompose_mixed_two_term_sum(ka3):
    # I2[1] (+) S2 and I2 (+) S2 are sums of two non-isomorphic indecomposables;
    # End(I2 (+) S2)/rad is Q x Q, two simple blocks.  I2 (+) S2 is conjugated
    # to be connected; no conjugate of I2[1] (+) S2 is, since every radical
    # multiple of I2's differential ab is 0, so it splits by its components.
    for first in (shift(ka3["I2"], 1), ka3["I2"]):
        X = direct_sum(first, ka3["S2"])
        parts = decompose(connected_conjugate(X) if first is ka3["I2"] else X)
        assert [(m, c) for _, m, c in parts] == [(1, True), (1, True)]
        msets = {frozenset(x.graded_multiset().items()) for x, _, _ in parts}
        assert msets == {
            frozenset(first.graded_multiset().items()),
            frozenset(ka3["S2"].graded_multiset().items()),
        }


def test_decompose_doubled_complex(ka3):
    # a connected conjugate of X (+) X forces a matrix-block endomorphism ring M_2(Q)
    X = connected_conjugate(direct_sum(ka3["I2"], ka3["I2"]))
    parts = decompose(X)
    assert len(parts) == 1
    Y, mult, certified = parts[0]
    assert mult == 2 and certified
    assert is_isomorphic(Y, ka3["I2"]).isomorphic


def test_decompose_indecomposable_two_term(ka3):
    # P3 -> P1 with the length-2 path is indecomposable (local endo ring)
    parts = decompose(ka3["I2"])
    assert len(parts) == 1 and parts[0][1] == 1


def test_classes_sum_multiplicities_across_members(ka3):
    # the set [X (+) X, X, Y] has the classes X with multiplicity 3 and Y with 1
    X, Y = ka3["I2"], ka3["S2"]
    members = [direct_sum(X, X), X, Y]
    parts = [(c, m, ok, ti) for ti, T in enumerate(members) for c, m, ok in decompose(T)]
    classes = group_isomorphic(parts)
    assert [c[1:] for c in classes] == [[3, True, 0], [1, True, 2]]
    assert classes[0][0] is parts[0][0]
    assert [c[1:] for c in summand_classes(members)] == [[3, True, 0], [1, True, 2]]
    # one uncertified record leaves its class uncertified
    assert [c[1:] for c in group_isomorphic([(X, 1, True), (X, 1, False)])] == [[2, False]]


def test_grouping_tests_isomorphism_only_between_equal_minimal_multisets(ka3, monkeypatch):
    """group_isomorphic calls is_isomorphic only where the minimal graded multisets agree, a complex
    that is not minimal included, and groups as calling it against every class does; a record over
    another algebra still raises."""
    A, P, I2, S2 = ka3["A"], ka3["P"], ka3["I2"], ka3["S2"]
    b = A.path_element(A.path_of_arrows(["b"]))
    hidden = two_term(A, ["3", "1"], ["2"], [[b, A.zero_element()]])  # P1[1] (+) S2, not minimal
    members = [I2, S2, hidden, shift(I2, 1), direct_sum(shift(P["1"], 1), S2), I2, P["1"], S2,
               shift(P["1"], 1), direct_sum(S2, P["2"]), hidden, P["2"]]
    parts = [(X, i % 3 + 1, i != 4, i) for i, X in enumerate(members)]
    calls = []
    orig = decompose_module.is_isomorphic

    def testing(X, Y):
        calls.append((X, Y))
        return orig(X, Y)

    monkeypatch.setattr(decompose_module, "is_isomorphic", testing)
    classes = group_isomorphic(parts)
    assert calls and all(
        (minimize(X).complex if X.differentials else X).graded_multiset()
        == (minimize(Y).complex if Y.differentials else Y).graded_multiset() for X, Y in calls)
    tested = len(calls)
    monkeypatch.setattr(former, "is_isomorphic", testing)
    expected = former_group_isomorphic(parts)
    assert [[id(c[0]), *c[1:]] for c in classes] == [[id(c[0]), *c[1:]] for c in expected]
    assert [c[1:] for c in classes] == [[4, True, 0], [4, True, 1], [7, False, 2], [1, True, 3], [1, True, 6],
                                        [3, True, 8], [1, True, 9], [3, True, 11]]
    assert tested == 4 and len(calls) - tested > 30
    other = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), QQ)
    with pytest.raises(DecomposeError, match="different algebras"):
        group_isomorphic(parts[:2] + [(ProjComplex.stalk(other, "1"), 1, True, 99)])


def _assert_random_roundtrips(field):
    for seed in (77, 78, 79, 80):
        rng = seeded_rng(seed)
        for _ in range(6):
            alg = build_algebra(random_quiver(rng, max_vertices=4), field)
            X = minimize(random_complex(alg, rng, steps=2, max_width=4)).complex
            if X.is_zero():
                continue
            parts = decompose(X)
            assert all(c for _, _, c in parts), (field, seed)
            rebuilt = ProjComplex.zero(alg)
            for Y, m, _ in parts:
                for _ in range(m):
                    rebuilt = direct_sum(rebuilt, Y)
            assert rebuilt.graded_multiset() == X.graded_multiset()
            assert is_isomorphic(rebuilt, X).isomorphic


def test_decompose_random_roundtrip():
    """Over Q, seeded random complexes split into certified summands that rebuild them."""
    _assert_random_roundtrips(QQ)


def test_decompose_random_roundtrip_over_prime_fields():
    """The same roundtrip over F_5, F_2 and F_2147483647: decompose no longer refuses prime fields."""
    for field in (PrimeField(5), PrimeField(2), PrimeField(2147483647)):
        _assert_random_roundtrips(field)


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(5), PrimeField(2), PrimeField(2147483647)], ids=["Q", "F5", "F2", "F2147483647"]
)
def test_connected_sums_split_through_an_idempotent(field, monkeypatch):
    """Connected conjugates of I2 (+) I2, I2 (+) S2 and S2^2 (+) P1 split, certified, into the parts they were summed from.

    Each has one component, so it splits through `_find_idempotent`.  Over
    F_2 the blocks of two same-vertex summands have size p, and the radical
    is certified by the nilpotency check with m = 2.
    """
    finds, checks = [], []
    orig_find, orig_nilpotent = _find_idempotent, SemisimpleQuotient._is_nilpotent
    monkeypatch.setattr(decompose_module, "_find_idempotent", lambda S: finds.append(S.dim) or orig_find(S))
    monkeypatch.setattr(
        SemisimpleQuotient, "_is_nilpotent", lambda S, ideal, m: checks.append(m) or orig_nilpotent(S, ideal, m)
    )
    d = _ka3_over(field)
    I2, S2, P1 = d["I2"], d["S2"], d["P"]["1"]
    for summed, expected in (([I2, I2], [(I2, 2)]), ([I2, S2], [(I2, 1), (S2, 1)]), ([S2, S2, P1], [(S2, 2), (P1, 1)])):
        X = connected_conjugate(direct_sum_many(d["A"], summed))
        finds.clear()
        parts = decompose(X)
        assert finds, (field, summed)
        assert all(ok for _, _, ok in parts)
        assert len(parts) == len(expected)
        for Y, m in expected:
            assert [k for Z, k, _ in parts if is_isomorphic(Z, Y).isomorphic] == [m]
        rebuilt = direct_sum_many(d["A"], [Y for Y, m, _ in parts for _ in range(m)])
        assert rebuilt.graded_multiset() == X.graded_multiset()
        assert is_isomorphic(rebuilt, X).isomorphic
    assert set(checks) == ({2} if field == PrimeField(2) else set())


def test_conjugate_by_idempotent_with_a_radical_entry(ka3):
    """g = [[1, 0], [n, 0]] on S2 (+) I2 for the map n: S2 -> I2.

    g is idempotent, and its degree-0 entry n = a is radical and sits in a
    row where the scalar part of g is 0, so one conjugation must clear it.
    In degree -1 the scalar block of vertex 3 is [[1, 0], [1, 0]], which
    needs a basis change.  The conjugate has two components: the image of
    g, isomorphic to S2, and its kernel, isomorphic to I2.
    """
    S2, I2 = ka3["S2"], ka3["I2"]
    A = ka3["A"]
    n = HomSpace(S2, I2, 0).basis_maps()[0]
    X = direct_sum(S2, I2)
    comps = {}
    for k in X.components:
        ys, zs = S2.component(k), I2.component(k)
        comps[k] = PathMatrix.blocks(A, (ys, zs), (ys, zs), {(0, 0): PathMatrix.identity(A, ys), (1, 0): n.component(k)})
    g = ChainMap(X, X, comps)
    assert g.compose(g).components == g.components
    assert not radical_part(g.component(0)).is_zero()
    image, kernel = _components(_conjugate_by_idempotent(X, g))
    assert is_isomorphic(image, S2).isomorphic
    assert is_isomorphic(kernel, I2).isomorphic


def test_conjugate_by_idempotent_rejects_a_non_idempotent(ka3):
    # g = 2 id is not idempotent: the conjugated map is not the 0/1 diagonal, which raises
    X = direct_sum(ka3["S2"], ka3["I2"])
    with pytest.raises(DecomposeError, match="strictly diagonal"):
        _conjugate_by_idempotent(X, ChainMap.identity(X).scale(2))


def test_components_are_the_blocks_in_order_of_first_summand(ka3):
    """(P3 (+) P3 -> P2 (+) P1, d = [[0, b], [ab, 0]]) (+) P2[-1] is I2 (+) S2 (+) P2[-1], in that order.

    The first summand (-1, 0) lies in the I2 block, (-1, 1) in the S2 block
    and (1, 0) alone.
    """
    A = ka3["A"]
    zero, b = A.zero_element(), A.path_element(A.path_of_arrows(["b"]))
    ab = A.path_element(A.path_of_arrows(["a", "b"]))
    d = PathMatrix(A, ("2", "1"), ("3", "3"), [[zero, b], [ab, zero]])
    X = make_complex(A, {-1: ("3", "3"), 0: ("2", "1"), 1: ("2",)}, {-1: d})
    assert _components(X) == [ka3["I2"], ka3["S2"], ProjComplex.stalk(A, "2", 1)]
    assert _components(ka3["I2"]) == [ka3["I2"]]


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2)], ids=["Q", "F5", "F2"])
def test_gluing_fixtures_build_no_endomorphism_algebra(field, monkeypatch):
    """Every complex the gluing fixtures decompose splits by its components alone, with the envelopes read off
    i_*T_Y's summands and by their stages."""
    built = []
    orig = EndAlgebra.__init__
    monkeypatch.setattr(EndAlgebra, "__init__", lambda end, X: built.append(X) or orig(end, X))
    for name, rec, T_B in glue_fixtures(field):
        T_C = [canonical_corner_silting(rec)]
        for cert in (glue_by_envelope(rec, T_C, T_B), glue(rec, T_C, T_B)):
            assert cert.passed and cert.decomposition, (field, name)
    assert built == []


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2)], ids=["Q", "F5", "F2"])
def test_a_sum_of_stalks_splits_as_the_component_search_does(field, monkeypatch):
    """A sum of stalks with repeated (degree, vertex) pairs decomposes as its component search and isomorphism
    grouping would, by ==, with its multiplicities, flags and order, and runs neither; a lone stalk is its own summand.
    """
    searched = []
    search, group = decompose_module._components, decompose_module.group_isomorphic
    monkeypatch.setattr(decompose_module, "_components", lambda X: searched.append(X) or search(X))
    monkeypatch.setattr(decompose_module, "group_isomorphic", lambda parts: searched.append(parts) or group(parts))
    rng, repeated = seeded_rng(4703), 0
    for _ in range(30):
        alg = build_algebra(random_quiver(rng, max_vertices=4), field)
        pairs = [(rng.randint(-2, 2), rng.choice(alg.quiver.vertices)) for _ in range(rng.randint(2, 5))]
        pairs += rng.choices(pairs, k=rng.randint(0, 3))
        X = direct_sum_many(alg, [ProjComplex.stalk(alg, v, n) for n, v in rng.sample(pairs, len(pairs))])
        got = decompose(X)
        assert searched == []
        assert got == sorted((tuple(c) for c in group(decompose_module._decompose_minimal(X))), key=summand_order)
        assert sum(m for _c, m, _ok in got) == len(pairs) and all(ok for _c, _m, ok in got)
        repeated += any(m > 1 for _c, m, _ok in got)
        P = ProjComplex.stalk(alg, pairs[0][1], pairs[0][0])
        assert [(c is P, m, ok) for c, m, ok in decompose(P)] == [(True, 1, True)]
        searched.clear()
    assert repeated >= 15, repeated


def _ka3_over(field):
    return ka3_named_complexes(ka3_algebra(field))


def test_block_traces_split_over_f2():
    """Over F_2, a connected conjugate of S2 (+) P1 splits into two certified summands.

    The total trace form would see one: tr(1_{S2}) = 2 = 0, so the unit of
    End(S2) would lie in the kernel of the summed form.
    """
    d = _ka3_over(PrimeField(2))
    parts = decompose(connected_conjugate(direct_sum(d["S2"], d["P"]["1"])))
    assert [(c.describe(), m, ok) for c, m, ok in parts] == [("-1:[P_3] 0:[P_2]", 1, True), ("0:[P_1]", 1, True)]


def test_small_characteristic_radical_is_certified_by_nilpotency(monkeypatch):
    """Over F_2, a connected conjugate of S2^2 (+) P1 has blocks of size 2 = p.

    So R is certified as the radical by sigma(R)^2 = 0.
    """
    checks = []
    orig = SemisimpleQuotient._is_nilpotent
    monkeypatch.setattr(SemisimpleQuotient, "_is_nilpotent", lambda S, ideal, m: checks.append(m) or orig(S, ideal, m))
    d = _ka3_over(PrimeField(2))
    parts = decompose(connected_conjugate(direct_sum_many(d["A"], [d["S2"], d["S2"], d["P"]["1"]])))
    assert [(c.describe(), m, ok) for c, m, ok in parts] == [("-1:[P_3] 0:[P_2]", 2, True), ("0:[P_1]", 1, True)]
    assert checks and set(checks) == {2}


def _kronecker_pair(field):
    """X = (P2^2 -> P1^2) with d = [[a, -b], [b, a]] over the Kronecker quiver a, b: 1 -> 2; End(X) = K[t]/(t^2 + 1)."""
    A = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), field)
    a, b = (A.path_element(A.path_of_arrows([x])) for x in "ab")
    return make_complex(A, {-1: ("2", "2"), 0: ("1", "1")}, {-1: PathMatrix(A, ("1", "1"), ("2", "2"), [[a, -b], [b, a]])})


def test_kronecker_pair_splits_over_f5_and_stays_uncertified_over_f2():
    """t^2 + 1 = (t - 2)(t + 2) over F_5 splits X into two non-isomorphic summands.

    Over F_2 every block trace vanishes, so R is all of E and holds the
    unit, which is not nilpotent: X is returned whole and uncertified.
    """
    parts = decompose(_kronecker_pair(PrimeField(5)))
    assert [(c.describe(), m, ok) for c, m, ok in parts] == [("-1:[P_2] 0:[P_1]", 1, True)] * 2
    assert not is_isomorphic(parts[0][0], parts[1][0]).isomorphic
    X = _kronecker_pair(PrimeField(2))
    assert not SemisimpleQuotient(EndAlgebra(X)).certified
    assert [(c.describe(), m, ok) for c, m, ok in decompose(X)] == [("-1:[P_2,P_2] 0:[P_1,P_1]", 1, False)]


def test_iso_without_chain_maps_is_certified_false():
    """The two F_5 Kronecker summands share their graded multiset, but no non-zero chain map joins them."""
    (X, _, _), (Y, _, _) = decompose(_kronecker_pair(PrimeField(5)))
    assert not HomSpace(X, Y, 0).cycle_basis
    res = is_isomorphic(X, Y)
    assert not res.isomorphic and res.certified


def test_iso_over_f5_finds_its_witness_among_the_seeded_combinations():
    """Over F_5, I2 (+) S2 ~= S2 (+) I2, but no basis cycle is an isomorphism.

    Each basis cycle maps one summand only, so the witness comes from a
    combination from the fixed stream, whose coefficients must be residues in [0, 5).
    """
    d = _ka3_over(PrimeField(5))
    X, Y = direct_sum(d["I2"], d["S2"]), direct_sum(d["S2"], d["I2"])
    hs = HomSpace(X, Y, 0)
    cycles = [ChainMap(X, Y, hs.fvars.from_vector(v)) for v in hs.cycle_basis]
    assert cycles and not any(_scalar_invertible_everywhere(g) for g in cycles)
    F5 = X.algebra.field
    combinations = list(_candidates(F5, hs.cycle_basis, ISO_TRIALS, 5))[len(cycles) :]
    assert combinations and all(0 <= c < 5 for v in combinations for c in v)
    # these cycles have disjoint 0/1 supports; on overlapping large residues bare `+` and `*` would overflow
    combinations = list(_candidates(F5, [[1, 4], [4, 4]], 20, 5))[2:]
    assert combinations and all(0 <= c < 5 for v in combinations for c in v)
    res = is_isomorphic(X, Y)
    assert res.isomorphic and res.certified
    assert minimize(cone(res.witness)).complex.is_zero()
    coefficients = [c for m in res.witness.components.values() for terms in m.cells.values() for c in terms.values()]
    assert coefficients and all(0 <= c < 5 for c in coefficients)


class _MatrixQuotient:
    """S = M_2(Q) in the basis 1, E12, E21, N = [[2, 1], [-1, 0]]: a stand-in for E/rad E.

    The minimal polynomials of the basis elements are t - 1, t^2, t^2 and
    (t - 1)^2, each a power of one irreducible, so no basis element splits S.
    """

    field = QQ
    dim = 4
    one = [1, 0, 0, 0]

    @staticmethod
    def _matrix(x):
        a, b, c, d = x
        return [[a + 2 * d, b + d], [c - d, a]]

    def mul(self, x, y):
        X, Y = self._matrix(x), self._matrix(y)
        (p, q), (r, s) = ([sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2)] for i in range(2))
        d = QQ.div(p - s, 2)
        return [s, q - d, r + d, d]


def test_idempotent_search_reaches_the_seeded_combinations(monkeypatch):
    """No basis element of M_2(Q) splits it; the 3rd combination from the fixed stream does, on the 7th try."""
    S = _MatrixQuotient()
    units = [[int(j == i) for j in range(4)] for i in range(4)]
    assert [_min_poly(S, u) for u in units] == [[1, -1], [1, 0, 0], [1, 0, 0], [1, -2, 1]]
    tries = []
    monkeypatch.setattr(decompose_module, "_try_minpoly_split", lambda S, x: tries.append(x) or _try_minpoly_split(S, x))
    e = _find_idempotent(S)
    assert e == [Fraction(1, 3), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 6)]
    assert S.mul(e, e) == e
    assert tries[:4] == units and len(tries) == 7


def test_newton_lift_iterates_to_an_exact_idempotent(ka3, monkeypatch):
    """g = [[e2, b], [0, e3]] on P2 (+) P3 has sigma(g) = 1 but g^2 != g; one Newton step gives the identity."""
    A, P = ka3["A"], ka3["P"]
    X = direct_sum(P["2"], P["3"])
    e2, e3 = (A.path_element(A.trivial_path(v)) for v in "23")
    b = A.path_element(A.path_of_arrows(["b"]))
    g = ChainMap(X, X, {0: PathMatrix(A, ("2", "3"), ("2", "3"), [[e2, b], [A.zero_element(), e3]])})
    assert decompose_module._sigma(g) == decompose_module._sigma(ChainMap.identity(X))
    assert not (g.compose(g) - g).is_zero()
    composes = []
    orig = ChainMap.compose
    monkeypatch.setattr(ChainMap, "compose", lambda f, h: composes.append(1) or orig(f, h))
    lifted = _newton_idempotent_chain(g)
    assert (lifted - ChainMap.identity(X)).is_zero()
    # g^2 and g^3 for the one step, then g^2 to see that the result is idempotent
    assert len(composes) == 3


def _regular_trace_form(hs, reps):
    """Gram matrix of tr(L_{b_i b_j}) on E, from the coordinates of the chain-map products."""
    d = len(reps)
    table = [[hs.coordinates(a.compose(b)) for b in reps] for a in reps]
    tau = [sum((table[k][l][l] for l in range(d)), Fraction(0)) for k in range(d)]
    return [[sum((c * t for c, t in zip(table[i][j], tau)), Fraction(0)) for j in range(d)] for i in range(d)]


def _reduced_coordinates(hs, radical, free, f):
    """The coordinates of [f], reduced modulo the RREF of the radical, at the free indices."""
    v = hs.coordinates(f)
    for row, col in zip(*radical):
        v = [x - v[col] * r for x, r in zip(v, row)]
    return [v[i] for i in free]


@pytest.mark.parametrize("name,rec,T_B", glue_fixtures(), ids=[f[0] for f in glue_fixtures()])
def test_sigma_gram_matches_regular_trace_form(name, rec, T_B):
    """E/rad E read through sigma agrees with E/rad E read off the coordinates of chain-map products.

    The oracle is the trace form of the regular representation, and products
    reduced modulo the radical's RREF, all from `HomSpace.coordinates`.
    """
    cert = glue(rec, [canonical_corner_silting(rec)], T_B, decompose_result=False)
    ends = [EndAlgebra(minimize(X).complex) for X in (direct_sum_many(rec.A, cert.T), cert.triangles[0]["M"])]
    assert ends[0].dim >= len(cert.T)
    for end in ends:
        hs = HomSpace(end.X, end.X, 0)
        assert [b.components for b in hs.basis_maps()] == [b.components for b in end.reps]
        # sigma is multiplicative on the representatives
        for a, sa in zip(end.reps, end.sigmas):
            for b, sb in zip(end.reps, end.sigmas):
                assert decompose_module._sigma(a.compose(b)) == decompose_module._sigma_mul(QQ, sa, sb)
        # the sigma-Gram radical is the kernel of the regular-representation trace form
        radical = row_space_rref(QQ, end.radical())
        assert radical == row_space_rref(QQ, kernel_basis(Matrix(QQ, _regular_trace_form(hs, end.reps), cols=end.dim)))
        # the quotient's unit and products of unit vectors, against the reduced coordinates
        S = SemisimpleQuotient(end)
        assert S.free == [i for i in range(end.dim) if i not in radical[1]]
        assert S.one == _reduced_coordinates(hs, radical, S.free, ChainMap.identity(end.X))
        units = [[Fraction(int(k == a)) for k in range(S.dim)] for a in range(S.dim)]
        for a, ua in zip(S.free, units):
            for b, ub in zip(S.free, units):
                product = end.reps[a].compose(end.reps[b])
                assert S.mul(ua, ub) == _reduced_coordinates(hs, radical, S.free, product)
        # and of combinations, whose sigma values sum the representatives' own
        rng = random.Random(S.dim)
        for _ in range(4):
            x, y = ([Fraction(rng.randint(-2, 2)) for _ in range(S.dim)] for _ in range(2))
            product = S.lift(x).compose(S.lift(y))
            assert S.mul(x, y) == _reduced_coordinates(hs, radical, S.free, product)


def test_end_algebra_rref_calls_independent_of_dim(monkeypatch, ka3):
    """Building End(X), and then E/rad E, row-reduces a fixed number of times, however large End(X) is.

    The quotient grows one running RREF for its coordinates; a solve per
    projected product would make the count grow with dim E.  Both radicals are
    non-zero, since the quotient skips reducing a zero radical.
    """
    I2, S2, P = ka3["I2"], ka3["S2"], ka3["P"]
    small = direct_sum(direct_sum(S2, shift(S2, 1)), I2)
    big = small
    for part in (I2, S2, shift(P["2"], -1), I2, shift(S2, 1)):
        big = direct_sum(big, part)
    calls = []
    orig = _kernel.rref_qq

    def counting(rows, *args):
        calls.append(len(rows))
        return orig(rows, *args)

    monkeypatch.setattr(_kernel, "rref_qq", counting)
    counts, quotient_counts, dims = [], [], []
    for X in (small, big):
        calls.clear()
        end = EndAlgebra(X)
        dims.append(end.dim)
        counts.append(len(calls))
        SemisimpleQuotient(end)
        quotient_counts.append(len(calls) - counts[-1])
    assert dims[1] >= 5 * dims[0]
    assert counts[0] == counts[1]
    assert quotient_counts[0] == quotient_counts[1]


def test_quotient_sigma_sums_overlapping_representatives():
    """sigma of a class adds the sigma values of its free representatives where their keys overlap.

    The quotient is built by hand: on the fixtures the free representatives'
    sigma values never share a key.
    """
    S = SemisimpleQuotient.__new__(SemisimpleQuotient)
    S.field = QQ
    S.sigmas = [
        {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(2)},
        {(0, 0, 0): Fraction(3), (1, 0, 0): Fraction(-1)},
    ]
    assert S.sigma([Fraction(1), Fraction(1)]) == {(0, 0, 0): 4, (0, 0, 1): 2, (1, 0, 0): -1}
    half = Fraction(1, 2)
    assert S.sigma([Fraction(2), half]) == {(0, 0, 0): Fraction(7, 2), (0, 0, 1): 4, (1, 0, 0): -half}
    # a key whose contributions cancel is dropped
    assert S.sigma([Fraction(3), Fraction(-1)]) == {(0, 0, 1): 6, (1, 0, 0): 1}


# ---------------------------------------------------------------------------
# the idempotent search's polynomials


class _PolyQuotient:
    """S = Q[t]/(f) in the basis 1, t, ..., t^(d-1): the interface the idempotent search reads."""

    field = QQ

    def __init__(self, f):
        self.f = [Fraction(c, f[0]) for c in f]  # monic, highest degree first
        self.dim = len(f) - 1
        self.one = [Fraction(int(i == 0)) for i in range(self.dim)]

    def mul(self, x, y):
        prod = [Fraction(0)] * (2 * self.dim - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for k in range(len(prod) - 1, self.dim - 1, -1):  # t^d = -(f_1 t^(d-1) + ... + f_d)
            c, prod[k] = prod[k], Fraction(0)
            for i in range(1, self.dim + 1):
                prod[k - i] -= c * self.f[i]
        return prod[: self.dim]


def _t(S):
    return [Fraction(int(i == 1)) for i in range(S.dim)]


# f, highest degree first, and the idempotent of t in Q[t]/(f) that the
# sympy-expression implementation found, in the basis 1, t, t^2, ...
MINPOLY_SPLITS = [
    ("t^2-t", [1, -1, 0], [Fraction(1), Fraction(-1)]),
    ("t(t-1)(t-2)", [1, -3, 2, 0], [Fraction(1), Fraction(1, 2), Fraction(-1, 2)]),
    ("(t^2-2)(t-1)", [1, -1, -2, 2], [Fraction(-1), Fraction(0), Fraction(1)]),
    ("(2t-1)(t-3)", [2, -7, 3], [Fraction(6, 5), Fraction(-2, 5)]),
    ("t^2(t-1)", [1, -1, 0, 0], [Fraction(1), Fraction(0), Fraction(-1)]),
    ("t^2(t-1)^2", [1, -2, 1, 0, 0], [Fraction(1), Fraction(0), Fraction(-3), Fraction(2)]),
]


@pytest.mark.parametrize("f,expected", [c[1:] for c in MINPOLY_SPLITS], ids=[c[0] for c in MINPOLY_SPLITS])
def test_minpoly_split_of_a_polynomial_quotient(f, expected):
    S = _PolyQuotient(f)
    e = _try_minpoly_split(S, _t(S))
    assert e is not None
    assert any(e) and e != S.one
    assert S.mul(e, e) == e
    assert e == expected


def test_minpoly_split_declines_an_irreducible_polynomial():
    S = _PolyQuotient([1, 0, -2])
    assert _try_minpoly_split(S, _t(S)) is None


def test_minpoly_split_calls_sympy_only_to_factor(monkeypatch):
    """One try makes one sympy.factor_list call, and no sympy call of the polynomial arithmetic."""
    calls = []

    class Spy:
        def __getattr__(self, name):
            obj = getattr(sympy, name)
            if not callable(obj):
                return obj

            def spy(*args, **kwargs):
                calls.append(name)
                return obj(*args, **kwargs)

            return spy

    monkeypatch.setattr(decompose_module, "sympy", Spy())
    S = _PolyQuotient([1, -3, 2, 0])
    assert _try_minpoly_split(S, _t(S)) is not None
    assert calls.count("factor_list") == 1
    assert not {"gcdex", "rem", "quo", "expand", "Rational"} & set(calls)


class _RefuseSympy:
    """Stands in for `decompose.sympy` and fails any read of it."""

    def __getattr__(self, name):
        raise AssertionError(f"sympy.{name} read")


def test_quadratic_minpoly_split_makes_no_sympy_call(monkeypatch):
    """A quadratic minimal polynomial is split without sympy."""
    monkeypatch.setattr(decompose_module, "sympy", _RefuseSympy())
    for f, expected in ([1, -1, 0], [Fraction(1), Fraction(-1)]), ([2, -7, 3], [Fraction(6, 5), Fraction(-2, 5)]):
        S = _PolyQuotient(f)
        assert _try_minpoly_split(S, _t(S)) == expected
    S = _PolyQuotient([1, 0, -2])
    assert _try_minpoly_split(S, _t(S)) is None


def _sympy_first_factor(poly):
    """sympy's first factor of poly, with sympy clearing its denominators, as `_first_factor` reports it."""
    q = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in poly], sympy.Symbol("t"))
    factors = q.clear_denoms(convert=True)[1].factor_list()[1]
    if len(factors) < 2:
        return None
    f, k = factors[0]
    return [int(c) for c in f.all_coeffs()], k


def _random_quadratics(rng, n):
    """n seeded quadratics of five kinds, as Fraction lists, highest degree first."""

    def nonzero(bound=12):
        return rng.choice([-1, 1]) * rng.randint(1, bound)

    def linear(den=1):
        return [Fraction(nonzero(), rng.randint(1, den)), Fraction(rng.randint(-12, 12), rng.randint(1, den))]

    def product(f, g):
        (a, b), (c, d) = f, g
        return [a * c, a * d + b * c, b * d]

    out = []
    for i in range(n):
        kind = i % 5
        if kind == 0:  # a product of two linear integer factors, primitive or not
            p = product(linear(), linear())
        elif kind == 1:  # a double root, times a scalar
            f, m = linear(), nonzero()
            p = [m * c for c in product(f, f)]
        elif kind == 2:  # random integer coefficients: mostly irreducible
            p = [Fraction(nonzero()), Fraction(rng.randint(-30, 30)), Fraction(rng.randint(-30, 30))]
        elif kind == 3:  # a product times an integer: never primitive
            m = rng.randint(2, 9)
            p = [m * c for c in product(linear(), linear())]
        else:  # Fraction coefficients: a product of rational linear factors or random, some made monic
            if rng.random() < 0.7:
                p = product(linear(9), linear(9))
            else:
                lead, b, c = nonzero(), rng.randint(-30, 30), rng.randint(-30, 30)
                p = [Fraction(lead, rng.randint(1, 9)), Fraction(b, rng.randint(1, 9)), Fraction(c, rng.randint(1, 9))]
            if rng.random() < 0.5:
                p = [c / p[0] for c in p]
        out.append(p)
    return out


def test_quadratic_first_factor_matches_sympy_factor_list(monkeypatch):
    """On 2 500 seeded quadratics, and a few linear polynomials, the exact rule reports sympy's first factor."""
    rng = seeded_rng(1901)
    polys = _random_quadratics(rng, 2500)
    polys += [[Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9))] for _ in range(20)]
    expected = [_sympy_first_factor(p) for p in polys]
    monkeypatch.setattr(decompose_module, "sympy", _RefuseSympy())
    got = [_first_factor(QQ, p) for p in polys]
    assert got == expected
    # both verdicts occur often
    assert sum(e is not None for e in expected) > 1000
    assert sum(e is None for e in expected) > 1000


def _min_poly_by_solve(S, x):
    """The reference: each new power solved afresh against all the lower ones."""
    powers, cur = [S.one], S.one
    while True:
        cur = S.mul(cur, x)
        sol = solve(Matrix(QQ, [[p[i] for p in powers] for i in range(S.dim)], cols=len(powers)), cur)
        if sol is not None:
            return [Fraction(1)] + [-c for c in reversed(sol)]
        powers.append(cur)


def test_min_poly_matches_the_solve_reference(monkeypatch):
    """The running RREF finds the same monic polynomial as solving afresh, with no full row reduction."""
    rng = seeded_rng(917)
    quotients = [_PolyQuotient(f) for _name, f, _e in MINPOLY_SPLITS] + [_PolyQuotient([1, 0, -2])]
    cases = [(S, _t(S)) for S in quotients]
    cases += [(S, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(S.dim)]) for S in quotients]
    calls = []
    orig = _kernel.rref_qq
    monkeypatch.setattr(_kernel, "rref_qq", lambda rows, *args: calls.append(1) or orig(rows, *args))
    for S, x in cases:
        expected = _min_poly_by_solve(S, x)
        calls.clear()
        assert _min_poly(S, x) == expected
        assert not calls
    assert _min_poly(quotients[3], _t(quotients[3])) == [1, Fraction(-7, 2), Fraction(3, 2)]


def test_a_missing_module_raises_module_not_found():
    """`_lazy_module` of a module that is not installed raises ModuleNotFoundError naming it, and so does
    importing the library where sympy cannot be found (`python -I -S`: no site-packages, and no PYTHONPATH
    or user site directory either)."""
    with pytest.raises(ModuleNotFoundError) as err:
        decompose_module._lazy_module("no_such_module_xyz")
    assert err.value.name == "no_such_module_xyz" and "no_such_module_xyz" not in sys.modules
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "try:\n    import siltglue.approx\nexcept ModuleNotFoundError as e:\n    print(e.name)\n"
    )
    res = subprocess.run([sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stdout.strip() == "sympy", res.stderr
