import functools
import gc
import itertools
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, random_quiver, seeded_rng
from former import FormerHomSpace, cone, former_reps
from oracle import oracle_delta, oracle_hom_dim
from test_recollement import _parallel_routes
from verifiers import boundary
from siltglue.fields import QQ, PrimeField
from siltglue.quiver import build_algebra
from siltglue.complexes import ChainMap, ComplexError, PathMatrix, ProjComplex, direct_sum, shift
from siltglue.fixtures import ka3_algebra
from siltglue.linalg import Matrix, extend_rref, independent_columns, row_space_rref, solve
from siltglue import homs
from siltglue.approx import ApproxError, _check_orthogonal, add_shift_preenvelope
from siltglue.serialize import chain_map_to_json
from siltglue.homs import (
    HomComplex,
    HomSpace,
    hom_dim,
    hom_dim_table,
    hom_spaces,
    hom_window,
    is_nonpositive,
    nonzero_homs,
    s_search,
    s_sup,
)


def test_hom_between_stalks(ka3):
    A = ka3["A"]
    P = ka3["P"]
    # dim Hom(P_v, P_w) = #paths w -> v
    assert hom_dim(P["1"], P["1"]) == 1
    assert hom_dim(P["2"], P["1"]) == 1
    assert hom_dim(P["3"], P["1"]) == 1
    assert hom_dim(P["1"], P["2"]) == 0
    assert hom_dim(P["1"], P["3"]) == 0


def test_window_vanishing(ka3):
    I2, P = ka3["I2"], ka3["P"]
    lo, hi = hom_window(I2, P["3"])
    for k in (lo - 2, lo - 1, hi + 1, hi + 2):
        assert hom_dim(I2, P["3"], k) == 0


def test_hom_dim_table_i2_p3(ka3):
    # the anchor value: Hom(I2, P3[1]) is one-dimensional
    table = hom_dim_table(ka3["I2"], ka3["P"]["3"])
    assert table == {0: 0, 1: 1}


def test_representatives_are_chain_maps(ka3):
    I2, S2 = ka3["I2"], ka3["S2"]
    hs = HomSpace(I2, S2, 0)
    for f in hs.basis_maps():
        f.check_chain_condition()
    assert hs.dim == len(hs.basis_maps())


def _random_hom_spaces(field, seed, count):
    rng = seeded_rng(seed)
    out = []
    while len(out) < count:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        X = random_complex(alg, rng, steps=3, shift_range=1)
        Y = random_complex(alg, rng, steps=3, shift_range=1)
        lo, hi = hom_window(X, Y)
        hs = HomSpace(X, Y, rng.randint(lo, hi)) if lo <= hi else None
        if hs is not None and hs.dim:
            out.append(hs)
    return out


def _check_representatives(hs):
    """Each representative is a chain map whose coordinates are its unit vector."""
    fld = hs.X.algebra.field
    for i, f in enumerate(hs.basis_maps()):
        f.check_chain_condition()
        assert hs.coordinates(f) == [fld.one if j == i else fld.zero for j in range(hs.dim)]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_random_representatives_are_chain_maps(field):
    for hs in _random_hom_spaces(field, 606, 12):
        _check_representatives(hs)


def test_a_perturbed_kernel_vector_is_caught():
    """Adding a non-cycle unit vector to a representative fails the chain check."""
    caught = 0
    for hs in _random_hom_spaces(QQ, 607, 40):
        fld = hs.X.algebra.field
        for idx in range(hs.fvars.dim):
            unit = [fld.one if j == idx else fld.zero for j in range(hs.fvars.dim)]
            try:
                ChainMap(hs.X, hs.Z, hs.fvars.from_vector(unit)).check_chain_condition()
            except ComplexError:
                break
        else:
            continue
        hs._reps[0] = [fld.add(a, b) for a, b in zip(hs._reps[0], unit)]
        with pytest.raises(ComplexError, match="not a chain map"):
            _check_representatives(hs)
        caught += 1
    assert caught >= 3


def test_basis_maps_compose_nothing(monkeypatch):
    """Representatives are kernel vectors of the chain-condition system: no product is formed."""
    calls = []
    orig = PathMatrix.compose

    def counting(self, other):
        calls.append(1)
        return orig(self, other)

    monkeypatch.setattr(PathMatrix, "compose", counting)
    rng = seeded_rng(608)
    built = 0
    for _ in range(6):
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), QQ)
        X = random_complex(alg, rng, steps=3, shift_range=1)
        hs = HomSpace(X, X)
        calls.clear()
        built += len(hs.basis_maps())
        assert not calls
    assert built >= 6


def test_coordinates_round_trip(ka3):
    X = direct_sum(ka3["P"]["1"], ka3["P"]["2"])
    hs = HomSpace(X, X, 0)
    for i, f in enumerate(hs.basis_maps()):
        coords = hs.coordinates(f)
        assert [c != 0 for c in coords] == [j == i for j in range(hs.dim)]


def test_null_homotopic_witness(ka3):
    Z = cone(ChainMap.identity(ka3["I2"]))
    hs = HomSpace(Z, Z, 0)
    ident = ChainMap.identity(Z)
    assert hs.is_null_homotopic(ident)
    h = hs.homotopy_witness(ident)
    assert h is not None
    # d h + h d == identity
    recon = boundary(hs, h)
    for n in Z.components:
        assert (recon[n] - ident.component(n)).is_zero()


def test_s_sup_anchor(ka3):
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    assert s_sup(M, [shift(ka3["P"]["3"], 1)]) == 1


def test_s_sup_none(ka3):
    P3 = ka3["P"]["3"]
    assert s_sup(shift(P3, -1), [P3]) is None


def test_is_nonpositive_witness(ka3):
    A = ka3["A"]
    P = ka3["P"]
    ok, witness = is_nonpositive([P["1"], P["2"], P["3"]])
    assert ok and witness is None
    # Hom(P2, P1[-1][1]) = Hom(P2, P1) is spanned by the arrow 1 -> 2
    ok, witness = is_nonpositive([P["2"], shift(P["1"], -1)])
    assert not ok
    i, j, k, f = witness
    assert k >= 1
    f.check_chain_condition()


def test_nonzero_homs_builds_nothing_on_a_pair_with_no_connecting_path(ka3, monkeypatch):
    """No vertex of Y reaches one of X (ka3 is 1 -> 2 -> 3): every Hom^m is zero, and no complex or space is built."""
    built = []
    for cls in (HomComplex, HomSpace):
        monkeypatch.setattr(cls, "__init__", lambda obj, *args, init=cls.__init__: built.append(obj) or init(obj, *args))
    P = ka3["P"]
    X, Y = direct_sum(P["1"], shift(P["2"], 1)), direct_sum(P["3"], shift(P["3"], -2))
    assert list(nonzero_homs(X, Y, -5)) == [] and built == []
    assert [k for k, _hs in nonzero_homs(Y, X, -5)] == [-3, -2, -1, 0] and built


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_nonzero_homs_verdicts_equal_the_full_window_walk(field):
    """`nonzero_homs`, `is_nonpositive` and `approx._check_orthogonal` give the verdicts of every space of the window
    built in turn, on random pairs with and without a connecting path."""
    rng, unreached, reached = seeded_rng(4702), 0, 0
    for _ in range(16):
        alg = build_algebra(random_quiver(rng, max_vertices=6, arrow_prob=0.2), field)
        objs = [random_complex(alg, rng, steps=rng.randint(0, 2), shift_range=2) for _ in range(4)]
        for X, Y in itertools.product(objs, repeat=2):
            walk = {k: hs.dim for k, hs in hom_spaces(X, Y).items() if hs is not None and hs.dim}
            for lo in (-1, 0, 1):
                assert [(k, hs.dim) for k, hs in nonzero_homs(X, Y, lo)] == [(k, d) for k, d in walk.items() if k >= lo]
            try:
                _check_orthogonal([(X, Y)], "pair")
            except ApproxError:
                assert any(k >= 0 for k in walk)
            else:
                assert not any(k >= 0 for k in walk)
            ok, witness = is_nonpositive([X, Y])
            assert ok == (not any(k >= 1 for i, j in itertools.product((X, Y), repeat=2)
                                  for k, hs in hom_spaces(i, j).items() if hs is not None and hs.dim))
            ys = {w for ws in Y.components.values() for w in ws}
            linked = any((w, v) in alg.between for vs in X.components.values() for v in vs for w in ys)
            unreached, reached = unreached + (not linked), reached + (linked and bool(walk))
    assert unreached >= 50 and reached >= 100, (unreached, reached)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_hom_oracle_random(field):
    rng = seeded_rng(101)
    algs = [build_algebra(random_quiver(rng, max_vertices=4), field) for _ in range(3)]
    complexes = []
    for alg in algs:
        for _ in range(3):
            complexes.append(random_complex(alg, rng, steps=2, shift_range=1))
    checked = 0
    for X in complexes:
        for Y in complexes:
            if X.algebra != Y.algebra:
                continue
            lo, hi = hom_window(X, Y)
            for k in range(lo, hi + 1):
                assert hom_dim(X, Y, k) == oracle_hom_dim(X, Y, k)
                checked += 1
    assert checked > 20


def _adjacent_differentials(X):
    """True when two consecutive differentials of X are both non-zero."""
    live = {n for n, d in X.differentials.items() if not d.is_zero()}
    return any(n + 1 in live for n in live)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_hom_oracle_adjacent_differentials(field):
    rng = seeded_rng(202)
    complexes = []
    while len(complexes) < 4:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        X = random_complex(alg, rng, steps=4, max_width=5, shift_range=1)
        if _adjacent_differentials(X):
            complexes.append(X)
    checked = 0
    for X in complexes:
        others = [Y for Y in complexes if Y.algebra == X.algebra] + [ProjComplex.stalk(X.algebra, v) for v in X.algebra.quiver.vertices]
        for Y in others:
            for A, B in ((X, Y), (Y, X)):
                lo, hi = hom_window(A, B)
                for k in range(lo, hi + 1):
                    assert HomSpace(A, B, k).dim == oracle_hom_dim(A, B, k)
                    checked += 1
    assert checked > 20


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_homotopy_witness_round_trip(field):
    """f = d h + h d for Y[k], at even and odd k: at odd k, d_{Y[k]} = -d_Y and the witness carries that sign."""
    rng = seeded_rng(303)
    for k in (0, 1, -1):
        tried = 0
        while tried < 3:
            alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
            X = random_complex(alg, rng, steps=3, shift_range=1)
            Y = random_complex(alg, rng, steps=3, shift_range=1)
            hs = HomSpace(X, Y, k)
            if hs.hvars.dim == 0:
                continue
            h = hs.hvars.from_vector([field.of(rng.randint(-2, 2)) for _ in range(hs.hvars.dim)])
            f = ChainMap(X, hs.Z, boundary(hs, h))
            if f.is_zero():
                continue  # a zero f has every h as a witness, whatever its sign
            assert hs.is_null_homotopic(f)
            w = hs.homotopy_witness(f)
            assert w is not None
            assert (ChainMap(X, hs.Z, boundary(hs, w)) - f).is_zero()
            tried += 1


def _unknowns(X, Y):
    hs = HomSpace(X, Y, 0)
    return hs.fvars.dim + hs.hvars.dim


def test_homspace_compose_calls_independent_of_size(monkeypatch):
    """Assembling the Hom equations costs no path-matrix product per unknown."""
    rng = seeded_rng(404)
    alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.9), QQ)
    small = random_complex(alg, rng, steps=2, shift_range=1)
    big = small
    while _unknowns(big, big) < 4 * _unknowns(small, small):
        big = direct_sum(big, random_complex(alg, rng, steps=3, shift_range=1))

    calls = []
    orig = PathMatrix.compose

    def counting(self, other):
        calls.append(1)
        return orig(self, other)

    monkeypatch.setattr(PathMatrix, "compose", counting)
    counts = []
    for X in (small, big):
        calls.clear()
        HomSpace(X, X, 0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _solve_coordinates(hs, f):
    """The reference: solve [reps | boundary rows] x = f afresh, as one system."""
    fld = hs.X.algebra.field
    vec = hs.fvars.to_vector({n: f.component(n) for n in f.components})
    cols = hs._reps + hs.hom.image(hs.k - 1)[0]
    if not cols:
        return [] if all(fld.is_zero(x) for x in vec) else None
    mat = Matrix(fld, [[c[r] for c in cols] for r in range(hs.fvars.dim)], cols=len(cols))
    x = solve(mat, vec)
    return None if x is None else x[: hs.dim]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_cached_coordinates_match_solve(field):
    rng = seeded_rng(505)
    checked = raised = 0
    while checked < 40 or raised < 3:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        X = random_complex(alg, rng, steps=3, shift_range=1)
        Y = random_complex(alg, rng, steps=3, shift_range=1)
        hs = HomSpace(X, Y, 0)
        if hs.hvars.dim:
            # cycles: random combinations of representatives plus a boundary
            h = hs.hvars.from_vector([field.of(rng.randint(-2, 2)) for _ in range(hs.hvars.dim)])
            bd = ChainMap(X, Y, boundary(hs, h))
        else:
            bd = ChainMap.zero(X, Y)
        for _ in range(3):
            f = bd
            for g in hs.basis_maps():
                f = f + g.scale(field.of(rng.randint(-3, 3)))
            assert hs.coordinates(f) == _solve_coordinates(hs, f)
            checked += 1
        # a degreewise map that breaks the chain condition is refused
        for idx in range(hs.fvars.dim):
            vec = [field.zero] * hs.fvars.dim
            vec[idx] = field.one
            f = ChainMap(X, Y, hs.fvars.from_vector(vec))
            if _solve_coordinates(hs, f) is None:
                with pytest.raises(ValueError, match="outside the homotopy Hom space"):
                    hs.coordinates(f)
                raised += 1
                break


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_dim_is_the_number_of_representatives(field):
    """dim, read off two ranks, counts the representatives and matches the oracle."""
    rng = seeded_rng(709)
    cases = []
    for _ in range(3):
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        complexes = [random_complex(alg, rng, steps=3, shift_range=1) for _ in range(3)]
        stalks = [ProjComplex.stalk(alg, v) for v in alg.quiver.vertices]
        for X in complexes + stalks[:2]:
            for Y in complexes + stalks[:2]:
                lo, hi = hom_window(X, Y)
                cases += [(X, Y, k) for k in range(lo - 1, hi + 2)]
    seen = {"no f": 0, "no h": 0, "both": 0}
    for X, Y, k in cases:
        hs = HomSpace(X, Y, k)
        assert hs.dim == len(hs.basis_maps()) == oracle_hom_dim(X, Y, k)
        if not hs.fvars.dim:
            seen["no f"] += bool(hs.hvars.dim)  # only homotopies: the boundaries have zero width
        elif not hs.hvars.dim:
            seen["no h"] += bool(hs.dim)
        else:
            seen["both"] += bool(hs.dim)
    assert all(seen.values()), seen


def _spy_on_reps(monkeypatch):
    """Record each space whose representatives are picked; returns the list."""
    picked = []
    orig = HomSpace._reps.func

    def recording(self):
        picked.append(self)
        return orig(self)

    spy = functools.cached_property(recording)
    spy.__set_name__(HomSpace, "_reps")
    monkeypatch.setattr(HomSpace, "_reps", spy)
    return picked


def test_a_read_property_is_stored_in_the_instance(ka3):
    """`dim` and the other computed properties of a space are stored in its `vars()` on their first read,
    where `_reps` looks for `dim`, and later reads return the stored object."""
    hs = HomSpace(ka3["P"]["3"], ka3["P"]["3"], 0)
    assert not {"dim", "Z", "cycle_basis", "_reps", "_solver"} & set(vars(hs))
    dim = hs.dim
    assert vars(hs)["dim"] == dim == 1 and HomSpace.dim.__doc__.startswith("nullity")
    reps = hs._reps
    assert vars(hs)["_reps"] is reps is hs._reps and len(reps) == dim
    slots = hs.fvars.slots
    assert vars(hs.fvars)["slots"] is slots is hs.fvars.slots


def test_measuring_builds_no_representatives(ka3, monkeypatch):
    """hom_dim and hom_dim_table read two ranks; no representative is picked until basis_maps() is read."""
    picked = _spy_on_reps(monkeypatch)
    X = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    Y = direct_sum(ka3["P"]["3"], ka3["I2"])
    table = hom_dim_table(X, Y)
    assert any(table.values())
    assert [hom_dim(X, Y, k) for k in table] == list(table.values())
    assert not picked
    hs = HomSpace(X, Y, max(table, key=table.get))
    assert not picked
    assert len(hs.basis_maps()) == max(table.values())
    assert picked == [hs]  # the spy sees the representatives once they are read
    hs.basis_maps()
    assert picked == [hs]


def test_s_search_builds_representatives_only_where_read(ka3, monkeypatch):
    """The s-search measures; only the spaces at s handed to the preenvelope build representatives."""
    built = []
    orig = HomSpace.__init__

    def recording(self, *args):
        orig(self, *args)
        built.append(self)

    monkeypatch.setattr(HomSpace, "__init__", recording)
    P = ka3["P"]
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    T = [shift(P["3"], 1), P["1"], shift(P["2"], 2), ka3["S2"]]
    s, spaces = s_search(M, T)
    scanned = list(built)
    assert s == 1 and len(scanned) > len(spaces)
    assert not any("_reps" in vars(hs) for hs in scanned)
    pre = add_shift_preenvelope(M, T, s, spaces)
    assert [id(hs) for hs in scanned if "_reps" in vars(hs)] == [id(hs) for hs in spaces.values()]
    assert [0 if hs is None else hs.dim for hs in pre.spaces] == [len(reps) for reps in pre.reps]
    # a member the search left without a space at s has Hom(M, T_i[s]) = 0 and gets none
    assert [hs is None for hs in pre.spaces] == [ti not in spaces for ti in range(len(T))]


FIELDS = [QQ, PrimeField(5), PrimeField(2147483647)]
FIELD_IDS = ["Q", "F5", "F2147483647"]


def _random_pairs(field, seed, count):
    """`count` random pairs (X, Y) over random acyclic quivers, each with a non-empty window."""
    rng = seeded_rng(seed)
    pairs = []
    while len(pairs) < count:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        X = random_complex(alg, rng, steps=3, shift_range=1)
        Y = random_complex(alg, rng, steps=3, shift_range=1)
        lo, hi = hom_window(X, Y)
        if lo <= hi:
            pairs.append((X, Y))
    return pairs


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_views_on_one_complex_match_the_oracle(field):
    """Every view of a walk over the full window has the oracle's dimension and as many representatives."""
    checked = 0
    for X, Y in _random_pairs(field, 811, 8):
        spaces = hom_spaces(X, Y)
        assert len({id(hs.hom) for hs in spaces.values()}) == 1
        for k, hs in spaces.items():
            assert hs.dim == oracle_hom_dim(X, Y, k) == len(hs.basis_maps())
            checked += bool(hs.dim)
        assert [k for k, _ in nonzero_homs(X, Y, min(spaces))] == [k for k, hs in spaces.items() if hs.dim]
    assert checked >= 8


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_representatives_are_shift_invariant(field):
    """Hom(X[s], Y[s]) has the representative vectors and dimension of Hom(X, Y), for every k."""
    compared = 0
    for X, Y in _random_pairs(field, 812, 6):
        lo, hi = hom_window(X, Y)
        for k in range(lo, hi + 1):
            base = HomSpace(X, Y, k)
            for s in (-1, 1, 2):
                moved = HomSpace(shift(X, s), shift(Y, s), k)
                assert moved.dim == base.dim and moved._reps == base._reps
                assert moved.cycle_basis == base.cycle_basis
                compared += bool(base.dim)
    assert compared >= 12


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_window_walk_assembles_each_differential_once(field, monkeypatch):
    """Reading every view of a window (dims, representatives, null-homotopy, coordinates, witnesses)
    assembles each delta^m once, for m from lo - 1 to hi; one with no rows or no columns is never assembled."""
    calls = []
    orig = HomComplex._assemble

    def counting(self, m):
        calls.append(m)
        return orig(self, m)

    monkeypatch.setattr(HomComplex, "_assemble", counting)
    assembled = 0
    for X, Y in _random_pairs(field, 813, 6):
        calls.clear()
        spaces = hom_spaces(X, Y)
        for hs in spaces.values():
            for i, f in enumerate(hs.basis_maps()):
                assert [bool(c) for c in hs.coordinates(f)] == [j == i for j in range(hs.dim)]
                assert not hs.is_null_homotopic(f)
            hs.homotopy_witness(ChainMap.zero(X, hs.Z))
        hom = next(iter(spaces.values())).hom
        lo, hi = min(spaces), max(spaces)
        assert sorted(calls) == [m for m in range(lo - 1, hi + 1) if hom.term(m).dim and hom.term(m + 1).dim]
        assembled += len(calls)
    assert assembled >= 12


def _delta_pairs(field, seed, count):
    """`count` pairs of sums of two random complexes, over random quivers and over a quiver with
    parallel arrows, each pair with a non-empty window."""
    rng = seeded_rng(seed)
    parallel, _ = _parallel_routes(field)
    pairs = []
    while len(pairs) < count:
        alg = parallel if len(pairs) % 2 else build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        X, Y = (direct_sum(*(random_complex(alg, rng, steps=3, shift_range=1) for _ in range(2))) for _ in range(2))
        lo, hi = hom_window(X, Y)
        if lo <= hi:
            pairs.append((X, Y))
    return pairs


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_table_built_differentials_match_the_unit_images(field):
    """delta^m from the action tables equals delta^m built one unit map at a time, with sums,
    and names each non-zero entry once."""
    checked = 0
    for X, Y in _delta_pairs(field, 815, 24):
        hom = HomComplex(X, Y)
        lo, hi = hom_window(X, Y)
        for m in range(lo - 2, hi + 2):
            entries = hom.delta(m)
            assert len({(a, b) for a, b, _ in entries}) == len(entries)
            assert not any(field.is_zero(c) for _, _, c in entries)
            dense = [[field.zero] * hom.term(m + 1).dim for _ in range(hom.term(m).dim)]
            for a, b, c in entries:
                dense[a][b] = c
            assert dense == oracle_delta(X, Y, m)
            assert hom.dense(m) == (dense if hom.term(m + 1).dim else [])
            assert hom.dense(m, transposed=True) == ([list(c) for c in zip(*dense)] if dense else [])
            checked += len(entries)
    assert checked >= 100


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_action_tables_agree_with_compose_paths(field):
    """left_action[s, v] and right_action[t, w] hold exactly the products of composable basis paths."""
    rng = seeded_rng(816)
    algebras = [ka3_algebra(field), _parallel_routes(field)[0]]
    algebras += [build_algebra(random_quiver(rng, max_vertices=5, arrow_prob=0.6), field) for _ in range(3)]
    for alg in algebras:
        for s in alg.basis:
            for v in alg.quiver.vertices:
                paths, ends = alg.paths_between(s.target, v), alg.paths_between(s.source, v)
                products = [(p, alg.compose_paths(s, p)) for p in paths]
                assert [(paths[a], ends[b]) for a, b in alg.left_action[s, v]] == products
                paths, ends = alg.paths_between(v, s.source), alg.paths_between(v, s.target)
                products = [(p, alg.compose_paths(p, s)) for p in paths]
                assert [(paths[a], ends[b]) for a, b in alg.right_action[s, v]] == products


def _greedy_reps(hs):
    """The cycle-basis vectors that grow a running RREF of the boundaries, one at a time, until dim."""
    fld = hs.X.algebra.field
    brows, bpivs = hs.hom.image(hs.k - 1)
    rows, pivs = [list(r) for r in brows], list(bpivs)
    return list(itertools.islice((v for v in hs.cycle_basis if extend_rref(fld, rows, pivs, v)), hs.dim))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_representatives_are_the_greedy_choice(field):
    """The one-reduction representatives are the vectors a running RREF keeps, cycle by cycle."""
    compared = 0
    for X, Y in _random_pairs(field, 817, 10) + _delta_pairs(field, 817, 6):
        for hs in hom_spaces(X, Y).values():
            assert hs._reps == _greedy_reps(hs)
            compared += hs._reps != hs.cycle_basis[: hs.dim]  # some cycle before the last rep is skipped
    assert compared >= 5


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_representatives_skip_the_boundaries_zero_on_the_free_columns(field):
    """Building only the boundary rows that meet a free column gives the representatives of every
    row of delta^(k-1); some spaces have rows that are zero there."""
    compared = dropped = 0
    for X, Y in _random_pairs(field, 818, 10):
        for hs in hom_spaces(X, Y).values():
            assert hs._reps == former_reps(hs)
            if hs.dim:
                pivots = set(hs.hom.equations(hs.k)[1])
                free = [c for c in range(hs.fvars.dim) if c not in pivots]
                dropped += sum(not any(row[c] for c in free) for row in hs.hom.dense(hs.k - 1))
                compared += 1
    assert compared >= 10 and dropped >= 10


def test_maps_of_another_shift_are_refused(ka3):
    """coordinates, is_null_homotopic and homotopy_witness raise ValueError for a map not X -> Y[k]."""
    X = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    Y = direct_sum(ka3["P"]["3"], ka3["I2"])
    base = HomSpace(X, Y, 0)
    f = base.basis_maps()[0]
    assert base.coordinates(f) == [1] + [0] * (base.dim - 1)
    other = HomSpace(X, Y, 2)
    for read in (other.coordinates, other.is_null_homotopic, other.homotopy_witness):
        with pytest.raises(ValueError, match="not from X to Y"):
            read(f)
    back = HomSpace(Y, X, 0)  # the source and target swapped
    for read in (back.coordinates, back.is_null_homotopic, back.homotopy_witness):
        with pytest.raises(ValueError, match="not from X to Y"):
            read(f)


def _live(hom, ms):
    """The m among `ms` whose delta^m has rows and columns."""
    return [m for m in ms if hom.term(m).dim and hom.term(m + 1).dim]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_measuring_a_window_reduces_each_differential_once(field, monkeypatch):
    """Dims over a window count the rank of each delta^m with rows and columns once, by
    independent_columns, upwards (the table) and downwards (the s-search), and build no dense delta^m
    and no RREF."""
    pairs, counted, echelon = _random_pairs(field, 814, 8), [], []
    orig = homs.independent_columns

    def counting(fld, entries):
        counted.append(entries)
        return orig(fld, entries)

    monkeypatch.setattr(homs, "independent_columns", counting)
    monkeypatch.setattr(homs, "row_space_rref", lambda *args: echelon.append(args))
    monkeypatch.setattr(HomComplex, "dense", lambda *args, **kwargs: echelon.append(args))
    for X, Y in pairs:
        lo, hi = hom_window(X, Y)
        fresh = HomComplex(X, Y)
        counted.clear()
        hom_dim_table(X, Y)
        assert sorted(map(repr, counted)) == sorted(repr(fresh.delta(m)) for m in _live(fresh, range(lo - 1, hi + 1)))
        counted.clear()
        s, _spaces = s_search(X, [Y])
        bottom = max(lo, 0 if s is None else s)
        assert sorted(map(repr, counted)) == sorted(repr(fresh.delta(m)) for m in _live(fresh, range(bottom - 1, hi + 1)))
    assert not echelon


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sparse_rank_of_every_differential(field):
    """The number of `independent_columns` of each delta^m equals the rank of its dense RREF, in both orientations."""
    checked = 0
    for X, Y in _random_pairs(field, 814, 8) + _delta_pairs(field, 815, 24):
        hom = HomComplex(X, Y)
        lo, hi = hom_window(X, Y)
        for m in range(lo - 2, hi + 2):
            rank = len(independent_columns(field, hom.delta(m))) if hom.term(m).dim and hom.term(m + 1).dim else 0
            assert rank == len(row_space_rref(field, hom.dense(m))[1])
            assert rank == len(row_space_rref(field, hom.dense(m, transposed=True))[1])
            checked += rank > 0
    assert checked >= 20


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_only_coordinates_and_null_homotopy_reduce_the_boundaries(field, monkeypatch):
    """basis_maps() never reduces delta^(k-1) as an image; coordinates and is_null_homotopic reduce it once."""
    reduced = []
    orig = HomComplex.image

    def recording(self, m):
        if m not in self._images:
            reduced.append(m)
        return orig(self, m)

    monkeypatch.setattr(HomComplex, "image", recording)
    picked = 0
    for X, Y in _random_pairs(field, 818, 8):
        for read in ("coordinates", "is_null_homotopic"):
            reduced.clear()
            spaces = hom_spaces(X, Y)
            maps = {k: hs.basis_maps() for k, hs in spaces.items()}
            assert not reduced
            for k, hs in spaces.items():
                for f in maps[k] + [ChainMap.zero(X, hs.Z)] * 2:
                    getattr(hs, read)(f)
            assert reduced == [k - 1 for k in spaces]
            picked += sum(map(len, maps.values()))
    assert picked >= 8


def test_s_search_builds_no_space_below_a_window(ka3, monkeypatch):
    """A member whose window starts above 0 is scanned down to the window's bottom, not to 0;
    s is still the largest k >= 0 with a non-zero Hom."""
    built = []
    orig = HomSpace.__init__

    def recording(self, X, Y, k=0, hom=None):
        built.append((Y, k))
        orig(self, X, Y, k, hom)

    monkeypatch.setattr(HomSpace, "__init__", recording)
    P = ka3["P"]
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    above = 0
    for T in ([shift(P["1"], -3)], [shift(P["3"], -2), shift(ka3["S2"], -3)], [P["2"], shift(ka3["I2"], -4)]):
        built.clear()
        s, _spaces = s_search(M, T)
        assert not any(k < hom_window(M, Y)[0] for Y, k in built)
        above += sum(hom_window(M, Y)[0] > 0 for Y in T)
        tops = [k for Y in T for k in range(max(0, hom_window(M, Y)[0]), hom_window(M, Y)[1] + 1) if hom_dim(M, Y, k)]
        assert s == max(tops, default=None)
    assert above >= 3


def _test_maps(hs, rng):
    """A boundary b and f = b + a random combination of the representatives, both X -> Y[k]."""
    fld = hs.X.algebra.field
    h = hs.hvars.from_vector([fld.of(rng.randint(-2, 2)) for _ in range(hs.hvars.dim)])
    b = ChainMap(hs.X, hs.Z, boundary(hs, h))
    f = b
    for rep in hs.basis_maps():
        f = f + rep.scale(fld.of(rng.randint(-2, 2)))
    return b, f


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_lone_spaces_read_as_spaces_on_private_complexes(field, seed):
    """A walk of spaces built alone, which share their pair's live complex, reads as spaces on
    complexes of their own: dims, representatives (by == and serialized), coordinates, null-homotopy
    and homotopy witnesses, whether a space is measured before its representatives are read or not."""
    rng = seeded_rng(seed)
    (X, Y), = _random_pairs(field, seed, 1)
    lo, hi = hom_window(X, Y)
    walk = []
    for k in range(lo - 1, hi + 2):
        lone, private = HomSpace(X, Y, k), HomSpace(X, Y, k, HomComplex(X, Y))
        walk.append(lone)
        if rng.random() < 0.5:
            assert lone.dim == private.dim
        maps, expected = lone.basis_maps(), private.basis_maps()
        assert lone.dim == private.dim == len(maps)
        assert [(g.source, g.target, g.components) for g in maps] == [
            (g.source, g.target, g.components) for g in expected]
        assert [json.dumps(chain_map_to_json(g)) for g in maps] == [json.dumps(chain_map_to_json(g)) for g in expected]
        b, f = _test_maps(private, rng)
        for g in (b, f, *expected):
            assert lone.coordinates(g) == private.coordinates(g)
            assert lone.is_null_homotopic(g) == private.is_null_homotopic(g)
            assert lone.homotopy_witness(g) == private.homotopy_witness(g)
        assert lone.is_null_homotopic(b) and lone.homotopy_witness(b) is not None
    assert {id(hs.hom) for hs in walk} == {id(homs.LIVE[id(X), id(Y)])}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_lone_spaces_one_shift_at_a_time_assemble_each_differential_once(field, monkeypatch):
    """The benchmark's Hom walk, `hs` rebound to HomSpace(X, Y, k) at each shift and asked for its dim
    and representatives, assembles each delta^m and builds each Hom^m once: each space takes the
    complex the space before it still holds."""
    assembled, terms = [], []
    orig_assemble, orig_term = HomComplex._assemble, homs._VarSpace.__init__

    def assembling(self, m):
        assembled.append(m)
        return orig_assemble(self, m)

    def building(self, X, Y, m):
        terms.append(m)
        orig_term(self, X, Y, m)

    monkeypatch.setattr(HomComplex, "_assemble", assembling)
    monkeypatch.setattr(homs._VarSpace, "__init__", building)
    shared = 0
    for X, Y in _random_pairs(field, 819, 8):
        assembled.clear()
        terms.clear()
        lo, hi = hom_window(X, Y)
        for k in range(lo, hi + 1):
            hs = HomSpace(X, Y, k)
            assert hs.dim == len(hs.basis_maps())
        assert sorted(assembled) == _live(hs.hom, range(lo - 1, hi + 1))
        assert len(terms) == len(set(terms))
        shared += len(_live(hs.hom, range(lo, hi)))  # read by two spaces, assembled twice on complexes of their own
        del hs
    assert shared >= 8


def test_a_lone_complex_is_freed_with_its_last_space(ka3):
    """The table holds no reference to a complex: with the cycle collector off, the complex goes,
    and its entry with it, when its last space is dropped.  A complex passed in is not registered."""
    X, Y = direct_sum(shift(ka3["I2"], 1), ka3["S2"]), direct_sum(ka3["P"]["3"], ka3["I2"])
    key = (id(X), id(Y))
    gc.disable()
    try:
        first = HomSpace(X, Y, 0)
        maps = first.basis_maps()
        second = HomSpace(X, Y, 1)
        assert second.hom is first.hom is homs.LIVE[key]
        assert second.coordinates(ChainMap.zero(X, second.Z)) == [0] * second.dim
        freed = weakref.ref(first.hom)
        del first
        assert freed() is second.hom
        del second
        assert freed() is None and key not in homs.LIVE
        private = HomComplex(X, Y)
        assert HomSpace(X, Y, 0, private).hom is private and key not in homs.LIVE
        assert len(HomSpace(X, Y, 0).basis_maps()) == len(maps) == 1
        assert key not in homs.LIVE
    finally:
        gc.enable()


def test_a_space_measured_at_zero_reduces_nothing_for_its_representatives(monkeypatch):
    """basis_maps() of a space whose dim was read as 0 reduces no equations; a space not measured
    yet reduces delta^k once and reads its rank off that reduction."""
    reduced, counted = [], []
    orig_rref, orig_rank = homs.row_space_rref, homs.independent_columns
    monkeypatch.setattr(homs, "row_space_rref", lambda *args: reduced.append(1) or orig_rref(*args))
    monkeypatch.setattr(homs, "independent_columns", lambda *args: counted.append(1) or orig_rank(*args))
    zeros = unmeasured = 0
    for X, Y in _random_pairs(QQ, 820, 24):
        lo, hi = hom_window(X, Y)
        for k in range(lo, hi + 1):
            hs = HomSpace(X, Y, k, HomComplex(X, Y))
            if hs.dim:
                continue
            reduced.clear()
            assert hs.basis_maps() == [] and not reduced
            zeros += 1
            fresh = HomSpace(X, Y, k, HomComplex(X, Y))
            if fresh.hom.term(k).dim and fresh.hom.term(k + 1).dim:
                counted.clear()
                assert fresh.basis_maps() == [] and len(reduced) == 1
                assert counted == [1] * bool(fresh.hom.term(k - 1).dim and fresh.fvars.dim)
                unmeasured += 1
    assert zeros >= 5 and unmeasured >= 3


def test_a_walk_that_builds_no_space_builds_no_complex(ka3, monkeypatch):
    """hom_spaces over shifts that miss the window, and s_search over a member whose window ends
    below 0 or below the best k found, build no HomComplex."""
    made = []
    orig = HomComplex.__init__

    def recording(self, X, Y):
        made.append(Y)
        orig(self, X, Y)

    monkeypatch.setattr(HomComplex, "__init__", recording)
    P = ka3["P"]
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    lo, hi = hom_window(M, P["1"])
    assert set(hom_spaces(M, P["1"], hi + 1, hi + 3).values()) == {None}
    assert set(hom_spaces(M, P["1"], lo - 3, lo - 1).values()) == {None}
    assert not made
    below = shift(P["1"], 5)
    assert hom_window(M, below)[1] < 0
    assert s_search(M, [below]) == (None, {}) and not made
    top = shift(ka3["I2"], -1)
    s, spaces = s_search(M, [top, below, shift(P["3"], 1)])
    assert s is not None and s > hom_window(M, shift(P["3"], 1))[1]
    assert made == [top] and list(spaces) == [0]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_spaces_read_as_the_full_row_oracle(field, seed):
    """Spaces that reduce the independent rows only read as FormerHomSpace, which reduces every row:
    dims, representatives (by == and serialized), coordinates and null-homotopy, for a walk of lone
    spaces measured before their representatives are read or not, and for spaces on complexes of
    their own."""
    rng = seeded_rng(seed)
    (X, Y), = _random_pairs(field, seed, 1)
    lo, hi = hom_window(X, Y)
    for k in range(lo - 1, hi + 2):
        oracle = FormerHomSpace(X, Y, k)
        lone, private = HomSpace(X, Y, k), HomSpace(X, Y, k, HomComplex(X, Y))
        if rng.random() < 0.7:
            assert lone.dim == oracle.dim
        expected = oracle.basis_maps()
        for hs in (lone, private):
            maps = hs.basis_maps()
            assert hs.dim == oracle.dim == len(maps)
            assert [(g.source, g.target, g.components) for g in maps] == [
                (g.source, g.target, g.components) for g in expected]
            assert [json.dumps(chain_map_to_json(g)) for g in maps] == [
                json.dumps(chain_map_to_json(g)) for g in expected]
        b, f = _test_maps(oracle, rng)
        for g in (b, f, *expected):
            assert lone.coordinates(g) == private.coordinates(g) == oracle.coordinates(g)
            assert lone.is_null_homotopic(g) == private.is_null_homotopic(g) == oracle.is_null_homotopic(g)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_walk_reduces_independent_rows_and_builds_kept_cycles_only(field, monkeypatch):
    """The benchmark's Hom walk, HomSpace(X, Y, k) per shift asked for its dim and then its
    representatives, reduces the equations of delta^k on exactly rank delta^k rows, and the
    boundaries on exactly rank delta^(k-1) rows once the space at k - 1 has reduced its equations
    (on the rows that meet a free column before), and builds one cycle vector per representative."""
    reductions, built = [], []
    orig_rref, orig_kernel = homs.row_space_rref, homs.rref_kernel_basis

    def reducing(fld, rows, *args, **kwargs):
        reductions.append(len(rows))
        return orig_rref(fld, rows, *args, **kwargs)

    def building(*args):
        vectors = orig_kernel(*args)
        built.append(len(vectors))
        return vectors

    monkeypatch.setattr(homs, "row_space_rref", reducing)
    monkeypatch.setattr(homs, "rref_kernel_basis", building)
    dependent_equations = dependent_boundaries = skipped_cycles = 0
    for X, Y in _random_pairs(field, 821, 12) + _delta_pairs(field, 821, 24):
        lo, hi = hom_window(X, Y)
        for k in range(lo, hi + 1):
            hs = HomSpace(X, Y, k)
            hom, dim = hs.hom, hs.dim
            prior = k - 1 in hom._equations  # the space at k - 1 reduced its equations
            reductions.clear()
            built.clear()
            assert len(hs.basis_maps()) == dim
            if not dim:
                assert not reductions and not built
                continue
            pivots = set(hom.equations(k)[1])
            free = [c for c in range(hs.fvars.dim) if c not in pivots]
            meeting = sum(any(row[c] for c in free) for row in hom.dense(k - 1))
            assert reductions == [hom.rank(k), hom.rank(k - 1) if prior else meeting]
            assert built == [dim]
            dependent_equations += hom.term(k + 1).dim > hom.rank(k)
            dependent_boundaries += prior and meeting > hom.rank(k - 1)
            skipped_cycles += len(free) > dim
        del hs
    assert dependent_equations >= 5 and dependent_boundaries >= 3 and skipped_cycles >= 5
