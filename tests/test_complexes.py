import json

import pytest

from conftest import conjugated, random_complex, random_quiver, seeded_rng
import former
from former import (
    cocone,
    cone,
    former_cancel,
    former_cocone,
    former_invert,
    former_minimal_cocone,
    former_minimal_cone,
    former_minimize,
    radical_part,
    trivial_coefficient,
)
from oracle import _rank
from siltglue import approx, complexes, linalg
from siltglue.fields import QQ, PrimeField
from siltglue.fixtures import glue_fixtures, ka3_algebra, ka3_named_complexes
from siltglue.gluing import canonical_corner_silting, glue
from siltglue.quiver import Path, build_algebra
from siltglue.recollement import i_star, j_lower_shriek
from siltglue.complexes import (
    ChainMap,
    ComplexError,
    PathMatrix,
    direct_sum,
    direct_sum_many,
    make_complex,
    minimal_cocone,
    minimal_cone,
    minimize,
    shift,
    shift_map,
    subcomplex_on_indices,
    transform,
    opposite_complex,
    ProjComplex,
    _pivots,
)
from siltglue.decompose import is_isomorphic
from siltglue.homs import HomSpace
from siltglue.serialize import chain_map_to_json, complex_to_json
from verifiers import cone_projection, reference_pivots


def test_d_squared_enforced(ka3):
    A = ka3["A"]
    a = A.path_element(A.path_of_arrows(["a"]))
    b = A.path_element(A.path_of_arrows(["b"]))
    with pytest.raises(ComplexError, match="d\\^2"):
        make_complex(
            A,
            {-2: ("3",), -1: ("2",), 0: ("1",)},
            {
                -2: PathMatrix(A, ("2",), ("3",), [[b]]),
                -1: PathMatrix(A, ("1",), ("2",), [[a]]),
            },
        )


def test_entry_hom_space_validated(ka3):
    A = ka3["A"]
    a = A.path_element(A.path_of_arrows(["a"]))
    with pytest.raises(ComplexError, match="lies outside"):
        make_complex(A, {0: ("3",), 1: ("2",)}, {0: PathMatrix(A, ("2",), ("3",), [[a]])})


def test_entry_not_an_algebra_element_is_named(ka3):
    A = ka3["A"]
    b = A.path_element(A.path_of_arrows(["b"]))
    with pytest.raises(ComplexError, match=r"entry \(1,0\) is not an element of the algebra"):
        PathMatrix(A, ("1", "2"), ("3",), [[A.zero_element()], ["b"]])
    F5 = ka3_algebra(PrimeField(5))
    with pytest.raises(ComplexError, match=r"entry \(1,0\) is not an element of the algebra"):
        PathMatrix(A, ("1", "2"), ("3",), [[A.zero_element()], [F5.path_element(F5.path_of_arrows(["b"]))]])
    stray = A.element({Path("2", "3", ("zz",)): A.field.one})
    with pytest.raises(ComplexError, match=r"entry \(1,0\) is not an element of the algebra"):
        PathMatrix(A, ("1", "2"), ("3",), [[A.zero_element()], [stray]]).check_entries()
    PathMatrix(A, ("1", "2"), ("3",), [[A.zero_element()], [b]]).check_entries()


def test_direct_sum_keeps_the_first_seen_degree_order(ka3):
    """`components` lists the degrees in the order the summands first show them.

    The benchmark's input generator draws its random numbers degree by
    degree in this order, so the order is part of what a sum gives back.
    """
    A = ka3["A"]
    stalks = [ProjComplex.stalk(A, v, n) for v, n in (("1", 1), ("2", 0), ("3", 2), ("2", 1))]
    X = direct_sum_many(A, stalks)
    assert list(X.components.items()) == [(1, ("1", "2")), (0, ("2",)), (2, ("3",))]


def test_shift_sign_and_involution(ka3):
    I2 = ka3["I2"]
    s = shift(I2, 1)
    assert s.component(-2) == ("3",)
    assert s.differential(-2).entries[0][0] == -I2.differential(-1).entries[0][0]
    assert shift(s, -1) == I2
    assert shift(shift(I2, 2), -2) == I2


def test_cone_triangle_shapes(ka3):
    A = ka3["A"]
    I2, S2 = ka3["I2"], ka3["S2"]
    # any chain map I2 -> S2; use zero
    f = ChainMap.zero(I2, S2)
    C = cone(f)
    assert C.component(-2) == ("3",)
    assert C.component(-1) == ("1", "3")
    proj = cone_projection(f)
    proj.check_chain_condition()
    CC, u = cocone(f)
    u.check_chain_condition()
    # cocone components are X^n (+) Y^{n-1}
    assert CC.component(0) == ("1", "3")
    assert CC.component(1) == ("2",)


def test_cone_of_identity_vanishes(ka3):
    I2 = ka3["I2"]
    assert minimize(cone(ChainMap.identity(I2))).complex.is_zero()


def test_minimize_strips_units(ka3):
    A = ka3["A"]
    e2 = A.unit_at("2")
    X = make_complex(A, {0: ("2",), 1: ("2",)}, {0: PathMatrix(A, ("2",), ("2",), [[e2]])})
    m = minimize(X)
    assert m.complex.is_zero()


def test_minimize_cancels_unit_entries_in_row_major_order(ka3):
    # d^0 = [e2 e2]: the first unit entry is cancelled, so the second P_2
    # survives and keeps its entry -b of d^{-1}
    A = ka3["A"]
    b = A.path_element(A.path_of_arrows(["b"]))
    e2 = A.unit_at("2")
    X = make_complex(
        A,
        {-1: ("3",), 0: ("2", "2"), 1: ("2",)},
        {-1: PathMatrix(A, ("2", "2"), ("3",), [[b], [-b]]), 0: PathMatrix(A, ("2",), ("2", "2"), [[e2, e2]])},
    )
    m = minimize(X)
    assert m.complex == make_complex(A, {-1: ("3",), 0: ("2",)}, {-1: PathMatrix(A, ("2",), ("3",), [[-b]])})
    assert m.to_min.component(0) == PathMatrix(A, ("2",), ("2", "2"), [[A.zero_element(), e2]])
    assert m.from_min.component(0) == PathMatrix(A, ("2", "2"), ("2",), [[-e2], [e2]])


def test_minimize_equivalence_maps(ka3):
    A = ka3["A"]
    I2 = ka3["I2"]
    X = direct_sum(I2, cone(ChainMap.identity(ka3["S2"])))
    m = minimize(X)
    assert m.complex.graded_multiset() == I2.graded_multiset()
    m.to_min.check_chain_condition()
    m.from_min.check_chain_condition()
    # p o i = identity on the minimal model
    comp = m.to_min.compose(m.from_min)
    ident = ChainMap.identity(m.complex)
    assert all((comp.component(n) - ident.component(n)).is_zero() for n in m.complex.components)
    # i o p is homotopic to the identity: its cone is contractible
    other = m.from_min.compose(m.to_min)
    diff = other - ChainMap.identity(X)
    assert HomSpace(X, X, 0).is_null_homotopic(diff)


def _unitriangular(alg, rng, vs):
    """A random invertible change of basis: e_v on the diagonal, random paths above it."""
    fld = alg.field
    ents = []
    for i, w in enumerate(vs):
        row = []
        for j, v in enumerate(vs):
            terms = {}
            if i == j:
                terms[alg.trivial_path(v)] = fld.one
            elif i < j:
                for p in alg.paths_between(w, v):
                    terms[p] = fld.of(rng.randint(-2, 2))
            row.append(alg.element(terms))
        ents.append(row)
    return PathMatrix(alg, vs, vs, ents)


def _unminimized_inputs(field):
    """Complexes with unit differential entries for the minimize property test.

    Raw cones of random chain maps between random complexes, the same cones
    plus a contractible cone(identity), that sum with its bases mixed by a
    random change of basis, and a unit block with an arrow inside it.
    """
    rng = seeded_rng(31)
    out = []
    for _ in range(5):
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.8), field)
        X = random_complex(alg, rng, steps=3)
        Y = random_complex(alg, rng, steps=3)
        hs = HomSpace(X, Y, rng.randint(-1, 1))
        f = ChainMap.zero(X, hs.Z)
        for g in hs.basis_maps():
            f = f + g.scale(field.of(rng.randint(-2, 2)))
        Z = cone(f)
        S = direct_sum(Z, cone(ChainMap.identity(X)))
        mixed = transform(S, {n: _unitriangular(alg, rng, vs) for n, vs in S.components.items()})
        out += [Z, S, mixed]
    # d^0 = [[e1, a, 2ab], [0, e2, b]]: the pivots are the slots of P_1 and
    # P_2, and the arrow a in the block makes `invert` run its Neumann series
    A = ka3_algebra(field)
    a, b = A.path_element(A.path_of_arrows(["a"])), A.path_element(A.path_of_arrows(["b"]))
    ab = A.path_element(A.path_of_arrows(["a", "b"]))
    ents = [[A.unit_at("1"), a, ab.scale(field.of(2))], [A.zero_element(), A.unit_at("2"), b]]
    d = PathMatrix(A, ("1", "2"), ("1", "2", "3"), ents)
    assert not radical_part(d.submatrix([0, 1], [0, 1])).is_zero()
    block = make_complex(A, {0: ("1", "2", "3"), 1: ("1", "2")}, {0: d})
    out += [block, shift(direct_sum(ka3_named_complexes(A)["I2"], block), 1)]
    return out


def _scalar_homology(X):
    """{(degree, vertex): dim H^n} of the scalar-part complex, by the oracle's own rank."""
    fld = X.algebra.field
    out = {}
    for n, vs in X.components.items():
        for v in set(vs):
            ranks = []
            for m in (n - 1, n):
                d = X.differential(m)
                rows = [i for i, w in enumerate(d.row_vertices) if w == v]
                cols = [j for j, w in enumerate(d.col_vertices) if w == v]
                s = d.scalar_part()
                ranks.append(_rank(fld, [[s[i][j] for j in cols] for i in rows]) if cols else 0)
            h = vs.count(v) - sum(ranks)
            if h:
                out[n, v] = h
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_minimize_is_a_homotopy_equivalence_onto_a_minimal_complex(field):
    for X in _unminimized_inputs(field):
        m = minimize(X)
        Y, alg = m.complex, X.algebra
        for d in Y.differentials.values():
            assert all(field.is_zero(trivial_coefficient(x)) for row in d.entries for x in row)
        assert {(n, v): vs.count(v) for n, vs in Y.components.items() for v in vs} == _scalar_homology(X)
        m.to_min.check_chain_condition()
        m.from_min.check_chain_condition()
        back = m.to_min.compose(m.from_min)
        assert set(back.components) == set(Y.components)
        for n, vs in Y.components.items():
            assert back.component(n) == PathMatrix.identity(alg, vs)
        # from_min o to_min - id = d h + h d for the witness h
        diff = m.from_min.compose(m.to_min) - ChainMap.identity(X)
        h = HomSpace(X, X, 0).homotopy_witness(diff)
        assert h is not None

        def h_at(n):
            return h.get(n) or PathMatrix.zero(alg, X.component(n - 1), X.component(n))

        for n in X.components:
            dh = X.differential(n - 1).compose(h_at(n)) + h_at(n + 1).compose(X.differential(n))
            assert dh == diff.component(n)


def _full_maps(old):
    """to_min and from_min as products of every Gauss step's own chain maps, from `former_minimize`'s steps.

    Each step (n, rows, keep_src, keep_tgt, Gamma Phi^-1, (cols, Phi^-1, B))
    is in the indices of the complex before it, which is carried along: Y
    is `former_cancel`'s result on it.  Its p: X -> Y and i: Y -> X are
    whole chain maps, selections except p^{n+1} = [-Gamma Phi^-1 | 1] and
    i^n = [-Phi^-1 B ; 1], each checked for the chain condition and
    composed up step by step; this is the reference for `to_min` and
    `from_min`.
    """
    alg = old.source.algebra
    p_total = i_total = ChainMap.identity(old.source)
    prev = old.source
    for n, rows, keep_src, keep_tgt, gamma_phi_inv, (cols, phi_inv, beta) in old.steps:
        Y = former_cancel(prev, n, rows, cols)[0]
        id_src, id_tgt = PathMatrix.identity(alg, prev.component(n)), PathMatrix.identity(alg, prev.component(n + 1))
        all_src, all_tgt = range(id_src.rows), range(id_tgt.rows)
        p = {k: PathMatrix.identity(alg, vs) for k, vs in prev.components.items()}
        i = dict(p)
        p[n] = id_src.submatrix(keep_src, all_src)
        p[n + 1] = id_tgt.submatrix(keep_tgt, all_tgt) - gamma_phi_inv.compose(id_tgt.submatrix(rows, all_tgt))
        i[n] = id_src.submatrix(all_src, keep_src) - id_src.submatrix(all_src, cols).compose(phi_inv).compose(beta)
        i[n + 1] = id_tgt.submatrix(all_tgt, keep_tgt)
        p, i = ChainMap(prev, Y, p), ChainMap(Y, prev, i)
        p.check_chain_condition()
        i.check_chain_condition()
        p_total, i_total = p.compose(p_total), i_total.compose(i)
        prev = Y
    assert prev == old.complex
    return p_total, i_total


def _same_map(f, g):
    assert (f.source, f.target) == (g.source, g.target)
    lo = min(f.source.lo, f.target.lo)
    hi = max(f.source.hi, f.target.hi)
    return all(f.component(n) == g.component(n) for n in range(lo, hi + 1))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_minimize_maps_match_full_maps(field):
    """to_min and from_min equal the products of every former Gauss step's own chain maps."""
    steps = 0
    for X in _unminimized_inputs(field):
        m, old = minimize(X), former_minimize(X)
        to_min, from_min = _full_maps(old)
        assert _same_map(m.to_min, to_min)
        assert _same_map(m.from_min, from_min)
        steps += len(old.steps)
    assert steps >= 10


def test_minimal_model_entries_in_radical():
    rng = seeded_rng(7)
    for _ in range(6):
        alg = build_algebra(random_quiver(rng), QQ)
        X = random_complex(alg, rng, steps=3)
        m = minimize(X).complex
        for d in m.differentials.values():
            for row in d.entries:
                for x in row:
                    assert alg.field.is_zero(trivial_coefficient(x))


def test_transform_conjugation(ka3):
    A = ka3["A"]
    I2 = ka3["I2"]
    a = A.path_element(A.path_of_arrows(["a"]))
    # invertible change at degree 0 (unit plus nothing to mix)
    U = PathMatrix(A, ("1",), ("1",), [[A.unit_at("1", A.field.of(5))]])
    Y = transform(I2, {0: U})
    assert Y.component(0) == ("1",)
    assert Y.differential(-1).entries[0][0] == I2.differential(-1).entries[0][0].scale(A.field.of(5))


def test_pathmatrix_invert(ka3):
    A = ka3["A"]
    a = A.path_element(A.path_of_arrows(["a"]))
    pm = PathMatrix(A, ("1", "2"), ("1", "2"), [[A.unit_at("1"), a], [A.zero_element(), A.unit_at("2", A.field.of(-2))]])
    inv = pm.invert()
    ident = PathMatrix.identity(A, ("1", "2"))
    assert (pm.compose(inv) - ident).is_zero()
    assert (inv.compose(pm) - ident).is_zero()


def test_pathmatrix_invert_one_by_one_matches_row_reduction(monkeypatch):
    F5 = PrimeField(5)
    A = ka3_algebra(F5)
    pm = PathMatrix(A, ("2",), ("2",), [[A.unit_at("2", F5.of(3))]])
    # the same block inside a 2x2 one, inverted by row reduction of [S | 1]
    zero = A.zero_element()
    block = PathMatrix(A, ("2", "1"), ("2", "1"), [[A.unit_at("2", F5.of(3)), zero], [zero, A.unit_at("1")]])
    by_rref = block.invert().submatrix([0], [0])
    assert by_rref == PathMatrix(A, ("2",), ("2",), [[A.unit_at("2", F5.of(2))]])

    def no_rref(*_args):
        raise AssertionError("a 1x1 block needs no row reduction")

    monkeypatch.setattr(complexes, "row_space_rref", no_rref)
    assert pm.invert() == by_rref
    with pytest.raises(ComplexError, match="singular"):
        PathMatrix(A, ("2",), ("2",), [[A.zero_element()]]).invert()


def test_subcomplex_on_indices(ka3):
    A = ka3["A"]
    X = direct_sum(ka3["I2"], ka3["S2"])
    sub = subcomplex_on_indices(X, {-1: [0], 0: [0]})
    assert sub == ka3["I2"]


def test_opposite_round_trip(ka3):
    A = ka3["A"]
    Aop = build_algebra(A.quiver.opposite(), A.field)
    for X in (ka3["I2"], ka3["S2"], shift(ka3["I2"], 2)):
        op = opposite_complex(X, Aop)
        assert opposite_complex(op, A) == X


def test_shift_map_chain_condition(ka3):
    I2 = ka3["I2"]
    f = ChainMap.identity(I2)
    g = shift_map(f, 3)
    g.check_chain_condition()
    assert g.source == shift(I2, 3)


def _naive_compose(a, b):
    """Reference product: sum of AlgebraElement products, entry by entry."""
    alg = a.algebra
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = alg.zero_element()
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return PathMatrix(alg, a.row_vertices, b.col_vertices, out)


def _random_path_matrix(alg, rng, rows, cols):
    """Entries are random combinations of the allowed paths, often zero."""
    fld = alg.field
    ents = []
    for w in rows:
        row = []
        for v in cols:
            terms = {}
            for p in alg.paths_between(w, v):
                if rng.random() < 0.6:
                    terms[p] = fld.of(rng.randint(-2, 2))
            row.append(alg.element(terms))
        ents.append(row)
    return PathMatrix(alg, rows, cols, ents)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_compose_matches_naive_product(field):
    rng = seeded_rng(23)
    checked = zeros = 0
    for _ in range(12):
        alg = build_algebra(random_quiver(rng, max_vertices=5, arrow_prob=0.6), field)
        vs = alg.quiver.vertices
        shapes = [[rng.choice(vs) for _ in range(rng.randint(0, 4))] for _ in range(3)]
        a = _random_path_matrix(alg, rng, shapes[0], shapes[1])
        b = _random_path_matrix(alg, rng, shapes[1], shapes[2])
        expect = _naive_compose(a, b)
        assert a.compose(b) == expect
        checked += 1
        zeros += sum(x.is_zero() for row in expect.entries for x in row)
    assert checked == 12 and zeros > 0


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_compose_cancels_to_zero(field):
    # (a  a) . (b; -b) = ab - ab: every term cancels
    A = ka3_algebra(field)
    a = A.path_element(A.path_of_arrows(["a"]))
    b = A.path_element(A.path_of_arrows(["b"]))
    z = A.zero_element()
    left = PathMatrix(A, ("1",), ("2", "2"), [[a, a]])
    right = PathMatrix(A, ("2", "2"), ("3", "1"), [[b, z], [-b, z]])
    prod = left.compose(right)
    assert prod == _naive_compose(left, right)
    assert prod.is_zero()
    assert prod.entries[0][0].terms == {}


def _assert_sparse(m):
    """No empty cell and no zero coefficient; `is_zero` agrees with a dense scan of `entries`."""
    fld = m.algebra.field
    for (i, j), terms in m.cells.items():
        assert 0 <= i < m.rows and 0 <= j < m.cols
        assert terms and not any(fld.is_zero(c) for c in terms.values())
    assert m.is_zero() == all(x.is_zero() for row in m.entries for x in row)


def _produced_matrices(field):
    """(matrix, stored) from every operation that builds one, over random complexes and maps.

    `stored` marks a differential of a complex or a component of a chain map.
    """
    rng = seeded_rng(47)
    for _ in range(6):
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        X = random_complex(alg, rng, steps=3)
        Y = random_complex(alg, rng, steps=3)
        hs = HomSpace(X, Y, rng.randint(-1, 1))
        f = ChainMap.zero(X, hs.Z)
        for g in hs.basis_maps():
            f = f + g.scale(field.of(rng.randint(-2, 2)))
        Z = cone(f)
        m = minimize(Z)
        CC, u = cocone(f)
        (E, p), (D, q) = minimal_cone(f), minimal_cocone(f)
        maps = [f, m.to_min, m.from_min, m.to_min.compose(m.from_min), u, f - f, f.scale(field.zero), f.compose(u), p, q]
        complexes = [X, Y, shift(X, 1), shift(Y, -1), Z, m.complex, direct_sum(Z, X), CC, cone(f - f), E, D]
        mats = [d for C in complexes for d in C.differentials.values()]
        mats += [c for g in maps for c in g.components.values()]
        yield from ((a, True) for a in mats)
        for a in mats:
            b = _random_path_matrix(alg, rng, a.row_vertices, a.col_vertices)
            c = _random_path_matrix(alg, rng, a.col_vertices, a.col_vertices[::-1])
            rows = sorted(rng.sample(range(a.rows), rng.randint(0, a.rows)))
            cols = sorted(rng.sample(range(a.cols), rng.randint(0, a.cols)))
            rv, cv = a.row_vertices, a.col_vertices
            made = [-a, a + b, a - b, a - a, b - b.scale(field.one), a.compose(c), radical_part(a)]
            made += [a.scale(field.zero), a.scale(field.of(rng.randint(-2, 2))), a.submatrix(rows, cols)]
            made += [PathMatrix.blocks(alg, (rv, rv), (cv,), {(0, 0): a, (1, 0): b})]
            made += [PathMatrix.blocks(alg, (rv,), (cv, cv), {(0, 0): a, (0, 1): b})]
            yield from ((x, False) for x in made)
        for n, vs in Z.components.items():
            v = _unitriangular(alg, rng, vs)
            yield from ((x, False) for x in (v, v.invert(), v.invert().compose(v)))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_operations_store_only_nonzero_cells(field):
    """No matrix has an empty cell, and no complex or chain map stores a zero matrix."""
    seen = zeros = stored = 0
    for m, kept in _produced_matrices(field):
        _assert_sparse(m)
        assert not (kept and m.is_zero())
        seen += 1
        zeros += m.is_zero()
        stored += kept
    assert seen > 500 and 0 < zeros < seen and stored > 50


def test_chain_map_sums_build_no_zero_matrix(monkeypatch):
    """A degree that only one summand has is copied (or negated), not merged with a zero matrix."""
    A = ka3_algebra()
    X = direct_sum(ProjComplex.stalk(A, "1"), ProjComplex.stalk(A, "2", 1))
    f = ChainMap(X, X, {0: PathMatrix.identity(A, ("1",))})
    g = ChainMap(X, X, {1: PathMatrix.identity(A, ("2",))})
    zeros = []
    zero = PathMatrix.zero.__func__
    monkeypatch.setattr(PathMatrix, "zero", classmethod(lambda cls, *a: zeros.append(a) or zero(cls, *a)))
    total, diff = f + g, f - g
    assert zeros == []
    assert total.components == {0: f.components[0], 1: g.components[1]}
    assert diff.components == {0: f.components[0], 1: -g.components[1]}
    assert (f - f).is_zero() and (f + g - g).components == f.components


def test_wrong_shaped_zero_blocks_are_refused(ka3):
    """The constructors check a block's shape before they drop it as zero."""
    A = ka3["A"]
    comps = {0: ("1",), 1: ("2",)}
    X = ProjComplex(A, comps, {0: PathMatrix.zero(A, ("2",), ("1",))})
    assert X.differentials == {} and ChainMap(X, X, {0: PathMatrix.zero(A, ("1",), ("1",))}).components == {}
    for d in (PathMatrix.zero(A, ("3",), ("1",)), PathMatrix.zero(A, (), ()), PathMatrix.zero(A, (), ("1",))):
        with pytest.raises(ComplexError, match="differential at degree 0 has wrong shape"):
            ProjComplex(A, comps, {0: d})
    for m in (PathMatrix.zero(A, ("2",), ("1",)), PathMatrix.zero(A, (), ()), PathMatrix.zero(A, ("1",), ())):
        with pytest.raises(ComplexError, match="chain map component at degree 0 has wrong shape"):
            ChainMap(X, X, {0: m})
    with pytest.raises(ComplexError, match="block \\(1, 0\\) has wrong shape"):
        PathMatrix.blocks(A, (("1",), ("2",)), (("1",),), {(1, 0): PathMatrix.zero(A, ("1",), ("1",))})


def _unit_rows_matrix(alg, rng):
    """A random path matrix whose scalar part has rows without a unit and rows dependent on earlier ones.

    A unit of row i sits in a column of its vertex, so a dependent row is a
    combination of earlier rows at the same vertex.  Every entry also gets
    random radical terms.
    """
    fld, verts = alg.field, alg.quiver.vertices
    rv = [rng.choice(verts) for _ in range(rng.randint(1, 7))]
    cv = [rng.choice(verts) for _ in range(rng.randint(1, 7))]
    scalars = []
    for i, w in enumerate(rv):
        same = [scalars[k] for k in range(i) if rv[k] == w]
        kind = rng.random()
        if kind < 0.2:
            row = [0] * len(cv)
        elif kind < 0.5 and same:
            a, b = rng.choice(same), rng.choice(same)
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            row = [x * p + y * q for p, q in zip(a, b)]
        else:
            row = [rng.randint(-2, 2) if v == w and rng.random() < 0.7 else 0 for v in cv]
        scalars.append(row)
    ents = []
    for w, row in zip(rv, scalars):
        ents.append([])
        for v, c in zip(cv, row):
            terms = {p: fld.of(rng.randint(-2, 2)) for p in alg.paths_between(w, v) if p.arrows and rng.random() < 0.5}
            if c:
                terms[alg.trivial_path(w)] = fld.of(c)
            ents[-1].append(alg.element(terms))  # drops zero coefficients
    return PathMatrix(alg, rv, cv, ents)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_pivots_match_the_gauss_loop(field):
    """`_pivots`, on the cells of d, takes the rows and columns the row-major Gauss loop on the scalar part takes."""
    rng = seeded_rng(1811)
    no_unit = dependent = 0
    for trial in range(300):
        if trial % 30 == 0:
            alg = build_algebra(random_quiver(rng, max_vertices=3, arrow_prob=0.7), field)
        d = _unit_rows_matrix(alg, rng)
        rows, cols = _pivots(field, d.cells, d.cols)
        assert (rows, cols) == reference_pivots(d)
        # columns cancelled by an earlier step are left out, as if they were gone
        skip = {j for j in range(d.cols) if rng.random() < 0.3}
        kept = [j for j in range(d.cols) if j not in skip]
        sub_rows, sub_cols = reference_pivots(d.submatrix(range(d.rows), kept))
        assert _pivots(field, d.cells, d.cols, skip) == (sub_rows, [kept[b] for b in sub_cols])
        unit_rows = {i for (i, j), t in d.cells.items() if any(not p.arrows for p in t)}
        no_unit += len(unit_rows) < d.rows
        dependent += len(rows) < len(unit_rows)
    assert no_unit >= 150 and dependent >= 60


FIELDS = [QQ, PrimeField(5), PrimeField(2147483647)]
FIELD_IDS = ["Q", "F5", "F2147483647"]


def _layout(m):
    """A path matrix with its shape and every cell and term in stored order, scalars by repr."""
    return repr((m.row_vertices, m.col_vertices, [(ij, list(t.items())) for ij, t in m.cells.items()]))


def _complex_layout(X):
    return repr((list(X.components.items()), [(n, _layout(d)) for n, d in X.differentials.items()]))


def _map_layout(f):
    return repr((_complex_layout(f.source), _complex_layout(f.target), [(n, _layout(m)) for n, m in f.components.items()]))


def _combination(hs, rng):
    """A seeded random combination of the representatives of `hs`, coefficients in [-2, 2]."""
    f = ChainMap.zero(hs.X, hs.Z)
    for g in hs.basis_maps():
        f = f + g.scale(hs.X.algebra.field.of(rng.randint(-2, 2)))
    return f


def _random_chain_maps(field, seed, count):
    """`count` non-zero chain maps, seeded random combinations of Hom representatives.

    Each is a map f: X -> Y[k], k in [-1, 1], between random complexes, or
    an endomorphism of C(f)[-1], whose ends have the differential -f.
    """
    rng = seeded_rng(seed)
    maps = []
    while len(maps) < count:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        X = random_complex(alg, rng, steps=3, shift_range=1)
        Y = random_complex(alg, rng, steps=3, shift_range=1)
        f = _combination(HomSpace(X, Y, rng.randint(-1, 1)), rng)
        if not f.is_zero():
            CC = former_cocone(f)[0]
            maps += [g for g in (f, _combination(HomSpace(CC, CC, 0), rng)) if not g.is_zero()]
    return maps


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cocone_is_the_shifted_cone_built_in_one_pass(field, monkeypatch):
    """The direct cocone equals C(f)[-1] and its projection, down to the order of every dict; it builds no cone and no shift."""
    maps = _random_chain_maps(field, 61, 30)
    old = [former_cocone(f) for f in maps]
    monkeypatch.setattr(former, "cone", lambda f: pytest.fail("cocone built a cone"))
    monkeypatch.setattr(former, "shift", lambda X, k: pytest.fail("cocone built a shift"))
    for f, (CC_old, u_old) in zip(maps, old):
        CC, u = cocone(f)
        assert CC == CC_old and _complex_layout(CC) == _complex_layout(CC_old)
        assert u.source is CC and _map_layout(u) == _map_layout(u_old)
    assert sum(bool(f.source.differentials and f.target.differentials) for f in maps) >= 10


def _one_end_not_minimal(field, seed, count):
    """`count` non-zero chain maps into or out of Y (+) C(id_P)[k], a complex Y with a contractible summand,
    from or to a random complex, each with a seeded random Hom shift in [-1, 1]."""
    rng = seeded_rng(seed)
    maps = []
    while len(maps) < count:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        X = random_complex(alg, rng, steps=3, shift_range=1)
        Y = random_complex(alg, rng, steps=2, shift_range=1)
        P = ProjComplex.stalk(alg, rng.choice(alg.quiver.vertices), rng.randint(-1, 1))
        Z = direct_sum(Y, cone(ChainMap.identity(P)))
        for hs in (HomSpace(X, Z, rng.randint(-1, 1)), HomSpace(Z, X, rng.randint(-1, 1))):
            f = _combination(hs, rng)
            if not f.is_zero():
                maps.append(f)
    return maps


def _envelope_maps(field, monkeypatch):
    """(name, f) of every call of `minimal_cocone` (a stage) and `minimal_cone` (a final cone) that the
    envelopes of the glued fixtures make, each by its stages: each i_*T_Y's, which `glue` would read off its
    summands, and those of the glue's generation check."""
    calls = []
    monkeypatch.setattr(approx, "_stalk_split", lambda *args: None)
    for name in ("minimal_cocone", "minimal_cone"):
        real = getattr(approx, name)
        monkeypatch.setattr(approx, name, lambda f, name=name, real=real: calls.append((name, f)) or real(f))
    for _name, rec, T_B in glue_fixtures(field):
        T_C = [canonical_corner_silting(rec)]
        for T_Y in T_B:
            approx.susp_envelope(i_star(rec, T_Y), [shift(j_lower_shriek(rec, T_C[0]), 1)])
        glue(rec, T_C, T_B)
    monkeypatch.undo()
    return calls


def _minimal_ends(f):
    return complexes.is_minimal(f.source) and complexes.is_minimal(f.target)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_minimal_cone_and_cocone_match_the_minimized_full_cone(field, monkeypatch):
    """`minimal_cocone` and `minimal_cone` equal `former_minimize` of the full cocone or cone with its pull or push,
    which share no code with the library's elimination.

    Equal by ==, by serialized JSON and down to the order of every dict, on
    maps between minimal complexes (one direct elimination), zero maps and
    maps from or to the zero complex among them, and the map of every
    envelope stage and final cone of the glued fixtures, whose ends are all
    minimal.
    """
    formers = {"minimal_cocone": former_minimal_cocone, "minimal_cone": former_minimal_cone}
    random_maps = [f for f in _random_chain_maps(field, 67, 40) if _minimal_ends(f)]
    for f in random_maps[:6]:
        zero = ProjComplex.zero(f.source.algebra)
        random_maps += [ChainMap.zero(f.source, f.target), ChainMap.zero(zero, f.target), ChainMap.zero(f.source, zero)]
    envelope_maps = _envelope_maps(field, monkeypatch)
    assert all(_minimal_ends(f) for _name, f in envelope_maps)
    cases = [(name, f) for f in random_maps for name in formers] + envelope_maps
    cancelled = 0
    for name, f in cases:
        (E, g), (E_old, g_old) = getattr(complexes, name)(f), formers[name](f)
        assert E == E_old and _complex_layout(E) == _complex_layout(E_old)
        assert json.dumps(complex_to_json(E)) == json.dumps(complex_to_json(E_old))
        assert g.source == g_old.source and g.target == g_old.target and g.components == g_old.components
        assert _map_layout(g) == _map_layout(g_old)
        assert json.dumps(chain_map_to_json(g)) == json.dumps(chain_map_to_json(g_old))
        assert (g.source if name == "minimal_cocone" else g.target) is E
        cancelled += E.summand_count() < f.source.summand_count() + f.target.summand_count()
    assert len(random_maps) >= 35 and cancelled >= 40
    assert len(envelope_maps) >= 12  # the fixtures' stages and final cones


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_map_with_a_non_minimal_end_takes_its_cone_on_the_minimal_models(field):
    """For f with a non-minimal end, the map g = to_min o f o from_min between the minimal models of its ends
    has a minimal cone and cocone isomorphic to `former_minimize` of f's full cone and cocone; f itself gets C(f) or
    CC(f) with f's unit block eliminated, whose minimal model is that one too."""
    maps = [f for f in _random_chain_maps(field, 67, 40) if not _minimal_ends(f)] + _one_end_not_minimal(field, 71, 30)
    for f in maps:
        g = minimize(f.target).to_min.compose(f).compose(minimize(f.source).from_min)
        for name, former_route in (("minimal_cocone", former_minimal_cocone), ("minimal_cone", former_minimal_cone)):
            E_old = former_route(f)[0]
            E, h = getattr(complexes, name)(g)
            assert complexes.is_minimal(E) and is_isomorphic(E, E_old).isomorphic
            E_f, h_f = getattr(complexes, name)(f)
            h.check_chain_condition()
            h_f.check_chain_condition()
            assert is_isomorphic(minimize(E_f).complex, E_old).isomorphic
    assert len(maps) >= 40


def _random_square_matrix(alg, rng):
    """1-4 summands, same-vertex scalars in [-2, 2] (often singular), radical paths about half the time."""
    fld, verts = alg.field, alg.quiver.vertices
    vs = tuple(rng.choice(verts) for _ in range(rng.randint(1, 4)))
    ents = []
    for w in vs:
        row = []
        for v in vs:
            terms = {}
            for p in alg.paths_between(w, v):
                if not p.arrows:
                    terms[p] = fld.of(rng.randint(-2, 2))
                elif rng.random() < 0.5:
                    terms[p] = fld.of(rng.randint(-2, 2))
            row.append(alg.element(terms))
        ents.append(row)
    return PathMatrix(alg, vs, vs, ents)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_invert_matches_the_dense_augmented_reduction(field, monkeypatch):
    """One-pass `invert` gives the former [S | 1] routine's inverse, down to stored order and scalar
    representation, and refuses the same singular scalar parts; it builds no `Matrix`."""
    rng = seeded_rng(83)
    cases = []
    while len(cases) < 150:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        for _ in range(10):
            m = _random_square_matrix(alg, rng)
            try:
                cases.append((m, former_invert(m)))
            except ComplexError:
                cases.append((m, None))
    monkeypatch.setattr(linalg.Matrix, "__init__", lambda *a, **k: pytest.fail("invert built a Matrix"))
    kinds = set()
    for m, want in cases:
        if want is None:
            with pytest.raises(ComplexError, match="singular"):
                m.invert()
            kinds.add(("singular", m.rows == 1))
            continue
        got = m.invert()
        assert _layout(got) == _layout(want)
        assert (m.compose(got) - PathMatrix.identity(m.algebra, m.row_vertices)).is_zero()
        kinds.add(("radical" if not radical_part(m).is_zero() else "scalar", m.rows == 1))
    assert {("singular", True), ("singular", False), ("radical", False), ("scalar", False), ("scalar", True)} <= kinds


def _identity_factor_cases(field):
    """(a, I_rows, I_cols): seeded random matrices, some with no cells, and the identities on their two sides."""
    rng = seeded_rng(89)
    out = []
    while len(out) < 40:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        vs = alg.quiver.vertices
        rows, cols = ([rng.choice(vs) for _ in range(rng.randint(1, 4))] for _ in range(2))
        a = _random_path_matrix(alg, rng, rows, cols)
        out.append((a, PathMatrix.identity(alg, rows), PathMatrix.identity(alg, cols)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_compose_with_an_identity_or_an_empty_factor(field):
    """An identity factor, on either side, gives the other factor itself; an empty one, a zero matrix
    of the product's shape.  Each equals the entrywise product."""
    empty = 0
    for a, left, right in _identity_factor_cases(field):
        assert left.is_identity() and right.is_identity()
        assert left.compose(a) == a == a.compose(right)
        assert (left.compose(a) is a and a.compose(right) is a) or a.is_zero()
        assert a == _naive_compose(left, a) == _naive_compose(a, right)
        zl = PathMatrix.zero(a.algebra, a.row_vertices, a.row_vertices)
        zr = PathMatrix.zero(a.algebra, a.col_vertices, a.col_vertices)
        for prod, (x, y) in ((zl.compose(a), (zl, a)), (a.compose(zr), (a, zr))):
            assert prod.is_zero() and prod == _naive_compose(x, y)
            assert (prod.row_vertices, prod.col_vertices) == (x.row_vertices, y.col_vertices)
        empty += a.is_zero()
    assert empty >= 2


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_near_identities_take_the_general_product(field):
    """A scaled identity (coefficient 2), a radical term on the diagonal and a permuted identity are not
    identities; their products with a random matrix, on either side, equal the entrywise product."""
    A = ka3_algebra(field)
    rng = seeded_rng(97)
    a = A.path_element(A.path_of_arrows(["a"]))
    vs = ("1", "2", "2", "3")
    two = PathMatrix(A, vs, vs, [[A.unit_at(w, field.of(2)) if i == j else A.zero_element() for j in range(4)]
                                 for i, w in enumerate(vs)])
    radical = PathMatrix(A, ("1",), ("2",), [[a]])
    swap = PathMatrix(A, ("1", "2"), ("2", "1"), [[A.zero_element(), A.unit_at("1")], [A.unit_at("2"), A.zero_element()]])
    for m in (two, radical, swap):
        assert not m.is_identity()
        for _ in range(5):
            after = _random_path_matrix(A, rng, m.col_vertices, [rng.choice("123") for _ in range(3)])
            before = _random_path_matrix(A, rng, [rng.choice("123") for _ in range(3)], m.row_vertices)
            assert m.compose(after) == _naive_compose(m, after)
            assert before.compose(m) == _naive_compose(before, m)
            if not after.is_zero():
                assert m.compose(after) is not after
    assert two.compose(two) == _naive_compose(two, two) != two


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_merge_and_slices_of_nothing(field):
    """Adding or subtracting a matrix with no cells gives the first operand; a slice of an empty matrix,
    or with no rows or no columns, has the slice's shape and no cells."""
    for a, _, _ in _identity_factor_cases(field):
        zero = PathMatrix.zero(a.algebra, a.row_vertices, a.col_vertices)
        assert _layout(a + zero) == _layout(a - zero) == _layout(a)
        assert zero - a == -a
        for rows, cols in (([], range(a.cols)), (range(a.rows), []), ([0], [0])):
            for m in (a, zero):
                sub = m.submatrix(rows, cols)
                assert (sub.row_vertices, sub.col_vertices) == (
                    tuple(m.row_vertices[i] for i in rows), tuple(m.col_vertices[j] for j in cols))
                assert sub == PathMatrix(m.algebra, sub.row_vertices, sub.col_vertices,
                                         [[m.entries[i][j] for j in cols] for i in rows])


def _random_monomial_matrix(alg, rng, radical):
    """A seeded square matrix whose scalar part has one non-zero per row and per column, coefficients in
    [-3, 3] minus 0 (so often not 1), with random radical paths elsewhere when `radical` is set."""
    fld, verts = alg.field, alg.quiver.vertices
    rows = [rng.choice(verts) for _ in range(rng.randint(1, 4))]
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    cols = [None] * len(rows)
    for i, j in enumerate(perm):
        cols[j] = rows[i]
    ents = []
    for i, w in enumerate(rows):
        row = []
        for j, v in enumerate(cols):
            terms = {}
            if j == perm[i]:
                terms[alg.trivial_path(w)] = fld.of(rng.choice([-3, -2, -1, 1, 2, 3]))
            elif radical:
                for p in alg.paths_between(w, v):
                    if p.arrows and rng.random() < 0.6:
                        terms[p] = fld.of(rng.randint(-2, 2))
            row.append(alg.element(terms))
        ents.append(row)
    return PathMatrix(alg, rows, cols, ents)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_monomial_invert_needs_no_row_reduction(field, monkeypatch):
    """A scalar part with one non-zero per row and per column is inverted by transposing it and inverting
    each coefficient: the inverse equals the former [S | 1] routine's, down to stored order and scalar
    representation, with and without a radical part, and no row reduction runs.  A unit block that is
    not monomial still row-reduces."""
    rng = seeded_rng(101)
    cases = []
    while len(cases) < 120:
        alg = build_algebra(random_quiver(rng, max_vertices=4, arrow_prob=0.7), field)
        for radical in (False, True):
            m = _random_monomial_matrix(alg, rng, radical)
            cases.append((m, former_invert(m)))
    A = ka3_algebra(field)
    block = PathMatrix(A, ("2", "2"), ("2", "2"), [[A.unit_at("2"), A.unit_at("2")], [A.zero_element(), A.unit_at("2")]])
    want = former_invert(block)

    def no_rref(*_args):
        raise AssertionError("a monomial scalar part needs no row reduction")

    monkeypatch.setattr(complexes, "row_space_rref", no_rref)
    kinds = set()
    for m, want_m in cases:
        got = m.invert()
        assert _layout(got) == _layout(want_m)
        kinds.add((m.rows > 1, not radical_part(m).is_zero(), any(c != field.one for c in _scalars(m))))
    assert {(True, True, True), (True, False, True)} <= kinds and any(not rows for rows, _, _ in kinds)
    with pytest.raises(AssertionError, match="monomial"):
        block.invert()
    monkeypatch.undo()
    assert _layout(block.invert()) == _layout(want)


def _scalars(m):
    return [c for t in m.cells.values() for p, c in t.items() if not p.arrows]


def _gauss_cases(field):
    """Seeded complexes with unit entries, for `minimize` against `former_minimize`.

    Over ka3 at vertex 2, with e its unit: d^0 = [e; e] and d^1 = [e, -e]
    (two unit rows share a column, and d^1 holds a unit in the column the
    first step cancels); d^0 = [e, e] (a row with two units);
    d^0 = [2e, 0; 0, 3e; 2e, 3e] (a unit row that depends on the rows
    before it, and a monomial Phi^-1 with coefficients 1/2 and 1/3);
    d^0 = [e, e; 0, e] (a Phi whose scalar part is not monomial).  Then
    `_unminimized_inputs`, which has a Phi with a radical part, and seeded
    conjugates of its random sums, whose blocks mix all of these.
    """
    A = ka3_algebra(field)
    e, zero = A.unit_at("2"), A.zero_element()

    def dm(rows):
        ents = [[x if x is zero else e.scale(field.of(x)) for x in row] for row in rows]
        return PathMatrix(A, ("2",) * len(rows), ("2",) * len(rows[0]), ents)

    out = [
        make_complex(A, {0: ("2",), 1: ("2", "2"), 2: ("2",)}, {0: dm([[1], [1]]), 1: dm([[1, -1]])}),
        make_complex(A, {0: ("2", "2"), 1: ("2",)}, {0: dm([[1, 1]])}),
        make_complex(A, {0: ("2", "2"), 1: ("2", "2", "2")}, {0: dm([[2, zero], [zero, 3], [2, 3]])}),
        make_complex(A, {0: ("2", "2"), 1: ("2", "2")}, {0: dm([[1, 1], [zero, 1]])}),
    ]
    unminimized = _unminimized_inputs(field)
    return out + unminimized + [conjugated(X, seed) for seed, X in enumerate(unminimized[1::3])]


def _phi_inv_kinds(steps):
    """(monomial with a coefficient other than one, monomial, radical part) for each step's Phi^-1."""
    out = set()
    for _gpi, phi_inv, _beta in steps.values():
        terms = [t for line in phi_inv.values() for _, t in line]
        monomial = all(len(line) == 1 for line in phi_inv.values()) and all(len(t) == 1 for t in terms)
        ones = all(c == 1 for t in terms for c in t.values())
        out.add((monomial and not ones, monomial, any(p.arrows for t in terms for p in t)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_minimize_matches_the_former_gauss_steps(field):
    """`minimize`, one elimination in final indices, gives the complex, to_min and from_min of the former
    one, which slices the differentials at every step and replays the steps on the identity, down to
    stored order and scalar representation."""
    kinds, skipped = set(), 0
    for X in _gauss_cases(field):
        m, old = minimize(X), former_minimize(X)
        assert m.complex == old.complex and _complex_layout(m.complex) == _complex_layout(old.complex)
        for new, former in ((m.to_min, old.to_min), (m.from_min, old.from_min)):
            assert new.source == former.source and new.target == former.target
            assert new.components == former.components and _map_layout(new) == _map_layout(former)
        kinds |= _phi_inv_kinds(m.steps)
        for n, (_gpi, phi_inv, _beta) in m.steps.items():  # a unit of d^(n+1) in a column the step at n cancels
            rows = {r for line in phi_inv.values() for r, _ in line}
            d = X.differentials.get(n + 1)
            skipped += d is not None and any(j in rows and any(not p.arrows for p in t) for (_, j), t in d.cells.items())
    assert {(True, True, False), (False, True, False), (False, False, True), (False, False, False)} <= kinds
    assert skipped >= 1


def test_a_minimal_complex_is_its_own_minimal_model(ka3):
    """With no unit entry there is no step: the model is the complex itself, and to_min and from_min are its
    identity."""
    for X in (ka3["I2"], ka3["S2"], direct_sum(ka3["I2"], shift(ka3["S2"], 1)), ka3["P"]["1"]):
        m = minimize(X)
        assert m.steps == {} and m.complex is X
        for f in (m.to_min, m.from_min):
            assert f.source is X and f.target is X
            assert f.components == ChainMap.identity(X).components
