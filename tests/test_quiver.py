import gc
import os
import pickle
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, seeded_rng
from former import (
    former_compose_paths,
    former_enumerate_paths,
    former_opposite_complex,
    former_product,
    trivial_coefficient,
)
from siltglue.complexes import ComplexError, PathMatrix, opposite_complex
from siltglue.fields import QQ, PrimeField
from siltglue.quiver import ALGEBRAS, Path, PathAlgebra, Quiver, QuiverError, build_algebra


def test_cycle_rejected():
    with pytest.raises(QuiverError, match="cycle"):
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])


def test_loop_rejected():
    with pytest.raises(QuiverError, match="cycle"):
        Quiver(["1"], [("l", "1", "1")])


def test_duplicate_names():
    with pytest.raises(QuiverError):
        Quiver(["1", "1"], [])
    with pytest.raises(QuiverError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "1", "2")])


def test_path_basis_a3():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q)
    assert alg.dimension == 6  # e1, e2, e3, a, b, ab
    labels = {p.label() for p in alg.basis}
    assert labels == {"e_1", "e_2", "e_3", "a", "b", "a*b"}
    # basis order: trivial paths first, then by length
    assert [p.length for p in alg.basis] == [0, 0, 0, 1, 1, 2]


def test_path_of_arrows_refuses_unknown_and_empty_arrow_lists():
    alg = build_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    with pytest.raises(QuiverError, match="unknown arrow 'zz'"):
        alg.path_of_arrows(["a", "zz"])
    with pytest.raises(QuiverError, match="empty arrow list"):
        alg.path_of_arrows([])
    with pytest.raises(QuiverError, match="do not compose"):
        alg.path_of_arrows(["b", "a"])
    with pytest.raises(QuiverError, match=r"unknown arrow \['a'\]"):
        alg.path_of_arrows([["a"]])
    assert alg.path_of_arrows(("a", "b")) is alg.compose_paths(alg.path_of_arrows(["a"]), alg.path_of_arrows(["b"]))


def test_left_to_right_composition():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q)
    a = alg.path_element(alg.path_of_arrows(["a"]))
    b = alg.path_element(alg.path_of_arrows(["b"]))
    ab = a * b
    assert list(ab.terms) == [Path("1", "3", ("a", "b"))]
    assert (b * a).is_zero()


def test_hom_proj_basis_orientation():
    # Hom(P_v, P_w) = e_w A e_v = paths from w to v
    q = Quiver(["1", "2"], [("a", "1", "2")])
    alg = build_algebra(q)
    assert [p.label() for p in alg.paths_between("1", "2")] == ["a"]  # Hom(P_2, P_1)
    assert alg.paths_between("2", "1") == []  # Hom(P_1, P_2)


def test_units_and_arithmetic():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    alg = build_algebra(q)
    e1 = alg.unit_at("1")
    a = alg.path_element(alg.path_of_arrows(["a"]))
    assert e1 * a == a
    assert (a + a).scale(alg.field.of("1/2")) == a
    assert (a - a).is_zero()
    with pytest.raises(QuiverError):
        e1 + alg.unit_at("2")  # mixed source/target


def test_trivial_coefficient():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    alg = build_algebra(q)
    x = alg.unit_at("1", alg.field.of(3))
    assert trivial_coefficient(x) == 3
    a = alg.path_element(alg.path_of_arrows(["a"]))
    assert trivial_coefficient(a) == 0


def test_prime_field_algebra():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    alg = build_algebra(q, PrimeField(5))
    a = alg.path_element(alg.path_of_arrows(["a"]), 3)
    assert (a + a).terms[alg.path_of_arrows(["a"])] == 1  # 6 mod 5


def test_full_subquiver_and_opposite():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    sub = q.full_subquiver(["1", "2"])
    assert [a.name for a in sub.arrows] == ["a"]
    op = q.opposite()
    assert op.arrow_by_name["a"].source == "2"
    assert op.arrow_by_name["a"].target == "1"


def test_path_hash_is_the_field_tuple_hash():
    """A path hashes as the tuple of its fields, as the frozen dataclass it once was did, so no dict or set order moves."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    for p in build_algebra(q).basis:
        assert hash(p) == hash((p.source, p.target, p.arrows))
        assert p == Path(p.source, p.target, p.arrows) and p in {Path(p.source, p.target, p.arrows)}
    assert hash(Path("1", "3", ("a", "b"))) == hash(("1", "3", ("a", "b")))


def test_a_pickled_path_round_trips_to_an_equal_path():
    for p in build_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])).basis:
        back = pickle.loads(pickle.dumps(p))
        assert type(back) is Path and back == p and hash(back) == hash(p) and back.label() == p.label()


def test_unpickled_path_hashes_afresh():
    """A path unpickled under another string-hash seed hashes with that seed, not the cached value."""
    data = pickle.dumps(Path("1", "3", ("a", "b")))
    script = (
        "import pickle, sys; p = pickle.loads(sys.stdin.buffer.read()); "
        "print(hash(p) == hash((p.source, p.target, p.arrows)))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        res = subprocess.run(
            [sys.executable, "-c", script], input=data, capture_output=True, env=env, timeout=60, check=True
        )
        assert res.stdout.strip() == b"True"


def test_an_algebra_with_read_tables_is_freed_by_reference_counting():
    """The action tables hold no reference back to their algebra, so dropping the last
    reference frees it at once, without waiting for the cycle collector."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    gc.disable()
    try:
        alg = build_algebra(q)
        for s in alg.basis:
            for v in q.vertices:
                alg.left_action[s, v], alg.right_action[s, v]
        freed = weakref.ref(alg)
        del alg
        assert freed() is None
        assert ("Q", ("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3"))) not in ALGEBRAS
    finally:
        gc.enable()


def test_equal_quivers_give_one_algebra_object():
    """`build_algebra` hands out one object per field, vertex order and arrow list; equality stays by value."""
    arrows = [("a", "1", "2"), ("b", "2", "3")]
    alg = build_algebra(Quiver(["1", "2", "3"], arrows))
    assert build_algebra(Quiver(["1", "2", "3"], arrows)) is alg
    assert build_algebra(Quiver(["1", "2", "3"], list(alg.quiver.arrows))) is alg
    others = [
        build_algebra(Quiver(["2", "1", "3"], arrows)),
        build_algebra(Quiver(["1", "2", "3"], arrows[::-1])),
        build_algebra(Quiver(["1", "2", "3"], arrows), PrimeField(5)),
    ]
    assert len({id(alg), *map(id, others)}) == 4
    assert all(other != alg for other in others)
    unshared = PathAlgebra(Quiver(["1", "2", "3"], arrows))
    assert unshared is not alg and unshared == alg


def test_an_algebra_shared_by_two_builds_lives_until_both_references_go():
    q = Quiver(["u", "v", "w"], [("s", "u", "v"), ("t", "v", "w")])
    gc.disable()
    try:
        first, second = build_algebra(q, PrimeField(7)), build_algebra(Quiver(q.vertices, q.arrows), PrimeField(7))
        assert first is second
        first.compose_paths(first.path_of_arrows(["s"]), first.path_of_arrows(["t"]))
        freed = weakref.ref(first)
        del first
        assert freed() is second
        del second
        assert freed() is None
        assert build_algebra(q, PrimeField(7)).dimension == 6
    finally:
        gc.enable()


def _shuffled_quiver(rng):
    """A random acyclic quiver with parallel arrows, its vertices and arrows listed in random orders."""
    order = [f"v{i}" for i in range(rng.randint(1, 5))]  # arrows run forward in this order
    ends = [sorted(rng.sample(range(len(order)), 2)) for _ in range(rng.randint(0, 7))] if len(order) > 1 else []
    names = rng.sample(range(100), len(ends))
    arrows = [(f"x{k}", order[i], order[j]) for k, (i, j) in zip(names, ends)]
    vertices = order[:]
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    return Quiver(vertices, arrows)


def _random_cells(alg, rng, rows, cols):
    """Cells of a random path matrix with these row and column vertices, every term in its e_w A e_v."""
    cells = {}
    for i, w in enumerate(rows):
        for j, v in enumerate(cols):
            terms = {p: alg.field.of(rng.randint(-3, 3)) for p in alg.paths_between(w, v) if rng.random() < 0.7}
            terms = {p: c for p, c in terms.items() if not alg.field.is_zero(c)}
            if terms:
                cells[i, j] = terms
    return cells


def _ordered(cells):
    return [(ij, list(t.items())) for ij, t in cells.items()]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_paths_and_products_read_as_the_sort_and_intern_oracle(field, seed):
    """The basis built in basis order, `compose_paths`, the action tables, `PathMatrix._product` and
    `opposite_complex` read as the former sorted enumeration and built-then-interned products, in the
    same orders, with the basis objects themselves as keys."""
    rng = seeded_rng(seed)
    q = _shuffled_quiver(rng)
    alg = PathAlgebra(q, field)
    assert alg.basis == former_enumerate_paths(q) and all(type(p) is Path for p in alg.basis)
    for p in alg.basis:
        for r in alg.basis:
            pr = alg.compose_paths(p, r)
            assert pr == former_compose_paths(alg, p, r) and (pr is None or pr is alg.basis[alg.basis_index[pr]])
    pos = alg.between_index
    for s in alg.basis:
        for v in q.vertices:
            paths = alg.paths_between(s.target, v)
            assert alg.left_action[s, v] == [(a, pos[former_compose_paths(alg, s, p)]) for a, p in enumerate(paths)]
            paths = alg.paths_between(v, s.source)
            assert alg.right_action[s, v] == [(a, pos[former_compose_paths(alg, p, s)]) for a, p in enumerate(paths)]
    rows, mid, cols = ([rng.choice(q.vertices) for _ in range(rng.randint(1, 3))] for _ in range(3))
    left = _random_cells(alg, rng, rows, mid)
    right = PathMatrix._of(alg, tuple(mid), tuple(cols), _random_cells(alg, rng, mid, cols)).lines(0)
    product = PathMatrix._product(alg, left, right)
    assert _ordered(product) == _ordered(former_product(alg, left, right))
    assert all(p is alg.basis_path[p] for t in product.values() for p in t)
    if len(q.vertices) > 1:
        op = PathAlgebra(q.opposite(), field)
        X = random_complex(alg, rng)
        got, expected = opposite_complex(X, op), former_opposite_complex(X, op)
        assert got.components == expected.components
        assert {n: _ordered(d.cells) for n, d in got.differentials.items()} == {
            n: _ordered(d.cells) for n, d in expected.differentials.items()}
        assert all(p is op.basis_path[p] for d in got.differentials.values() for t in d.cells.values() for p in t)


def test_a_term_pair_that_does_not_compose_raises():
    """A path-matrix product whose entries hold a term outside its e_w A e_v raises instead of dropping
    the pair (as the former route did) or reading a trivial factor as the other factor."""
    alg = build_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    e1, a, b = alg.trivial_path("1"), alg.path_of_arrows(["a"]), alg.path_of_arrows(["b"])
    for left, right in ((e1, b), (a, e1), (a, a), (b, a)):
        x = PathMatrix._of(alg, ("1",), ("2",), {(0, 0): {left: 1}})
        y = PathMatrix._of(alg, ("2",), ("3",), {(0, 0): {right: 1}})
        with pytest.raises(ComplexError, match="do not compose"):
            x.compose(y)
        assert alg.compose_paths(left, right) is None
    assert alg.compose_paths(e1, a) is a and alg.compose_paths(a, alg.trivial_path("2")) is a
