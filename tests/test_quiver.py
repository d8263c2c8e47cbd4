import gc
import os
import pickle
import subprocess
import sys
import weakref

import pytest

from former import trivial_coefficient
from siltglue.fields import PrimeField
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
    """A path caches the hash the dataclass would compute, so no dict or set order moves."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    for p in build_algebra(q).basis:
        assert hash(p) == hash((p.source, p.target, p.arrows))
        assert p == Path(p.source, p.target, p.arrows) and p in {Path(p.source, p.target, p.arrows)}


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
