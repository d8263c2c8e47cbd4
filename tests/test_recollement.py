import pytest

from conftest import random_complex, seeded_rng
from former import cone, trivial_coefficient
from siltglue.fields import QQ, PrimeField
from siltglue.fixtures import ka3_algebra, linear_an, star_quiver
from siltglue.quiver import Quiver, build_algebra
from siltglue.complexes import ProjComplex, direct_sum, minimize, shift
from siltglue.homs import HomSpace, hom_dim_table
from siltglue.recollement import (
    RecollementError,
    i_star,
    i_upper_star,
    idempotent_recollement,
    j_lower_shriek,
)


def _nonzero(table):
    return {k: v for k, v in table.items() if v}


@pytest.fixture
def rec():
    return idempotent_recollement(ka3_algebra(), ["3"])


def test_condition_a_violation_named():
    A = ka3_algebra()
    # arrow a: 1 -> 2 leaves S = {1}
    with pytest.raises(RecollementError, match="arrow a"):
        idempotent_recollement(A, ["1"])


def test_s_must_be_proper_nonempty():
    A = ka3_algebra()
    with pytest.raises(RecollementError, match="nonempty"):
        idempotent_recollement(A, [])
    with pytest.raises(RecollementError, match="proper"):
        idempotent_recollement(A, ["1", "2", "3"])
    with pytest.raises(RecollementError, match="unknown"):
        idempotent_recollement(A, ["9"])


def test_corner_and_quotient_algebras(rec):
    assert list(rec.C.quiver.vertices) == ["3"]
    assert list(rec.B.quiver.vertices) == ["1", "2"]
    assert [a.name for a in rec.B.quiver.arrows] == ["a"]


def test_resolution_table(rec):
    # first-entry paths into S = {3}: from 1 only ab (through 2, outside S),
    # plus nothing else; from 2 only b
    assert [p.label() for p in rec.resolutions["1"]] == ["a*b"]
    assert [p.label() for p in rec.resolutions["2"]] == ["b"]


def test_resolution_table_star():
    A = star_quiver(3)
    leaves = [v for v in A.quiver.vertices if v != "c"]
    rec3 = idempotent_recollement(A, leaves)
    assert [p.label() for p in rec3.resolutions["c"]] == ["s1", "s2", "s3"]


def test_i_star_on_quotient_projectives(rec, ka3):
    from siltglue.complexes import ProjComplex

    PB1 = ProjComplex.stalk(rec.B, "1")
    PB2 = ProjComplex.stalk(rec.B, "2")
    assert i_star(rec, PB1).graded_multiset() == ka3["I2"].graded_multiset()
    assert i_star(rec, PB2).graded_multiset() == ka3["S2"].graded_multiset()
    # check the differentials, not just the shapes
    got = i_star(rec, PB1)
    assert got.differential(-1).entries[0][0].terms.keys() == \
        ka3["I2"].differential(-1).entries[0][0].terms.keys()


def test_i_star_on_shifted_sum(rec, ka3):
    from siltglue.complexes import ProjComplex

    Y = direct_sum(shift(ProjComplex.stalk(rec.B, "1"), 1), ProjComplex.stalk(rec.B, "2"))
    Z = i_star(rec, Y)
    assert Z.graded_multiset() == {-2: ("3",), -1: ("1", "3"), 0: ("2",)}


def test_i_star_additive_and_shift_compatible(rec):
    from siltglue.complexes import ProjComplex

    PB1 = ProjComplex.stalk(rec.B, "1")
    PB2 = ProjComplex.stalk(rec.B, "2")
    both = i_star(rec, direct_sum(PB1, shift(PB2, 2)))
    sep = minimize(direct_sum(i_star(rec, PB1), shift(i_star(rec, PB2), 2))).complex
    assert both.graded_multiset() == sep.graded_multiset()


def test_j_shriek_fully_faithful(rec):
    from siltglue.complexes import ProjComplex

    rng = seeded_rng(31)
    for _ in range(4):
        X = random_complex(rec.C, rng, steps=1, max_width=3)
        Y = random_complex(rec.C, rng, steps=1, max_width=3)
        jX, jY = j_lower_shriek(rec, X), j_lower_shriek(rec, Y)
        assert _nonzero(hom_dim_table(X, Y)) == _nonzero(hom_dim_table(jX, jY))


def test_i_star_fully_faithful(rec):
    rng = seeded_rng(32)
    for _ in range(4):
        X = random_complex(rec.B, rng, steps=1, max_width=3)
        Y = random_complex(rec.B, rng, steps=1, max_width=3)
        assert _nonzero(hom_dim_table(X, Y)) == \
            _nonzero(hom_dim_table(i_star(rec, X), i_star(rec, Y)))


def test_i_upper_star_kills_j_shriek(rec):
    rng = seeded_rng(33)
    for _ in range(3):
        X = random_complex(rec.C, rng, steps=1, max_width=3)
        assert i_upper_star(rec, j_lower_shriek(rec, X)).is_zero()


def test_i_upper_star_j_composition_chain():
    # longer quiver: A5 with sink-end S = {4, 5}
    A = linear_an(5)
    rec = idempotent_recollement(A, ["4", "5"])
    rng = seeded_rng(34)
    for _ in range(3):
        X = random_complex(rec.C, rng, steps=1, max_width=3)
        jX = j_lower_shriek(rec, X)
        back = i_upper_star(rec, jX)
        assert back.is_zero()
        Y = random_complex(rec.B, rng, steps=1, max_width=3)
        # i^* i_* == identity up to homotopy, checked on the minimal model
        round_trip = minimize(i_upper_star(rec, i_star(rec, Y))).complex
        assert round_trip.graded_multiset() == minimize(Y).complex.graded_multiset()


def test_i_star_random_d_squared_and_minimality():
    A = linear_an(6)
    rec = idempotent_recollement(A, ["5", "6"])
    rng = seeded_rng(35)
    for _ in range(5):
        Y = random_complex(rec.B, rng, steps=2, max_width=4)
        Z = i_star(rec, Y)  # constructor enforces d^2 = 0
        for d in Z.differentials.values():
            for row in d.entries:
                for x in row:
                    assert A.field.is_zero(trivial_coefficient(x))


def _parallel_routes(field=QQ):
    """Parallel arrows 1 => 2 and two routes from 1 into S = {3, 4}, which has an arrow inside."""
    q = Quiver(["1", "2", "3", "4"], [("a1", "1", "2"), ("a2", "1", "2"), ("b", "2", "3"), ("e", "2", "4"),
                                      ("c", "1", "3"), ("d", "3", "4")])
    return build_algebra(q, field), ["3", "4"]


def _table_cases(field=QQ):
    star = star_quiver(3, field)
    return [
        (ka3_algebra(field), ["3"]),
        (linear_an(5, field), ["4", "5"]),
        (linear_an(6, field), ["5", "6"]),
        (star, [v for v in star.quiver.vertices if v != "c"]),
        _parallel_routes(field),
    ]


def _vertices_after_source(A, p):
    return [A.quiver.arrow_by_name[a].target for a in p.arrows]


@pytest.mark.parametrize("case", range(5))
def test_resolutions_are_the_first_entry_paths(case):
    A, S = _table_cases()[case]
    rec = idempotent_recollement(A, S)
    sset = set(S)
    for v in rec.complement:
        walks = {p: _vertices_after_source(A, p) for p in A.basis if p.source == v}
        firsts = [p for p, walk in walks.items() if walk and walk[-1] in sset and not sset & set(walk[:-1])]
        assert rec.resolutions[v] == firsts
        assert all(A.basis[A.basis_index[p]] is p for p in firsts)
        # every path from v into S is p * r for exactly one first-entry p and path r
        for q in (p for p, walk in walks.items() if sset & set(walk)):
            assert len([(p, r) for p in firsts for r in A.basis if A.compose_paths(p, r) == q]) == 1


def _first_entry_targets(A, sset, v):
    """Targets of the paths from v that end at their first vertex in S, by search."""
    out, stack = [], [v]
    while stack:
        u = stack.pop()
        for a in A.quiver.arrows:
            if a.source == u:
                (out if a.target in sset else stack).append(a.target)
    return out


def _k0(X):
    cls = {}
    for n, vs in X.components.items():
        for v in vs:
            cls[v] = cls.get(v, 0) + (-1) ** n
    return {v: c for v, c in cls.items() if c}


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_i_star_k0_class_is_the_resolution_sum(field):
    rng = seeded_rng(36)
    for A, S in _table_cases(field):
        rec = idempotent_recollement(A, S)
        sset = set(S)
        for _ in range(6):
            Y = random_complex(rec.B, rng, steps=2, max_width=4)
            want = {}
            for n, vs in Y.components.items():
                for v in vs:
                    sign = (-1) ** n
                    want[v] = want.get(v, 0) + sign
                    for t in _first_entry_targets(A, sset, v):
                        want[t] = want.get(t, 0) - sign
            assert _k0(i_star(rec, Y)) == {v: c for v, c in want.items() if c}


def test_i_star_lifts_syzygies_by_scalars(monkeypatch):
    """In the unminimized total complex, a syzygy maps to a syzygy by a scalar times a trivial path.

    The resolution block holds the first-entry path p in the column of slot (j, p).
    """
    import siltglue.recollement as recollement

    totals = []
    original = recollement.minimize

    def captured(X):
        totals.append(X)
        return original(X)

    monkeypatch.setattr(recollement, "minimize", captured)
    lifted = 0
    for A, S in (_table_cases()[2], _parallel_routes()):
        rec = idempotent_recollement(A, S)
        stalks = [ProjComplex.stalk(rec.B, v) for v in rec.complement]
        for X in stalks:
            for Z in stalks:
                for f in HomSpace(X, Z, 0).basis_maps():
                    Y = cone(f)  # a non-zero differential, lifted to the syzygies
                    assert not Y.differential(-1).is_zero()
                    totals.clear()
                    i_star(rec, Y)
                    (total,) = totals
                    for m, d in total.differentials.items():
                        rows, cols = len(Y.component(m + 1)), len(Y.component(m))
                        slots = [(j, p) for j, v in enumerate(Y.component(m + 1)) for p in rec.resolutions[v]]
                        for (i, k), terms in d.cells.items():
                            if k < cols:
                                continue
                            j, p = slots[k - cols]
                            if i < rows:
                                assert (i, terms) == (j, {p: A.field.one})
                            else:
                                ((r, c),) = terms.items()
                                assert r.is_trivial() and not A.field.is_zero(c)
                                lifted += 1
                        assert all((j, cols + k) in d.cells for k, (j, _p) in enumerate(slots))
    assert lifted
