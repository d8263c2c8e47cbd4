"""Shipped example quivers and gluing fixtures.

The three-vertex linear quiver 1 -> 2 -> 3 with the idempotent at the sink
is the worked anchor example; linear A_n quivers with sink subsets and a
star quiver provide the remaining gluing fixtures.
"""

import os

from .fields import QQ
from .quiver import Quiver, build_algebra
from .complexes import PathMatrix, ProjComplex, direct_sum_many, make_complex, shift
from .gluing import canonical_corner_silting
from .recollement import idempotent_recollement
from . import serialize


def ka3_algebra(field=QQ):
    """Path algebra of 1 --a--> 2 --b--> 3."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return build_algebra(q, field)


def ka3_named_complexes(A=None):
    """The named objects of the worked example over the 1->2->3 quiver."""
    A = A or ka3_algebra()
    ab = A.path_element(A.path_of_arrows(["a", "b"]))
    b = A.path_element(A.path_of_arrows(["b"]))
    I2 = make_complex(A, {-1: ("3",), 0: ("1",)}, {-1: PathMatrix(A, ("1",), ("3",), [[ab]])})
    S2 = make_complex(A, {-1: ("3",), 0: ("2",)}, {-1: PathMatrix(A, ("2",), ("3",), [[b]])})
    P = {v: ProjComplex.stalk(A, v) for v in A.quiver.vertices}
    return {"A": A, "I2": I2, "S2": S2, "P": P}


def linear_an(n, field=QQ):
    """Linear quiver 1 -> 2 -> ... -> n."""
    verts = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return build_algebra(Quiver(verts, arrows), field)


def star_quiver(leaves=3, field=QQ):
    """Star with a single source c and arrows c -> l1, ..., c -> lk."""
    verts = ["c"] + [f"l{i}" for i in range(1, leaves + 1)]
    arrows = [(f"s{i}", "c", f"l{i}") for i in range(1, leaves + 1)]
    return build_algebra(Quiver(verts, arrows), field)


def canonical_quotient_silting(rec, shifted=()):
    """T_B = (+) P_v over B, with the listed vertices shifted by one."""
    parts = []
    for v in rec.B.quiver.vertices:
        s = ProjComplex.stalk(rec.B, v)
        if v in shifted:
            s = shift(s, 1)
        parts.append(s)
    return direct_sum_many(rec.B, parts)


def glue_fixtures(field=QQ):
    """(name, recollement, T_B list) triples over `field` used by the gluing test matrix.

    All use the canonical corner silting for T_C, so each envelope reads
    its triangle off i_*T_Y's summands (`approx._stalk_split`).
    """
    out = []
    A3 = ka3_algebra(field)
    rec3 = idempotent_recollement(A3, ["3"])
    out.append(("ka3_shifted", rec3, [canonical_quotient_silting(rec3, shifted=("1",))]))
    out.append(("ka3_canonical", rec3, [canonical_quotient_silting(rec3)]))
    for n, S in ((4, ["4"]), (5, ["4", "5"]), (6, ["5", "6"])):
        An = linear_an(n, field)
        rec = idempotent_recollement(An, S)
        out.append((f"a{n}_sink{''.join(S)}", rec, [canonical_quotient_silting(rec)]))
    st = star_quiver(3, field)
    rec_st = idempotent_recollement(st, ["l1", "l2", "l3"])
    out.append(("star3_leaves", rec_st, [canonical_quotient_silting(rec_st)]))
    return out


def write_fixture_files(directory):
    """Materialize the anchor example as JSON files, ka3_<key>.json; returns the written paths by key."""
    os.makedirs(directory, exist_ok=True)
    data = ka3_named_complexes()
    rec = idempotent_recollement(data["A"], ["3"])
    algebras = {"algebra": data["A"], "corner_algebra": rec.C, "quotient_algebra": rec.B}
    # the corner silting over C and the quotient silting over B refer to their own algebra files
    complexes = {"tc": (canonical_corner_silting(rec), "corner_algebra"),
                 "tb": (canonical_quotient_silting(rec, shifted=("1",)), "quotient_algebra"),
                 "i2": (data["I2"], "algebra"), "s2": (data["S2"], "algebra"),
                 **{f"p{v}": (st, "algebra") for v, st in data["P"].items()}}
    paths = {key: os.path.join(directory, f"ka3_{key}.json") for key in (*algebras, *complexes)}
    for key, alg in algebras.items():
        serialize.save_algebra(alg, paths[key])
    for key, (X, ref) in complexes.items():
        serialize.save_complex(X, paths[key], algebra_ref=f"ka3_{ref}.json")
    return paths
