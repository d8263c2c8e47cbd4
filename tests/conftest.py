import json
import random

import pytest

from siltglue import approx, gluing
from siltglue.fields import QQ
from siltglue.quiver import Quiver
from former import cone
from siltglue.complexes import PathMatrix, ProjComplex, direct_sum, minimize, shift, transform
from siltglue.decompose import _components
from siltglue.fixtures import ka3_algebra, ka3_named_complexes
from siltglue.homs import HomSpace
from siltglue.serialize import chain_map_to_json, complex_to_json


@pytest.fixture
def ka3():
    return ka3_named_complexes()


@pytest.fixture
def A3():
    return ka3_algebra()


def random_quiver(rng, max_vertices=5, arrow_prob=0.45):
    nv = rng.randint(2, max_vertices)
    verts = [str(i) for i in range(1, nv + 1)]
    arrows = []
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < arrow_prob:
                arrows.append((f"a{i + 1}_{j + 1}", verts[i], verts[j]))
    return Quiver(verts, arrows)


def random_complex(alg, rng, steps=2, max_width=4, shift_range=2):
    """Random bounded complex: iterated cones of random chain maps of stalks."""
    def rand_stalk():
        v = rng.choice(alg.quiver.vertices)
        return shift(ProjComplex.stalk(alg, v), rng.randint(-shift_range, shift_range))

    X = rand_stalk()
    for _ in range(steps):
        Y = rand_stalk()
        hs = HomSpace(X, Y, 0)
        cycles = hs.cycle_basis
        if cycles and rng.random() < 0.7:
            from siltglue.complexes import ChainMap

            f = ChainMap.zero(X, Y)
            for v in cycles:
                if alg.field == QQ:
                    c = alg.field.of(rng.randint(-2, 2))
                else:
                    c = rng.randrange(alg.field.p)
                if not alg.field.is_zero(c):
                    f = f + ChainMap(X, Y, hs.fvars.from_vector(v)).scale(c)
            X = minimize(cone(f)).complex
        else:
            X = direct_sum(X, Y)
        if X.is_zero():
            X = rand_stalk()
        if max(len(vs) for vs in X.components.values()) >= max_width:
            break
    return X


@pytest.fixture
def staged(monkeypatch):
    """Every envelope and precover runs its stages: `approx._stalk_split` declines."""
    monkeypatch.setattr(approx, "_stalk_split", lambda *args: None)


def glue_by_envelope(rec, T_C, T_B):
    """`gluing.glue` with `approx._stalk_split` declining, so that every T~_Y comes from the envelope's stages."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "_stalk_split", lambda *args: None)
        return gluing.glue(rec, T_C, T_B)


def triangle_json(tri):
    """The six fields of a glue certificate's triangle or an EnvelopeResult, serialized with every dict in its order."""
    V, U, f, v_map, s, trace = (tri[k] if isinstance(tri, dict) else getattr(tri, k)
                                for k in ("V", "U", "f", "v_map", "s", "trace"))
    fields = [complex_to_json(V), complex_to_json(U), chain_map_to_json(f), chain_map_to_json(v_map)]
    return json.dumps(fields + [s, [[k, list(tags)] for k, tags in trace]])


def seeded_rng(seed):
    return random.Random(seed)


def conjugated(X, seed):
    """X conjugated, through `transform`, by a seeded change of basis per degree with unit diagonal.

    Below the diagonal a same-vertex entry takes a scalar, and any
    off-diagonal entry takes the radical paths between its two vertices,
    each with a seeded coefficient in [-2, 2].  The scalar part is
    unitriangular, so each change is invertible.
    """
    alg, rng = X.algebra, random.Random(seed)

    def entry(i, j, w, v):
        if i == j:
            return alg.unit_at(v)
        return alg.element({p: alg.field.of(rng.randint(-2, 2)) for p in alg.paths_between(w, v) if p.arrows or i > j})

    change = {
        n: PathMatrix(alg, vs, vs, [[entry(i, j, w, v) for j, v in enumerate(vs)] for i, w in enumerate(vs)])
        for n, vs in X.components.items()
    }
    return transform(X, change)


def connected_conjugate(X):
    """The first of the seeded conjugates of X, seeds 1, 2, ..., that has one component."""
    for seed in range(1, 21):
        Y = conjugated(X, seed)
        if len(_components(Y)) == 1:
            return Y
    raise AssertionError(f"no connected conjugate of {X!r}")
