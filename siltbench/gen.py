"""Seeded inputs for the benchmark workloads, built from the data model only.

Everything here is made from `Quiver`, `build_algebra`, `PathMatrix`,
`make_complex`, `direct_sum`, `shift`, `idempotent_recollement` and plain
arithmetic on algebra elements.  No Hom basis, `minimize`, cone or other
choice of the program's algorithms enters an input, so a change to how the
program picks bases cannot silently change the workload.  Random complexes
are direct sums of stalks, two-term complexes P_v -> P_w and contractible
pieces P_v -> P_v, conjugated by random elementary (unitriangular) path
matrices; `make_complex` then checks d^2 = 0.

Two random streams are used, neither of which depends on PYTHONHASHSEED.
The problems themselves (quivers, fields, the pieces of every complex, the
non-positive sets, the ladder) come from `random.Random("<workload>:plan")`
and are the same for every seed.  `--seed` drives `random.Random(
"<workload>:<seed>")`, which chooses the presentation: the order of the
vertices and arrows of every quiver, and a random change of basis of every
complex (summand order, scaling, elementary operations).  Every seed thus
poses isomorphic problems with the same answers up to isomorphism, in a
different presentation, so the work per run does not depend on which
problems a seed happened to draw.  The glue ladder is fixed outright: the
same files for every seed.

Regenerate the inputs of one run and print their hashes:

    python3 siltbench/gen.py --workload hom-sweep --seed 1 --out /tmp/inputs
"""

import argparse
import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from siltglue import complexes, recollement, serialize  # noqa: E402
from siltglue.fields import field_from_tag  # noqa: E402
from siltglue.quiver import Quiver, build_algebra  # noqa: E402

HOM_FIELDS = ("Q", "Fp:5", "Fp:2147483647")
HOM_ALGEBRAS = 12  # four per field
HOM_PAIRS_PER_ALGEBRA = 9
HOM_REPS_EVERY = 4  # every fourth pair also asks for representative maps
ENV_RANDOM_OPS = 40  # envelope and precover each run on these (M, T) inputs
ENV_ISTAR_OPS = 40

# glue-ladder rungs: (quiver, S, prefix of the quotient vertices shifted by one)
LADDER = (
    ("ka3", ("3",), 1),  # the worked example: P1[1] + P2 + P3
    ("ka3", ("3",), 0),
    ("a4", ("4",), 0),
    ("a4", ("3", "4"), 1),
    ("a5", ("4", "5"), 0),
    ("a5", ("5",), 2),
    ("a6", ("5", "6"), 0),
    ("a6", ("4", "5", "6"), 2),
    ("star3", ("l1", "l2", "l3"), 0),
    ("star4", ("l1", "l2"), 1),
    ("star5", ("l1",), 0),
    ("star5", ("l1", "l2", "l3", "l4", "l5"), 1),
)


# ---------------------------------------------------------------------------
# quivers


def linear_quiver(n):
    """1 -> 2 -> ... -> n."""
    return Quiver([str(i) for i in range(1, n + 1)], [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)])


def star_quiver(leaves):
    """Source c with arrows c -> l1, ..., c -> lk."""
    return Quiver(["c"] + [f"l{i}" for i in range(1, leaves + 1)],
                  [(f"s{i}", "c", f"l{i}") for i in range(1, leaves + 1)])


def random_quiver(rng, nv, arrow_prob=0.4, double_prob=0.15):
    """Acyclic quiver on nv vertices: arrows only go from lower to higher label."""
    verts = [str(i) for i in range(1, nv + 1)]
    arrows = []
    for i in range(1, nv + 1):
        for j in range(i + 1, nv + 1):
            if rng.random() < arrow_prob:
                arrows.append((f"x{i}_{j}", str(i), str(j)))
                if rng.random() < double_prob:
                    arrows.append((f"y{i}_{j}", str(i), str(j)))
    return Quiver(verts, arrows)


# ---------------------------------------------------------------------------
# complexes


def _coeff(rng):
    return rng.choice((-2, -1, 1, 2))


def random_element(rng, A, w, v, max_terms=2):
    """Random nonzero element of e_w A e_v, or None when there is no path w -> v."""
    paths = A.paths_between(w, v)
    if not paths:
        return None
    chosen = rng.sample(paths, min(len(paths), rng.randint(1, max_terms)))
    return A.element({p: A.field.of(_coeff(rng)) for p in chosen})


def _path_pairs(A):
    """Ordered vertex pairs (w, v), w != v, with a path from w to v."""
    verts = sorted(A.quiver.vertices)
    return [(w, v) for w in verts for v in verts if w != v and A.paths_between(w, v)]


def random_complex(rng, A, n_summands, degrees, conj_ops=4):
    """Direct sum of small pieces, conjugated by random elementary matrices."""
    pairs = _path_pairs(A)
    verts = sorted(A.quiver.vertices)
    lo, hi = min(degrees), max(degrees)
    X = complexes.ProjComplex.zero(A)
    count = 0
    while count < n_summands:
        r = rng.random()
        if count + 2 <= n_summands and hi > lo and r < 0.75:
            n = rng.randint(lo, hi - 1)
            if pairs and r < 0.65:
                w, v = rng.choice(pairs)
                d = random_element(rng, A, w, v)
            else:  # contractible P_v -> P_v
                w = v = rng.choice(verts)
                d = A.unit_at(v, A.field.of(_coeff(rng)))
            piece = complexes.make_complex(
                A, {n: (v,), n + 1: (w,)}, {n: complexes.PathMatrix(A, (w,), (v,), [[d]])}
            )
            count += 2
        else:
            piece = complexes.ProjComplex.stalk(A, rng.choice(verts), rng.randint(lo, hi))
            count += 1
        X = complexes.direct_sum(X, piece)
    return conjugate(rng, X, conj_ops)


def conjugate(rng, X, ops):
    """Apply `ops` random elementary changes of basis per degree.

    For V = 1 + r E_ij (i != j, r in e_{v_i} A e_{v_j}) on X^n, the new
    differentials are d^n V^{-1} (column j minus column i times r) and
    V d^{n-1} (row i plus r times row j), with V^{-1} = 1 - r E_ij.
    """
    A = X.algebra
    diffs = {n: [list(row) for row in d.entries] for n, d in X.differentials.items()}
    for n in sorted(X.components):
        vs = X.components[n]
        if len(vs) < 2:
            continue
        for _ in range(ops):
            i, j = rng.sample(range(len(vs)), 2)
            paths = A.paths_between(vs[i], vs[j])
            if not paths:
                continue
            r = A.element({rng.choice(paths): A.field.of(_coeff(rng))})
            if n in diffs:
                for row in diffs[n]:
                    row[j] = row[j] - row[i] * r
            if n - 1 in diffs:
                rows = diffs[n - 1]
                rows[i] = [a + r * b for a, b in zip(rows[i], rows[j])]
    mats = {
        n: complexes.PathMatrix(A, X.component(n + 1), X.component(n), ents)
        for n, ents in diffs.items()
    }
    return complexes.make_complex(A, dict(X.components), mats)


def stalk_sum(A, vertex_shifts):
    """Direct sum of shifted stalks P_v[k] in the given order."""
    X = complexes.ProjComplex.zero(A)
    for v, k in vertex_shifts:
        X = complexes.direct_sum(X, complexes.shift(complexes.ProjComplex.stalk(A, v), k))
    return X


def _reaches(A, v, w):
    return v == w or bool(A.paths_between(v, w))


def random_nonpositive_set(rng, A):
    """Non-positive set of sums of stalks P_v (degree 0) and P_w[1].

    Hom(P_w[1], P_v[k]) is nonzero only for k = 1 and a path v -> w, so the
    set is non-positive when no vertex of the first kind reaches one of the
    second.  Members are single stalks or sums of two; the whole set may be
    shifted by one.
    """
    verts = sorted(A.quiver.vertices)
    rng.shuffle(verts)
    deg0, deg1 = [], []
    for v in verts:
        if rng.random() < 0.5 and not any(_reaches(A, u, v) for u in deg0):
            deg1.append(v)
        elif not any(_reaches(A, v, w) for w in deg1):
            deg0.append(v)
    stalks = [(v, 0) for v in deg0] + [(w, 1) for w in deg1]
    rng.shuffle(stalks)
    stalks = stalks[: rng.randint(1, min(3, len(stalks)))]
    g = rng.choice((-1, 0))
    members, i = [], 0
    while i < len(stalks):
        take = 2 if i + 1 < len(stalks) and stalks[i][1] == stalks[i + 1][1] and rng.random() < 0.4 else 1
        members.append(stalk_sum(A, [(v, k + g) for v, k in stalks[i : i + take]]))
        i += take
    return members


# ---------------------------------------------------------------------------
# presentation


class Presenter:
    """Seeded presentation of planned problems: orders and changes of basis."""

    def __init__(self, rng):
        self.rng = rng

    def quiver(self, q):
        """The same quiver with its vertex and arrow lists shuffled."""
        verts = list(q.vertices)
        arrows = [(a.name, a.source, a.target) for a in q.arrows]
        self.rng.shuffle(verts)
        self.rng.shuffle(arrows)
        return Quiver(verts, arrows)

    def algebra(self, A):
        return build_algebra(self.quiver(A.quiver), A.field)

    def complex(self, X, A):
        """X moved to the algebra A (same quiver, other order), in a random basis."""
        rng = self.rng
        perms = {n: rng.sample(range(len(vs)), len(vs)) for n, vs in X.components.items()}
        scale = {
            n: [A.field.of(rng.choice((-2, -1, 1, 2))) for _ in vs] for n, vs in X.components.items()
        }
        comps = {n: tuple(vs[i] for i in perms[n]) for n, vs in X.components.items()}
        diffs = {}
        for n, d in X.differentials.items():
            # new basis e'_i = e_{perm(i)} / c_i: d'[a][b] = c_a d[perm a][perm b] / c_b
            rows, cols = perms[n + 1], perms[n]
            diffs[n] = complexes.PathMatrix(
                A, comps[n + 1], comps[n],
                [
                    [
                        A.element(d.entries[r][c].terms).scale(A.field.div(scale[n + 1][a], scale[n][b]))
                        for b, c in enumerate(cols)
                    ]
                    for a, r in enumerate(rows)
                ],
            )
        Y = complexes.make_complex(A, comps, diffs)
        return conjugate(rng, Y, 2 * max(len(vs) for vs in comps.values()))


# ---------------------------------------------------------------------------
# writing


class InputWriter:
    """Writes algebra and complex files into a directory and names them."""

    def __init__(self, out):
        self.out = out
        self.n_alg = 0
        self.n_cx = 0
        os.makedirs(out, exist_ok=True)

    def algebra(self, A):
        name = f"alg{self.n_alg:03d}.json"
        self.n_alg += 1
        serialize.save_algebra(A, os.path.join(self.out, name))
        return name

    def complex(self, X, algebra_ref):
        name = f"cx{self.n_cx:04d}.json"
        self.n_cx += 1
        serialize.save_complex(X, os.path.join(self.out, name), algebra_ref=algebra_ref)
        return name


def build_glue_ladder(_plan, _present, w):
    """The fixed ladder; its inputs are the same for every seed."""
    ops = []
    for qname, S, prefix in LADDER:
        if qname == "ka3":
            q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        elif qname.startswith("a"):
            q = linear_quiver(int(qname[1:]))
        else:
            q = star_quiver(int(qname[4:]))
        A = build_algebra(q)
        rec = recollement.idempotent_recollement(A, S)
        alg = w.algebra(A)
        corner = w.algebra(rec.C)
        quotient = w.algebra(rec.B)
        # quotient vertices in path order (sources first), the first `prefix` shifted
        order = sorted(rec.B.quiver.vertices, key=_label_order)
        shifted = set(order[:prefix])
        tb = w.complex(stalk_sum(rec.B, [(v, 1 if v in shifted else 0) for v in order]), quotient)
        tc = w.complex(stalk_sum(rec.C, [(v, 0) for v in rec.C.quiver.vertices]), corner)
        rung = f"{qname}_S{'.'.join(S)}_p{prefix}"
        e = ",".join(S)
        ops.append({"kind": "glue", "rung": rung, "args": ["glue", alg, "--e", e, "--tc", tc, "--tb", tb]})
        ops.append({"kind": "glue", "rung": rung, "args": ["glue", alg, "--e", e, "--shortcut", "--tb", tb]})
        ops.append({"kind": "check-silting", "rung": rung, "algebra": alg, "of": len(ops) - 2})
    return ops


def _label_order(v):
    """1 < 2 < ... for linear quivers; c before the leaves of a star."""
    return (0, 0) if v == "c" else (1, int(v.lstrip("l")))


def build_hom_sweep(plan, present, w):
    ops = []
    for ai in range(HOM_ALGEBRAS):
        tag = HOM_FIELDS[ai % len(HOM_FIELDS)]
        A = build_algebra(random_quiver(plan, plan.randint(4, 6)), field_from_tag(tag))
        shown = present.algebra(A)
        alg = w.algebra(shown)
        for _ in range(HOM_PAIRS_PER_ALGEBRA):
            X = random_complex(plan, A, plan.randint(6, 14), (-1, 0, 1))
            Y = random_complex(plan, A, plan.randint(6, 14), (-1, 0, 1))
            ops.append(
                {
                    "kind": "hom",
                    "field": tag,
                    "x": w.complex(present.complex(X, shown), alg),
                    "y": w.complex(present.complex(Y, shown), alg),
                    "reps": len(ops) % HOM_REPS_EVERY == 0,
                }
            )
    return ops


def build_envelope_mix(plan, present, w):
    ops = []
    for _ in range(ENV_RANDOM_OPS):
        A = build_algebra(random_quiver(plan, plan.randint(5, 6)))
        shown = present.algebra(A)
        alg = w.algebra(shown)
        M = random_complex(plan, A, plan.randint(6, 9), (-2, -1, 0, 1))
        M = w.complex(present.complex(M, shown), alg)
        T = [w.complex(present.complex(t, shown), alg) for t in random_nonpositive_set(plan, A)]
        ops.append({"kind": "envelope", "m": M, "t": T})
        ops.append({"kind": "precover", "m": M, "t": T})
    for _ in range(ENV_ISTAR_OPS):
        n = plan.randint(5, 7)
        S = [str(i) for i in range(n - plan.randint(1, 2) + 1, n + 1)]
        A = build_algebra(linear_quiver(n))
        Y = random_complex(plan, recollement.idempotent_recollement(A, S).B, plan.randint(5, 8), (-2, -1, 0, 1))
        shown = recollement.idempotent_recollement(present.algebra(A), S)
        alg = w.algebra(shown.A)
        quotient = w.algebra(shown.B)
        ops.append({"kind": "istar-envelope", "algebra": alg, "S": S, "y": w.complex(present.complex(Y, shown.B), quotient)})
    return ops


BUILDERS = {
    "glue-ladder": build_glue_ladder,
    "hom-sweep": build_hom_sweep,
    "envelope-mix": build_envelope_mix,
}


def generate(workload, seed, out):
    """Write the inputs of (workload, seed) into `out`; returns the manifest."""
    plan = random.Random(f"{workload}:plan")
    present = Presenter(random.Random(f"{workload}:{seed}"))
    ops = BUILDERS[workload](plan, present, InputWriter(out))
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


def input_hash(out):
    """SHA-256 over the names and bytes of every input file, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name.endswith(".json"):
            h.update(name.encode())
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    manifest = generate(args.workload, args.seed, args.out)
    print(json.dumps({"ops": len(manifest["ops"]), "sha256": input_hash(args.out)}))


if __name__ == "__main__":
    main()
