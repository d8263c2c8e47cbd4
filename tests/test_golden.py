"""Byte-for-byte regression of the CLI against recorded outputs.

For the ka3 anchor files and every `glue_fixtures()` entry, `recollement`
(whose report prints the corner, the quotient and the two-term
resolutions), `glue`, `glue --shortcut` and `check-silting` on the glued
set must print exactly what `tests/golden/<case>.json` recorded: the same
exit code, standard output and standard error.  The ka3 case also checks
`check-silting` on two sets of anchor complexes that no stalk summand
generates: P1, P2, which is presilting and "not generated", and I2, S2,
P3, which is not presilting and "undecided"; `minimize` on anchor
files and on raw cones that need cancelling, and `envelope` on anchor
files, whose report prints the maps `f` and `v_map` built from the
minimization maps.  Regenerate the records (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys

import pytest
from click.testing import CliRunner

from former import cone
from siltglue import serialize
from siltglue.cli import main
from siltglue.complexes import ChainMap, direct_sum, shift
from siltglue.fixtures import glue_fixtures, write_fixture_files
from siltglue.gluing import canonical_corner_silting
from siltglue.homs import HomSpace

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CASES = ["ka3"] + [name for name, _rec, _tb in glue_fixtures()]
# (M, T) anchor-file pairs for `envelope`: one or two stages, one or more cones
ENVELOPES = [
    ("i2", ("p1", "p2")),
    ("i2", ("p2", "s2")),
    ("i2", ("p1", "p2", "s2")),
    ("p2", ("p1", "i2", "s2")),
    ("s2", ("p1", "p3", "i2")),
]
# (X, Y, k): raw cones of the sum of the Hom(X, Y[k]) basis maps, for `minimize`
CONES = [("s2", "i2", 0), ("i2", "i2", 0), ("p2", "s2", 0), ("i2", "p2", 1)]


def _case_files(case, directory):
    """Write the inputs of one case; returns (algebra, tc, tb, --e value, anchor files)."""
    if case == "ka3":
        paths = write_fixture_files(directory)
        return paths["algebra"], paths["tc"], paths["tb"], "3", paths
    ((_name, rec, T_B),) = [f for f in glue_fixtures() if f[0] == case]
    files = {}
    for key, alg in (("A", rec.A), ("C", rec.C), ("B", rec.B)):
        files[key] = os.path.join(directory, f"{key}.json")
        serialize.save_algebra(alg, files[key])
    tc = os.path.join(directory, "tc.json")
    serialize.save_complex(canonical_corner_silting(rec), tc, algebra_ref="C.json")
    tb = os.path.join(directory, "tb.json")
    serialize.save_complex(T_B[0], tb, algebra_ref="B.json")
    return files["A"], tc, tb, ",".join(rec.S), None


def _invoke(args):
    res = CliRunner().invoke(main, args)
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise res.exception
    return {"exit_code": res.exit_code, "stdout": res.stdout, "stderr": res.stderr}


def _cone_files(anchor, directory):
    """Write the unminimized cones of CONES, and their direct sum, next to the anchor files."""
    objs = {n: serialize.load_complex(anchor[n]) for n in {n for x, y, _k in CONES for n in (x, y)}}
    cones = {}
    for x, y, k in CONES:
        X, Y = objs[x], shift(objs[y], k)
        f = ChainMap.zero(X, Y)
        for g in HomSpace(objs[x], objs[y], k).basis_maps():
            f = f + g
        cones[f"cone_{x}_{y}_{k}"] = cone(f)
    total = None
    for Z in cones.values():
        total = Z if total is None else direct_sum(total, Z)
    cones["cone_sum"] = total
    paths = {}
    for name, Z in cones.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        serialize.save_complex(Z, paths[name], algebra_ref=os.path.basename(anchor["algebra"]))
    return paths


def run_case(case, directory):
    """The CLI runs of a case, keyed by verb and arguments."""
    alg, tc, tb, e, anchor = _case_files(case, directory)
    out = {
        "recollement": _invoke(["recollement", alg, "--e", e]),
        "glue": _invoke(["glue", alg, "--e", e, "--tc", tc, "--tb", tb]),
        "glue --shortcut": _invoke(["glue", alg, "--e", e, "--shortcut", "--tb", tb]),
    }
    files = []
    for i, data in enumerate(json.loads(out["glue"]["stdout"])["T"]):
        path = os.path.join(directory, f"glued_{i}.json")
        with open(path, "w") as fh:
            json.dump(dict(data, algebra=os.path.basename(alg)), fh, indent=1, sort_keys=True)
        files.append(path)
    out["check-silting"] = _invoke(["check-silting", *files])
    if anchor is not None:
        for names in (("p1", "p2"), ("i2", "s2", "p3")):
            out[f"check-silting {' '.join(names)}"] = _invoke(["check-silting", *(anchor[n] for n in names)])
        for name, path in [(n, anchor[n]) for n in ("i2", "tb")] + sorted(_cone_files(anchor, directory).items()):
            out[f"minimize {name}"] = _invoke(["minimize", path])
        for m, ts in ENVELOPES:
            out[f"envelope {m} {' '.join(ts)}"] = _invoke(["envelope", anchor[m], *(anchor[t] for t in ts)])
    return out


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_match_golden(case, tmp_path):
    with open(os.path.join(GOLDEN, f"{case}.json")) as fh:
        want = json.load(fh)
    got = run_case(case, str(tmp_path))
    for verb in want:
        assert got[verb] == want[verb], f"{case}: {verb} output changed"


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as d:
            record = run_case(case, d)
        with open(os.path.join(GOLDEN, f"{case}.json"), "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {case}", file=sys.stderr)
