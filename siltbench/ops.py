"""Loading a workload's inputs and running its operations.

Importing this module imports `siltglue.cli`, which pulls in the whole
package and sympy; the set-up probe times exactly that import plus
loading the inputs (`Inputs`).  Each operation is split in two: `run_op` is the timed call
into the program, and `summarize` turns its result into JSON for the
checks, outside the timed region.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from click.testing import CliRunner  # noqa: E402

import siltglue.cli  # noqa: E402
from siltglue import serialize  # noqa: E402
from siltglue.approx import cosusp_precover, susp_envelope  # noqa: E402
from siltglue.complexes import ProjComplex, direct_sum_many, shift  # noqa: E402
from siltglue.homs import HomSpace, hom_dim_table, hom_window  # noqa: E402
from siltglue.recollement import i_star, idempotent_recollement, j_lower_shriek  # noqa: E402


class Inputs:
    """The manifest plus every object the operations need, loaded from JSON."""

    def __init__(self, directory):
        self.dir = directory
        with open(os.path.join(directory, "manifest.json")) as fh:
            self.manifest = json.load(fh)
        self.ops = self.manifest["ops"]
        self.objects = []  # per op: the loaded arguments, or None for CLI ops
        algebras = {}
        for op in self.ops:
            self.objects.append(self._load(op, algebras))

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _algebra(self, name, algebras):
        if name not in algebras:
            algebras[name] = serialize.load_algebra(self._path(name))
        return algebras[name]

    def _load(self, op, algebras):
        kind = op["kind"]
        if kind == "hom":
            X = serialize.load_complex(self._path(op["x"]))
            Y = serialize.load_complex(self._path(op["y"]), algebra=X.algebra)
            return X, Y
        if kind in ("envelope", "precover"):
            M = serialize.load_complex(self._path(op["m"]))
            return M, [serialize.load_complex(self._path(t), algebra=M.algebra) for t in op["t"]]
        if kind == "istar-envelope":
            A = self._algebra(op["algebra"], algebras)
            rec = idempotent_recollement(A, op["S"])
            Y = serialize.load_complex(self._path(op["y"]), algebra=rec.B)
            corner = direct_sum_many(rec.C, [ProjComplex.stalk(rec.C, v) for v in rec.C.quiver.vertices])
            return rec, Y, [shift(j_lower_shriek(rec, corner), 1)]
        return None  # glue and check-silting read their own files


def run_op(inputs, index):
    """The timed part of operation `index`; returns the raw result."""
    op = inputs.ops[index]
    kind = op["kind"]
    args = inputs.objects[index]
    if kind == "hom":
        X, Y = args
        if not op["reps"]:
            return hom_dim_table(X, Y), None
        lo, hi = hom_window(X, Y)
        dims, reps = {}, {}
        for k in range(lo, hi + 1):
            hs = HomSpace(X, Y, k)
            dims[k] = hs.dim
            reps[k] = len(hs.basis_maps())
        return dims, reps
    if kind == "envelope":
        return susp_envelope(*args)
    if kind == "precover":
        return cosusp_precover(*args)
    if kind == "istar-envelope":
        rec, Y, T = args
        M = i_star(rec, Y)
        return M, susp_envelope(M, T)
    if kind == "glue":
        return CliRunner().invoke(siltglue.cli.main, op["args"])
    if kind == "check-silting":
        files = op["files"]
        return CliRunner().invoke(siltglue.cli.main, ["check-silting", *files])
    raise ValueError(f"unknown operation kind {kind!r}")


def _envelope_summary(env):
    return {
        "s": env.s,
        "trace": [[s, list(tags)] for s, tags in env.trace],
        "M": serialize.complex_to_json(env.M),
        "V": serialize.complex_to_json(env.V),
        "U": serialize.complex_to_json(env.U),
    }


def _cli_summary(res):
    out = {"exit_code": res.exit_code, "stdout_bytes": len(res.stdout_bytes)}
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        out["error"] = repr(res.exception)
    try:
        out["report"] = json.loads(res.stdout)
    except ValueError:
        out["report"] = None
    return out


def summarize(inputs, index, result):
    """JSON-ready summary of an operation's result, for the checks."""
    kind = inputs.ops[index]["kind"]
    if kind == "hom":
        dims, reps = result
        out = {"dims": {str(k): d for k, d in sorted(dims.items())}}
        if reps is not None:
            out["reps"] = {str(k): n for k, n in sorted(reps.items())}
        return out
    if kind in ("envelope", "precover"):
        return _envelope_summary(result)
    if kind == "istar-envelope":
        out = _envelope_summary(result[1])
        out["T"] = [serialize.complex_to_json(t) for t in inputs.objects[index][2]]
        return out
    return _cli_summary(result)


def prepare(inputs, index, summaries):
    """Untimed preparation before op `index`: write the glued set it checks."""
    op = inputs.ops[index]
    if op["kind"] != "check-silting":
        return
    glue = summaries[op["of"]]
    report = glue.get("report") or {}
    files = []
    for i, data in enumerate(report.get("T", [])):
        name = f"glued{op['of']:03d}_{i}.json"
        data = dict(data, algebra=op["algebra"])
        with open(os.path.join(inputs.dir, name), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        files.append(name)
    op["files"] = files
