"""Checks of every operation's output, made apart from the program.

Hom dimensions are compared with the brute-force solver in `tests/oracle.py`
(its own elimination, its own path products).  Path counts, K_0 classes,
the first-entry resolutions behind `i_*` and integer determinants are
computed here from the quiver alone.  `check_all` returns, per operation,
None or a pair (kind, message): kind "error" when the operation did not
complete (an exception or a non-zero exit code), "wrong" when it completed
with an output that fails a check.
"""

import importlib.util
import json
import os

from ops import SRC
from siltglue import serialize

ORACLE_PATH = os.path.join(os.path.dirname(SRC), "tests", "oracle.py")


def load_oracle():
    spec = importlib.util.spec_from_file_location("siltbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_hom_dim


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# arithmetic made here, from the quiver


class QuiverFacts:
    """Path counts and first-entry paths of a quiver, by direct enumeration."""

    def __init__(self, algebra_json):
        self.vertices = list(algebra_json["vertices"])
        self.out = {v: [] for v in self.vertices}
        for a in algebra_json["arrows"]:
            self.out[a["from"]].append(a["to"])
        self._count = {}

    def paths(self, a, b):
        """Number of paths from a to b, the trivial one included."""
        key = (a, b)
        if key not in self._count:
            self._count[key] = int(a == b) + sum(self.paths(c, b) for c in self.out[a])
        return self._count[key]

    def first_entries(self, v, S):
        """Targets, with multiplicity, of paths from v that enter S at their last vertex."""
        out = []
        for c in self.out[v]:
            out.extend([c] if c in S else self.first_entries(c, S))
        return out

    def k0(self, cx_json):
        """Class in K_0: alternating vertex counts."""
        row = {v: 0 for v in self.vertices}
        for n, vs in cx_json["components"].items():
            for v in vs:
                row[v] += 1 if int(n) % 2 == 0 else -1
        return row


def int_det(rows):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def degrees(cx_json):
    ds = [int(n) for n, vs in cx_json["components"].items() if vs]
    return (min(ds), max(ds)) if ds else None


def graded(cx_json):
    return tuple(sorted((int(n), tuple(sorted(vs))) for n, vs in cx_json["components"].items() if vs))


# ---------------------------------------------------------------------------
# per workload


class Checker:
    def __init__(self, inputs_dir):
        self.dir = inputs_dir
        self.oracle = load_oracle()
        self._algebras = {}

    def algebra(self, name):
        if name not in self._algebras:
            with open(os.path.join(self.dir, name)) as fh:
                data = json.load(fh)
            self._algebras[name] = (serialize.algebra_from_json(data), QuiverFacts(data))
        return self._algebras[name]

    def complex_file(self, name):
        with open(os.path.join(self.dir, name)) as fh:
            data = json.load(fh)
        A, facts = self.algebra(data["algebra"])
        return serialize.complex_from_json(data, algebra=A), data, facts

    # -- hom-sweep ---------------------------------------------------------

    def check_hom(self, op, out):
        X, xj, facts = self.complex_file(op["x"])
        Y, yj, _ = self.complex_file(op["y"])
        (xlo, xhi), (ylo, yhi) = degrees(xj), degrees(yj)
        dims = {int(k): d for k, d in out["dims"].items()}
        require(sorted(dims) == list(range(ylo - xhi, yhi - xlo + 1)), f"window {sorted(dims)}")
        for k, d in dims.items():
            want = self.oracle(X, Y, k)
            require(d == want, f"dim Hom(X, Y[{k}]) = {d}, oracle {want}")
        euler = sum((-1) ** (k % 2) * d for k, d in dims.items())
        paths = 0
        for m, vs in xj["components"].items():
            for n, ws in yj["components"].items():
                sign = -1 if (int(n) - int(m)) % 2 else 1
                paths += sign * sum(facts.paths(w, v) for v in vs for w in ws)
        require(euler == paths, f"Euler form {euler} != alternating path count {paths}")
        if op["reps"]:
            reps = {int(k): n for k, n in out["reps"].items()}
            require(reps == dims, f"representatives {reps} != dimensions {dims}")

    # -- envelope-mix ------------------------------------------------------

    def _sup(self, pairs):
        best = None
        for fn, k in pairs:
            if (best is None or k > best) and fn(k):
                best = k
        return best

    def _approx_common(self, out, M_json, facts, precover):
        s = out["s"]
        shifts = [layer[0] for layer in out["trace"]]
        stat = [-x for x in shifts] if precover else shifts
        require(all(a > b for a, b in zip(stat, stat[1:])), f"trace shifts do not strictly decrease: {shifts}")
        require((s is None) == (not stat), f"s = {s} but trace {shifts}")
        if stat:
            require(stat[0] == s, f"outermost layer {shifts[0]} does not match s = {s}")
        km, kv, ku = facts.k0(M_json), facts.k0(out["V"]), facts.k0(out["U"])
        require(all(km[v] == kv[v] + ku[v] for v in km), "[M] != [V] + [U] in K_0")

    def check_envelope(self, M, M_json, T, facts, A, out):
        """s, orthogonality of V, K_0 and the trace of an envelope V -> M -> U."""
        lo_m = degrees(M_json)[0]
        s = self._sup((lambda k, t=t: self.oracle(M, t, k) != 0, k)
                      for t in T for k in range(0, t.hi - lo_m + 1))
        require(out["s"] == s, f"s = {out['s']}, oracle {s}")
        V = serialize.complex_from_json(out["V"], algebra=A)
        if not V.is_zero():
            for i, t in enumerate(T):
                for k in range(0, t.hi - V.lo + 1):
                    require(self.oracle(V, t, k) == 0, f"Hom(V, T{i}[{k}]) != 0")
        self._approx_common(out, M_json, facts, precover=False)

    def check_precover(self, M, M_json, T, facts, A, out):
        hi_m = degrees(M_json)[1]
        s = self._sup((lambda k, t=t: self.oracle(t, M, k) != 0, k)
                      for t in T for k in range(0, hi_m - t.lo + 1))
        require(out["s"] == s, f"s = {out['s']}, oracle {s}")
        U = serialize.complex_from_json(out["U"], algebra=A)
        if not U.is_zero():
            for i, t in enumerate(T):
                for k in range(0, U.hi - t.lo + 1):
                    require(self.oracle(t, U, k) == 0, f"Hom(T{i}[-{k}], U) != 0")
        self._approx_common(out, M_json, facts, precover=True)

    def check_approx(self, op, out):
        M, M_json, facts = self.complex_file(op["m"])
        T = [self.complex_file(t)[0] for t in op["t"]]
        (self.check_precover if op["kind"] == "precover" else self.check_envelope)(
            M, M_json, T, facts, M.algebra, out
        )

    def check_istar(self, op, out):
        A, facts = self.algebra(op["algebra"])
        _, yj, _ = self.complex_file(op["y"])
        S = set(op["S"])
        want = {v: 0 for v in facts.vertices}
        for n, vs in yj["components"].items():
            sign = 1 if int(n) % 2 == 0 else -1
            for v in vs:
                want[v] += sign
                for t in facts.first_entries(v, S):
                    want[t] -= sign
        require(facts.k0(out["M"]) == want, "[i_* Y] does not match the first-entry resolutions")
        M = serialize.complex_from_json(out["M"], algebra=A)
        T = [serialize.complex_from_json(t, algebra=A) for t in out["T"]]
        self.check_envelope(M, out["M"], T, facts, A, out)

    # -- glue-ladder -------------------------------------------------------

    def check_glue(self, op, out):
        report = out["report"]
        require(report is not None and report.get("passed") is True, "glue did not pass its certificates")
        A, facts = self.algebra(op["args"][1])
        parts = report["decomposition"]
        require(len(parts) == len(facts.vertices), f"{len(parts)} summands for {len(facts.vertices)} vertices")
        det = int_det([[facts.k0(p["complex"])[v] for v in facts.vertices] for p in parts])
        require(det in (1, -1), f"K_0 determinant {det}")
        cxs = [serialize.complex_from_json(p["complex"], algebra=A) for p in parts]
        for i, a in enumerate(cxs):
            for j, b in enumerate(cxs):
                for k in range(1, b.hi - a.lo + 1):
                    require(self.oracle(a, b, k) == 0, f"Hom(T{i}, T{j}[{k}]) != 0")
        if op["rung"].startswith("ka3_S3_p1"):
            got = sorted((graded(p["complex"]), p["multiplicity"]) for p in parts)
            want = sorted([(((-1, ("1",)),), 1), (((0, ("2",)),), 1), (((0, ("3",)),), 1)])
            require(got == want, f"ka3 anchor gives {got}, not P1[1] + P2 + P3")

    def check_silting(self, op, out):
        report = out["report"]
        require(report is not None and report.get("silting_certified") is True, "not certified silting")
        require(report["presilting"]["ok"] and report["generation"]["status"] == "generated"
                and report["k0"]["unimodular"], "a check-silting certificate failed")

    def check_routes_agree(self, inductive, shortcut):
        def classes(out):
            return sorted((graded(p["complex"]), p["multiplicity"]) for p in out["report"]["decomposition"])

        require(classes(inductive) == classes(shortcut), "inductive and --shortcut glue disagree")


def _cli_failure(out):
    if out.get("error"):
        return out["error"]
    if "exit_code" in out and out["exit_code"] != 0:
        return f"exit code {out['exit_code']}"
    return None


def check_all(inputs_dir, manifest, outputs):
    """Per operation: None, or (kind, message) with kind "error" or "wrong"."""
    checker = Checker(inputs_dir)
    ops = manifest["ops"]
    verdicts = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        failure = _cli_failure(out)
        if failure:
            verdicts.append(("error", failure.strip().splitlines()[-1]))
            continue
        kind = op["kind"]
        try:
            if kind == "hom":
                checker.check_hom(op, out)
            elif kind in ("envelope", "precover"):
                checker.check_approx(op, out)
            elif kind == "istar-envelope":
                checker.check_istar(op, out)
            elif kind == "glue":
                checker.check_glue(op, out)
                if "--shortcut" in op["args"] and verdicts[i - 1] is None:
                    checker.check_routes_agree(outputs[i - 1], out)
            elif kind == "check-silting":
                checker.check_silting(op, out)
            verdicts.append(None)
        except CheckFailed as exc:
            verdicts.append(("wrong", str(exc)))
        except (KeyError, TypeError, ValueError) as exc:
            verdicts.append(("wrong", f"malformed output: {exc!r}"))
    return verdicts

