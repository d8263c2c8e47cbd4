"""Spans and counters around the program's layers, patched in from outside.

`Tracer.install()` wraps the functions of each siltglue module and a few
methods of its classes.  A function bound elsewhere by `from ... import` is
replaced in every loaded module that bound it, the benchmark's own included.  Each wrapped call is a span with a
name, start, end and parent; its self time is its length minus the time of
its child spans.  Hot small calls (`AlgebraElement.__mul__`,
`PathAlgebra.__eq__`) only bump a counter.  Work the tracer does for itself
(building Hom keys, say) runs on a paused clock, so it lands in no layer;
the overhead that remains shows in `trace.wall_s` against an untraced run.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from siltglue import (
    _kernel,
    approx,
    cli,
    complexes,
    decompose,
    gluing,
    homs,
    linalg,
    quiver,
    recollement,
    serialize,
)

MODULES = (cli, serialize, gluing, recollement, approx, decompose, homs, complexes, linalg, _kernel)
LAYERS = ("cli", "serialize", "gluing", "recollement", "approx", "decompose", "homs", "complexes", "linalg", "kernel")
METHODS = (
    (homs.HomSpace, ("__init__", "coordinates", "basis_maps", "is_null_homotopic", "homotopy_witness")),
    (complexes.PathMatrix, ("compose", "invert")),
    (complexes.ChainMap, ("compose", "check_chain_condition")),
    (linalg.Matrix, ("rref", "matmul")),
    (decompose.EndAlgebra, ("__init__", "radical")),
    (recollement.IdempotentRecollement, ("__init__",)),
)
# spans too frequent to keep one record each; they are still timed
UNRECORDED = {
    "complexes.PathMatrix.compose", "complexes.ChainMap.compose", "complexes.shift",
    "complexes.shift_map", "complexes.direct_sum", "complexes._cancel", "complexes.cone",
    "complexes.cocone", "complexes.make_complex", "complexes.summand_inclusion",
    "complexes.ChainMap.check_chain_condition", "complexes.PathMatrix.invert",
    "linalg._rref_rows", "linalg.in_row_space", "linalg.row_space_rref", "linalg.kernel_basis",
    "linalg.solve", "linalg.rank", "linalg.Matrix.rref", "linalg.Matrix.matmul",
    "kernel.rref_qq", "kernel.rref_fp", "kernel.rref_qq_bareiss", "kernel._clear_denominators",
    "homs.hom_window", "homs.hom_dim", "homs.hom_basis", "homs.HomSpace.coordinates",
    "homs.HomSpace.basis_maps", "serialize._element_in", "serialize._element_out",
    "serialize._coeff_in", "serialize._coeff_out", "serialize._check_version",
    "recollement._transport_element", "recollement._first_entry_factor",
    "decompose._scalar_invertible_everywhere", "decompose._eval_poly", "cli._describe",
}
MAX_SPANS = 200_000

# inclusive times: a group's clock runs while any of its functions is on the stack
GROUPS = {
    "serialize.load_s": ("serialize.load_complex", "serialize.load_algebra", "serialize.complex_from_json",
                         "serialize.algebra_from_json", "serialize.chain_map_from_json"),
    "serialize.dump_s": ("serialize.complex_to_json", "serialize.chain_map_to_json", "serialize.algebra_to_json",
                         "serialize.save_complex", "serialize.save_algebra"),
    "gluing.generation_s": ("gluing.check_generation",),
    "gluing.k0_s": ("gluing.k0_report",),
    "gluing.certify_s": ("gluing.check_star_condition", "gluing.check_presilting",
                         "gluing.check_co_aisle_agreement"),
    "recollement.i_star_s": ("recollement.i_star",),
    "approx.envelope_s": ("approx.susp_envelope",),
    "approx.precover_s": ("approx.cosusp_precover",),
    "decompose.s": ("decompose.decompose",),
    "decompose.radical_s": ("decompose.EndAlgebra.radical",),
    "decompose.sympy_s": ("sympy.",),  # a trailing dot matches every name under it
    "homs.homspace_s": ("homs.HomSpace.__init__",),
    "homs.coordinates_s": ("homs.HomSpace.coordinates",),
    "complexes.minimize_s": ("complexes.minimize",),
    "complexes.compose_s": ("complexes.PathMatrix.compose",),
    "kernel.rref_qq_s": ("kernel.rref_qq",),
    "kernel.rref_fp_s": ("kernel.rref_fp",),
}
CALLS = {
    "recollement.i_star_calls": ("recollement.i_star",),
    "approx.stages": ("approx._susp_envelope_stage", "approx._cosusp_precover_stage"),
    "approx.minimality_tests": ("approx._is_preenvelope", "approx._is_precover"),
    "decompose.calls": ("decompose.decompose",),
    "decompose.iso_tests": ("decompose.is_isomorphic",),
    "decompose.split_tries": ("decompose._try_minpoly_split",),
    "homs.homspace_calls": ("homs.HomSpace.__init__",),
    "homs.coordinates_calls": ("homs.HomSpace.coordinates",),
    "complexes.minimize_calls": ("complexes.minimize",),
    "complexes.cancellations": ("complexes._cancel",),
    "complexes.compose_calls": ("complexes.PathMatrix.compose",),
    "linalg.rref_calls": ("linalg._rref_rows",),
}

# unit and better direction of every metric `Tracer.metrics` reports
PER_LAYER = {
    "trace.wall_s": ("s", "lower"),
    "cli.out_kb": ("kB", "lower"),
    "gluing.generation_objects": ("count", "lower"),
    "gluing.generation_homspaces": ("count", "lower"),
    "gluing.final_decompose_s": ("s", "lower"),
    "approx.deletion_yield": ("ratio", "higher"),
    "decompose.end_dim_sum": ("count", "lower"),
    "decompose.split_yield": ("ratio", "higher"),
    "homs.unknowns": ("count", "lower"),
    "homs.repeat_share": ("ratio", "lower"),
    "linalg.rref_cells": ("count", "lower"),
    "quiver.elem_mul_calls": ("count", "lower"),
    "quiver.algebra_eq_calls": ("count", "lower"),
}
PER_LAYER.update({name: ("s", "lower") for name in GROUPS})
PER_LAYER.update({name: ("count", "lower") for name in CALLS})
PER_LAYER.update({f"{layer}.self_s": ("s", "lower") for layer in LAYERS})


def _layer_of(module):
    return module.__name__.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Collects spans, per-layer self time, group times and counters."""

    def __init__(self):
        self.active = False
        self.record = True
        self.paused = 0.0  # seconds spent in the tracer's own hooks
        self.stack = []  # frames: [name, start, child_time, span index]
        self.spans = []  # [name, start, end, parent span index]
        self.reset()
        self._originals = {
            "algebra_to_json": serialize.algebra_to_json,
            "complex_to_json": serialize.complex_to_json,
        }

    def reset(self):
        """Start a new round of counts and times."""
        self.round_times = defaultdict(float)  # calibrated seconds
        self.calls = Counter()
        self.counters = Counter()
        self._op_times()

    def _op_times(self):
        self.layer_self = defaultdict(float)  # raw seconds of the current operation
        self.group_time = defaultdict(float)
        self.group_depth = Counter()
        self.group_start = {}
        self.hom_keys = set()

    def now(self):
        return time.perf_counter() - self.paused

    # -- wrapping ----------------------------------------------------------

    def _groups_of(self, name):
        return tuple(
            g for g, names in GROUPS.items()
            if any(name == n or (n.endswith(".") and name.startswith(n)) for n in names)
        )

    def wrap(self, name, fn, hook=None):
        tracer = self
        layer = name.split(".", 1)[0]
        groups = self._groups_of(name)
        record = name not in UNRECORDED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            start = tracer.now()
            span = None
            if record and tracer.record and len(tracer.spans) < MAX_SPANS:
                span = len(tracer.spans)
                tracer.spans.append([name, start, None, _nearest_span(stack)])
            frame = [name, start, 0.0, span]
            stack.append(frame)
            for g in groups:
                if tracer.group_depth[g] == 0:
                    tracer.group_start[g] = start
                tracer.group_depth[g] += 1
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = tracer.now()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                tracer.layer_self[layer] += dur - frame[2]
                tracer.calls[name] += 1
                for g in groups:
                    tracer.group_depth[g] -= 1
                    if tracer.group_depth[g] == 0:
                        tracer.group_time[g] += end - tracer.group_start[g]
                if span is not None:
                    tracer.spans[span][2] = end
                if hook is not None and ok:
                    h0 = time.perf_counter()
                    tracer.active = False  # the hook's own calls into the program are not traced
                    try:
                        hook(args, result, dur, parent[0] if parent else None)
                    finally:
                        tracer.active = True
                        tracer.paused += time.perf_counter() - h0

        return wrapper

    def count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.active:
                tracer.counters[name] += 1
            return fn(*args)

        return wrapper

    def install(self):
        """Patch the program; call once per process."""
        hooks = {
            "homs.HomSpace.__init__": self._hook_homspace,
            "decompose.EndAlgebra.__init__": self._hook_end,
            "decompose.decompose": self._hook_decompose,
            "decompose._try_minpoly_split": self._hook_split,
            "approx._is_preenvelope": self._hook_minimality,
            "approx._is_precover": self._hook_minimality,
            "linalg._rref_rows": self._hook_rref,
            "gluing.check_generation": self._hook_generation,
        }
        bindings = _function_bindings()
        for module in MODULES:
            layer = _layer_of(module)
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ in (module.__name__, f"{module.__name__}._rref_py"):
                    name = f"{layer}.{attr}"
                    wrapper = self.wrap(name, obj, hooks.get(name))
                    for mod, bound_as in bindings.get(id(obj), ()):
                        setattr(mod, bound_as, wrapper)
        for cls, methods in METHODS:
            layer = _layer_of(inspect.getmodule(cls))
            for attr in methods:
                name = f"{layer}.{cls.__name__}.{attr}"
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), hooks.get(name)))
        for cmd_name, cmd in cli.main.commands.items():
            cmd.callback = self.wrap(f"cli.{cmd_name}", cmd.callback)
        quiver.AlgebraElement.__mul__ = self.count("quiver.elem_mul_calls", quiver.AlgebraElement.__mul__)
        quiver.PathAlgebra.__eq__ = self.count("quiver.algebra_eq_calls", quiver.PathAlgebra.__eq__)
        decompose.sympy = _SympyProxy(self, decompose.sympy)

    # -- hooks: extra counts that need arguments or results -----------------

    def _hook_homspace(self, args, _result, _dur, _parent):
        hs = args[0]
        self.counters["homs.unknowns"] += hs.fvars.dim + hs.hvars.dim
        if self.group_depth["gluing.generation_s"]:
            self.counters["gluing.generation_homspaces"] += 1
        to_json = self._originals["complex_to_json"]
        key = json.dumps(
            [self._originals["algebra_to_json"](hs.X.algebra), to_json(hs.X), to_json(hs.Y), hs.k],
            sort_keys=True,
        )
        if key in self.hom_keys:
            self.counters["homs.repeats"] += 1
        self.hom_keys.add(key)

    def _hook_end(self, args, _result, _dur, _parent):
        self.counters["decompose.end_dim_sum"] += args[0].dim

    def _hook_decompose(self, _args, _result, dur, parent):
        if parent in ("gluing.glue", "gluing.glue_shortcut"):
            self.group_time["gluing.final_decompose_s"] += dur

    def _hook_split(self, _args, result, _dur, _parent):
        if result is not None:
            self.counters["decompose.splits"] += 1

    def _hook_minimality(self, _args, result, _dur, _parent):
        if result:
            self.counters["approx.deletions"] += 1

    def _hook_rref(self, args, _result, _dur, _parent):
        rows = args[1]
        self.counters["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _hook_generation(self, _args, result, _dur, _parent):
        self.counters["gluing.generation_objects"] += result.get("objects", 0)

    # -- per operation -----------------------------------------------------

    def begin_op(self, label):
        """Open the root span of one operation; Hom keys are per operation."""
        self._op_times()
        self.active = True
        start = self.now()
        span = None
        if self.record and len(self.spans) < MAX_SPANS:
            span = len(self.spans)
            self.spans.append([label, start, None, None])
        self.stack = [[label, start, 0.0, span]]

    def end_op(self):
        _name, start, child, span = self.stack.pop()
        end = self.now()
        self.layer_self["bench"] += end - start - child
        if span is not None:
            self.spans[span][2] = end
        self.active = False

    def commit_op(self, scale):
        """Add the operation's times, calibrated by `scale`, to the round."""
        for layer, t in self.layer_self.items():
            self.round_times[f"{layer}.self_s"] += t * scale
        for group, t in self.group_time.items():
            self.round_times[group] += t * scale

    # -- reporting ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the round, without `trace.wall_s` and `cli.out_kb`."""
        out = {}
        for g in list(GROUPS) + ["gluing.final_decompose_s"] + [f"{layer}.self_s" for layer in LAYERS]:
            out[g] = self.round_times[g]
        for metric, names in CALLS.items():
            out[metric] = sum(self.calls[n] for n in names)
        for name in ("gluing.generation_objects", "gluing.generation_homspaces", "decompose.end_dim_sum",
                     "homs.unknowns", "linalg.rref_cells", "quiver.elem_mul_calls", "quiver.algebra_eq_calls"):
            out[name] = self.counters[name]
        tests = out["approx.minimality_tests"]
        out["approx.deletion_yield"] = self.counters["approx.deletions"] / tests if tests else 0.0
        tries = out["decompose.split_tries"]
        out["decompose.split_yield"] = self.counters["decompose.splits"] / tries if tries else 0.0
        built = out["homs.homspace_calls"]
        out["homs.repeat_share"] = self.counters["homs.repeats"] / built if built else 0.0
        return out

    def write_spans(self, path):
        """Write the recorded spans as [name, start_s, end_s, parent index]."""
        with open(path, "w") as fh:
            json.dump({"truncated": len(self.spans) >= MAX_SPANS, "spans": self.spans}, fh)


class _SympyProxy:
    """Stands in for the sympy module inside `decompose`, timing each call."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module
        self._cache = {}

    def __getattr__(self, attr):
        if attr not in self._cache:
            obj = getattr(self._module, attr)
            self._cache[attr] = self._tracer.wrap(f"sympy.{attr}", obj) if callable(obj) else obj
        return self._cache[attr]


def _nearest_span(stack):
    for frame in reversed(stack):
        if frame[3] is not None:
            return frame[3]
    return None


def _function_bindings():
    """id(function) -> [(module, name)] for every siltglue function bound in a loaded module."""
    out = defaultdict(list)
    for module in list(sys.modules.values()):
        for attr, obj in list(getattr(module, "__dict__", {}).items()):
            if inspect.isfunction(obj) and getattr(obj, "__module__", "").startswith("siltglue"):
                out[id(obj)].append((module, attr))
    return out
