"""Runs one round of a workload's operations in a fresh process.

    python3 siltbench/worker.py --inputs DIR --out RESULT.json [--trace 1 [--spans SPANS.json]]

The operations run one at a time, in manifest order.  Each is bracketed by
the calibration reference; the reference after an operation is the one
before the next.  With `--trace 1` the program is wrapped by
`tracing.Tracer` before the inputs are loaded, and the per-layer metrics of
the load phase and of the round are recorded.
"""

import argparse
import json
import os
import resource
import time
import traceback

from reference import NOMINAL_S, time_reference

import ops  # imports the program


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    out_path = os.path.abspath(args.out)
    spans_path = args.spans and os.path.abspath(args.spans)
    os.chdir(args.inputs)  # CLI operations name their files relative to the inputs

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.record = bool(spans_path)

    ref_prev = time_reference()
    if tracer:
        tracer.begin_op("bench.load")
    t0 = time.perf_counter()
    inputs = ops.Inputs(".")
    load_raw = time.perf_counter() - t0
    if tracer:
        tracer.end_op()
    ref_next = time_reference()
    load_scale = 2 * NOMINAL_S / (ref_prev + ref_next)
    result = {"load_raw_s": load_raw, "load_cal_s": load_raw * load_scale}
    if tracer:
        tracer.commit_op(load_scale)
        result["load_layers"] = tracer.metrics()
        tracer.reset()

    records, outputs, out_bytes = [], [], 0
    ref_prev = ref_next
    for i, op in enumerate(inputs.ops):
        ops.prepare(inputs, i, outputs)
        if tracer:
            tracer.begin_op(f"bench.op{i}.{op['kind']}")
        error = None
        t0 = time.perf_counter()
        try:
            res = ops.run_op(inputs, i)
        except Exception:  # an operation that raises counts as failed
            res, error = None, traceback.format_exc(limit=8)
        raw = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        ref_next = time_reference()
        scale = 2 * NOMINAL_S / (ref_prev + ref_next)
        ref_prev = ref_next
        if tracer:
            tracer.commit_op(scale)
        summary = {"error": error} if error else ops.summarize(inputs, i, res)
        out_bytes += summary.get("stdout_bytes", 0)
        outputs.append(summary)
        records.append({"kind": op["kind"], "raw_s": raw, "cal_s": raw * scale})

    result.update(
        wall_s=sum(r["cal_s"] for r in records),
        raw_s=sum(r["raw_s"] for r in records),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=records,
        outputs=outputs,
    )
    if tracer:
        result["layers"] = dict(tracer.metrics(), **{"trace.wall_s": result["wall_s"], "cli.out_kb": out_bytes / 1024})
        if spans_path:
            tracer.write_spans(spans_path)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
