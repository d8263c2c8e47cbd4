"""siltglue benchmark: one workload, one seed, checked outputs, one JSON line.

    python3 siltbench/run.py --workload glue-ladder --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Steps: generate the seed's inputs (`gen.py`); with `--trace 0`, time set-up
in fresh interpreters (`probe.py`); run rounds of the operations, each in a
fresh worker process (`worker.py`), at least `MIN_ROUNDS` and more while the
next one would end within `--seconds`; check every output (`checks.py`, outside
any timed region); print the result.  Every time is calibrated (`reference.py`).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Everything a run writes goes to `siltbench/out/<workload>-seed<n>-trace<t>/`.
`--corrupt` damages one output before the checks, to show they catch it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("src/siltglue/__init__.py", "src/siltglue/cli.py", "tests/oracle.py")
WORKLOADS = ("glue-ladder", "hom-sweep", "envelope-mix")
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
# glue-ladder's 36 operations vary by 5-10% each from round to round, too few to
# average out in one round; the other workloads have over 100 operations
MIN_ROUNDS = {"glue-ladder": 2}
DEADLINE_S = 170  # a run must end within 180 s


def probe_setup(inputs_dir, n):
    """Raw and calibrated set-up times of n fresh interpreters, after a warm-up one."""
    runs = []
    for i in range(n + 1):
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), inputs_dir],
            capture_output=True, text=True, check=True, timeout=60,
        )
        if i:  # the first one warms the bytecode cache
            runs.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return runs


def corrupt(workload, manifest, outputs):
    """Damage the first output of a checked kind (`--corrupt`)."""
    for op, out in zip(manifest["ops"], outputs):
        if workload == "hom-sweep":
            k = next(iter(out["dims"]))
            out["dims"][k] += 1  # one Hom dimension off by one
            return
        if workload == "glue-ladder" and op["kind"] == "glue":
            cx = out["report"]["decomposition"][0]["complex"]  # one glued summand shifted
            cx["components"] = {str(int(n) - 1): vs for n, vs in cx["components"].items()}
            return
        if workload == "envelope-mix" and out.get("s") is not None:
            out["s"] += 1
            return


def end_to_end(rounds, probes):
    per_op = [statistics.median(r["ops"][i]["cal_s"] for r in rounds) for i in range(len(rounds[0]["ops"]))]
    return {
        "setup_s": {"value": statistics.median(p["cal_s"] for p in probes), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "op_p50_ms": {"value": 1000 * statistics.median(per_op), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
    }


def per_layer(rounds):
    """Load phase plus round: times as medians over rounds, counts of the first round."""
    from tracing import PER_LAYER

    first = rounds[0]
    out = {}
    for name, (unit, _better) in PER_LAYER.items():
        if unit == "s":
            value = statistics.median(r["load_layers"].get(name, 0.0) + r["layers"][name] for r in rounds)
        elif unit == "ratio" or name == "cli.out_kb":
            value = first["layers"][name]
        else:
            value = first["load_layers"].get(name, 0) + first["layers"][name]
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()
    started = time.monotonic()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"siltbench: not a siltglue checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    inputs_dir = os.path.join(out_dir, "inputs")
    shutil.rmtree(out_dir, ignore_errors=True)
    import gen

    manifest = gen.generate(args.workload, args.seed, inputs_dir)
    input_hash = gen.input_hash(inputs_dir)
    probes = [] if args.trace else probe_setup(inputs_dir, SETUP_PROBES)

    rounds = []
    measure_start = time.monotonic()
    while True:
        path = os.path.join(out_dir, f"worker{len(rounds)}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--inputs", inputs_dir, "--out", path,
               "--trace", str(args.trace)]
        if args.trace and not rounds:
            cmd += ["--spans", os.path.join(out_dir, "spans.json")]
        round_start = time.monotonic()
        try:
            subprocess.run(cmd, check=True, timeout=DEADLINE_S - (round_start - started))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"siltbench: worker failed: {exc}", file=sys.stderr)
            return 1
        with open(path) as fh:
            rounds.append(json.load(fh))
        now = time.monotonic()
        if len(rounds) >= MIN_ROUNDS.get(args.workload, 1) and now - measure_start + (now - round_start) > args.seconds:
            break
        if now - started + (now - round_start) > DEADLINE_S:
            break

    from checks import check_all

    outputs = rounds[0]["outputs"]
    if args.corrupt:
        corrupt(args.workload, manifest, outputs)
    verdicts = check_all(inputs_dir, manifest, outputs)
    for i, r in enumerate(rounds[1:], 1):
        for j, out in enumerate(r["outputs"]):
            if verdicts[j] is None and out != rounds[0]["outputs"][j]:
                verdicts[j] = ("wrong", f"round {i} output differs from round 0")
    failed = sum(1 for v in verdicts if v)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, probes)
    result = {
        "correct": not any(v and v[0] == "wrong" for v in verdicts),
        "attempted": len(rounds) * len(verdicts),
        "failed": len(rounds) * failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        record = {"result": result, "input_sha256": input_hash, "probes": probes, "verdicts": verdicts,
                  "rounds": [{k: v for k, v in r.items() if k != "outputs"} for r in rounds]}
        json.dump(record, fh, indent=1)
    for i, v in enumerate(verdicts):
        if v:
            print(f"siltbench: op {i} ({manifest['ops'][i]['kind']}) {v[0]}: {v[1]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
