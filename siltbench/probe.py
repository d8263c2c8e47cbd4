"""Set-up probe: one fresh interpreter, timed from its first line.

    python3 siltbench/probe.py INPUT_DIR

Times `import siltglue.cli` (through `ops`) plus loading every input of the
workload, bracketed by the calibration reference, and prints one JSON line
with the raw and the calibrated seconds.
"""

import json
import sys
import time

from reference import calibrate, time_reference

PROBE_REPEATS = 3

time_reference()  # warm-up: the first run in a fresh interpreter is slow
ref_before = time_reference(PROBE_REPEATS)
t0 = time.perf_counter()
import ops  # noqa: E402  (the import is what is being timed)

ops.Inputs(sys.argv[1])
raw = time.perf_counter() - t0
ref_after = time_reference(PROBE_REPEATS)
print(json.dumps({"raw_s": raw, "cal_s": calibrate(raw, ref_before, ref_after)}))
