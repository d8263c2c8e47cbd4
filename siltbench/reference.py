"""Fixed pure-Python reference workload used to calibrate every timed region.

The machine's speed drifts over seconds, so a raw wall time says as much
about the machine as about the program.  Each timed region is bracketed by
runs of `reference()` before and after, in the same interpreter, and its
time is rescaled to the speed at which `reference()` takes `NOMINAL_S`
seconds.  The workload mixes `Fraction` arithmetic on a small dict with
building and scanning a dict of a few thousand string keys, tuples and
lists: the arithmetic, hashing and allocation the program and its imports
spend their time on.  It never imports the program, so no change to the
program can move it.
"""

import gc
import time
from fractions import Fraction

NOMINAL_S = 0.020  # one reference second: `reference()` takes 15-30 ms on a 2-core cloud VM


def reference():
    """The fixed reference work; returns a checksum so nothing is optimised out."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 500):
        key = (i * 7919) % 211
        val = Fraction(i % 23 - 11, 1 + i % 7)
        table[key] = table.get(key, Fraction(0)) + val
        acc += val * table[key]
    words = {}
    for i in range(12000):
        words[f"k{i * 7919 % 100003}"] = (i, str(i), [i])
    total = sum(words[k][0] for k in list(words)[::7])
    return sum(table.values()) + acc + total


def time_reference(repeats=1):
    """Seconds for one `reference()`: the median of `repeats` runs.

    The cyclic garbage collector is paused while it runs, so that when a
    collection falls is not part of the reading; everything the reference
    allocates is freed by reference counting.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]


def calibrate(raw_s, ref_before_s, ref_after_s):
    """Rescale a raw time by the mean of the bracketing reference times."""
    return raw_s * 2.0 * NOMINAL_S / (ref_before_s + ref_after_s)
