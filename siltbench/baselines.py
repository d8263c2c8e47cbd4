"""Reference figures from the roadmap's first baselines, raw and calibrated.

    python3 siltbench/baselines.py

Not a workload: it times `decompose` of the glued set after `glue` on the
linear quivers A6 (S = {5, 6}), A7 (S = {6, 7}) and A8 (S = {6, 7, 8}), and
`HomSpace(X, X)` for a 22-summand complex over A7 made by `gen.py`.  Each
timed call is bracketed by the calibration reference; the median of the
repeats is printed, raw and calibrated, one JSON line per figure.
"""

import json
import random
import statistics
import time

from reference import calibrate, time_reference

import gen
from siltglue.complexes import direct_sum_many
from siltglue.decompose import decompose
from siltglue.fixtures import canonical_quotient_silting
from siltglue.gluing import canonical_corner_silting, glue
from siltglue.homs import HomSpace
from siltglue.quiver import build_algebra
from siltglue.recollement import idempotent_recollement


def timed(fn, repeats):
    raws, cals = [], []
    for _ in range(repeats):
        before = time_reference(3)
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        after = time_reference(3)
        raws.append(raw)
        cals.append(calibrate(raw, before, after))
    return {"raw_s": statistics.median(raws), "cal_s": statistics.median(cals), "repeats": repeats}


def main():
    for n, S, repeats in ((6, ["5", "6"], 3), (7, ["6", "7"], 3), (8, ["6", "7", "8"], 1)):
        rec = idempotent_recollement(build_algebra(gen.linear_quiver(n)), S)
        cert = glue(rec, [canonical_corner_silting(rec)], [canonical_quotient_silting(rec)], decompose_result=False)
        total = direct_sum_many(rec.A, cert.T)
        fig = timed(lambda: decompose(total), repeats)
        print(json.dumps(dict(figure=f"decompose after glue, A{n} S={{{','.join(S)}}}", **fig)), flush=True)
    A7 = build_algebra(gen.linear_quiver(7))
    X = gen.random_complex(random.Random("baseline:a7"), A7, 22, (-1, 0, 1))
    fig = timed(lambda: HomSpace(X, X, 0), 3)
    print(json.dumps(dict(figure=f"HomSpace(X, X), {X.summand_count()}-summand complex over A7", **fig)))


if __name__ == "__main__":
    main()
