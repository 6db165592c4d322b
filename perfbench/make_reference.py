#!/usr/bin/env python3
"""Record the reference values the benchmark checks against.

    python3 perfbench/make_reference.py [--seeds 1-12]

Writes perfbench/reference.json from the library at the current commit,
at the benchmark's full sizes:

* record - realized_points, count_top_interval, m and gap_sum_sq of
  harness.run_construct (2 GiB budget) per seed;
* spill  - m and gap_sum_sq of the point set, from the packed engine
  (2 GiB budget), which the spill workload's external engine must match;
* survey - the empty_canonical_survey rows per seed.

Run it only to re-anchor the benchmark on a commit whose outputs are
known to be right; the checks then hold later commits to these values.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-12", help="inclusive range, e.g. 1-12")
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    run.pin_threads()
    run.import_library()
    import bench
    from distgaps import canonical, construction, harness, spectrum

    sizes = bench.SIZES["full"]
    eps = bench.EPSILON
    packed = 2 << 30
    ref: dict = {"record": {}, "spill": {}, "survey": {}}
    for seed in range(lo, hi + 1):
        n = sizes["record"]["n"]
        rec = harness.run_construct(n, eps, seed, memory_budget_bytes=sizes["record"]["budget"])
        ref["record"].setdefault(str(n), {})[str(seed)] = {
            "realized_points": rec.realized_points, "count_top_interval": rec.count_top_interval,
            "m": rec.pair_count, "gap_sum_sq": rec.gap_sum_sq}

        n = sizes["spill"]["n"]
        con = construction.assemble(n, eps, seed)
        spec = spectrum.all_pair_distances(con.points, memory_budget_bytes=packed)
        ref["spill"].setdefault(str(n), {})[str(seed)] = {
            "m": spec.m, "gap_sum_sq": spectrum.gap_stats(spec).gap_sum_sq}
        del spec, con

        n = sizes["survey"]["n"]
        con = construction.assemble(n, eps, seed)
        spec = spectrum.all_pair_distances(con.points, memory_budget_bytes=sizes["survey"]["budget"])
        rows = canonical.empty_canonical_survey(spec, n, canonical.default_k_max(n))
        ref["survey"].setdefault(str(n), {})[str(seed)] = {
            "rows": [[r.dist_class.value, r.k, r.count_empty, r.sum_sq] for r in rows]}
        del spec, con
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)

    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
