#!/usr/bin/env python3
"""Empty canonical-interval survey for one construction.

Builds the construction, computes the spectrum, and tabulates empty dyadic
cells per (distance class, level), writing the table as CSV
(class,k,count_empty,sum_sq).  Recorded for cross-seed comparison; the
coarse-level counts at desk scales are far from their asymptotic regime,
so nothing is asserted here.

Usage:
    python scripts/survey_empty_intervals.py [--n 100000] [--seed 1]
        [--epsilon 1e-3] [--k-max auto] [--out survey.csv]
        [--budget-gib 2.0]
"""
import argparse
import sys

from distgaps.canonical import default_k_max, empty_canonical_survey, survey_to_csv
from distgaps.construction import assemble
from distgaps.poisson import Seed
from distgaps.spectrum import all_pair_distances


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--k-max", default="auto")
    ap.add_argument("--out", default="survey.csv")
    ap.add_argument("--budget-gib", type=float, default=2.0)
    args = ap.parse_args(argv)

    k_max = default_k_max(args.n) if args.k_max == "auto" else int(args.k_max)
    con = assemble(args.n, args.epsilon, Seed(args.seed))
    spec = all_pair_distances(
        con.points, memory_budget_bytes=int(args.budget_gib * (1 << 30))
    )
    m = spec.m
    try:
        rows = empty_canonical_survey(spec, args.n, k_max)
    finally:
        spec.close()      # a file-backed spectrum is emptied here
    survey_to_csv(rows, args.out)

    print(f"n={args.n} seed={args.seed} points={con.realized_points} "
          f"m={m} k_max={k_max} -> {args.out}")
    print(f"{'class':>12} {'k':>3} {'count_empty':>12} {'sum_sq':>12}")
    for r in rows:
        print(f"{r.dist_class.value:>12} {r.k:>3} {r.count_empty:>12} {r.sum_sq:>12.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
