#!/usr/bin/env python3
"""Probabilistic engine verification: Janson enumeration, the zero-bond
bracket on standard regions, and the bond-count scaling survey.

Usage:
    python scripts/verify_probabilistic_engine.py [--instances 1000]
        [--trials 10000] [--samples 1000000] [--seed 1]
"""
import argparse
import sys

from distgaps.construction import DistanceClass, nominal_diameter
from distgaps.nobonds import (
    CRITERION_08_CONFIGS,
    BondSpec,
    check_nobonds,
    empirical_no_bond_prob,
    estimate_mu_nu,
    janson_exact,
    mu_scaling_survey,
    random_janson_instance,
)
from distgaps.poisson import Seed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=1000)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--samples", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print("== exact Janson enumeration ==")
    rng = Seed(args.seed).substream("janson").generator()
    fail_valid = fail_half = 0
    for _ in range(args.instances):
        res = janson_exact(random_janson_instance(rng, 12, 0.3))
        fail_valid += not res.bounds_hold
        fail_half += not res.bounds_hold_half_exponent
    print(f"ordered-pair exponent 2nu/(2-2e): {args.instances - fail_valid}"
          f"/{args.instances} hold")
    print(f"half exponent nu/(2-2e):          {args.instances - fail_half}"
          f"/{args.instances} hold (not a theorem; see README)")

    print("\n== zero-bond bracket: e^-mu <= P[B=0] <= e^(-mu+nu) ==")
    print(f"{'region':>10} {'lam':>5} {'bond':>14} {'mu':>8} {'nu':>8} "
          f"{'p_hat':>8} {'lower':>8} {'upper':>8} {'pass':>5}")
    for i, (region, lam, lo, hi) in enumerate(CRITERION_08_CONFIGS):
        bond = BondSpec(lo, hi)
        est = estimate_mu_nu(region, lam, bond, args.samples, Seed(100 + i))
        p_hat, ci = empirical_no_bond_prob(region, lam, bond, args.trials, Seed(200 + i))
        v = check_nobonds(est, p_hat, ci)
        name = type(region).__name__
        print(f"{name:>10} {lam:>5.1f} [{lo:>5.2f},{hi:>5.2f}) {est.mu:>8.4f} "
              f"{est.nu:>8.4f} {p_hat:>8.4f} {v.lower:>8.4f} {v.upper:>8.4f} "
              f"{'yes' if v.passed else 'NO':>5}")

    print("\n== bond-count scaling survey at n = 1e6, eps = 1e-3 ==")
    n, eps = 10**6, 1e-3
    D = nominal_diameter(n)
    mod = mu_scaling_survey(n, eps, DistanceClass.MODERATE,
                            [(8.0, 3), (16.0, 3), (8.0, 4)], args.samples, Seed(300))
    large = mu_scaling_survey(n, eps, DistanceClass.LARGE,
                              [(D - 16.0, 3), (D - 32.0, 3), (D - 64.0, 3)],
                              2 * args.samples, Seed(301))
    print(f"{'class':>9} {'j':>10} {'k':>2} {'mu':>11} {'stderr':>9} "
          f"{'mu/order':>9} {'nu/mu':>8}")
    for r in mod + large:
        print(f"{r.dist_class.value:>9} {r.j:>10.1f} {r.k:>2} {r.mu:>11.5f} "
              f"{r.mu_stderr:>9.2e} {r.ratio:>9.4f} {r.nu_over_mu:>8.4f}")
    mu_mod = {(r.j, r.k): r.mu for r in mod}
    mu_lrg = {round(D - r.j): r.mu for r in large}
    print(f"moderate j-doubling ratio: {mu_mod[(16.0, 3)] / mu_mod[(8.0, 3)]:.4f} (target 2)")
    print(f"moderate k-step ratio:     {mu_mod[(8.0, 3)] / mu_mod[(8.0, 4)]:.4f} (target 2)")
    print(f"large doubling ratios:     {mu_lrg[32] / mu_lrg[16]:.4f}, "
          f"{mu_lrg[64] / mu_lrg[32]:.4f} (target 2^1.25 = {2**1.25:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
