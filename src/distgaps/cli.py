"""Command-line interface.

Exit codes: 0 on success, 1 on an invariant/audit failure, 2 on bad
configuration or arguments.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import canonical, construction, harness, nobonds, spectrum as spectrum_mod
from .errors import ConfigError, DistgapsError, InvariantViolation
from .nobonds import BondSpec
from .poisson import Seed
from .regions import region_from_dict


def _add_common_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--memory-budget", type=int, default=spectrum_mod.DEFAULT_MEMORY_BUDGET,
                   help="spectrum memory budget in bytes")


def _check_destination(path: str | None) -> None:
    """Fail before any work when a file cannot be created at ``path``:
    its directory is missing or it names a directory."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {path}: no directory {parent}")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="distgaps")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="assemble one construction and report its record")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="write the point set here (x y part lines)")
    _add_common_budget(p)

    p = sub.add_parser("spectrum", help="spectrum summary for an exported point file")
    p.add_argument("--points-file", required=True)
    p.add_argument("--out", help="CSV summary destination (default: stdout)")
    p.add_argument("--dump", help="binary spectrum dump destination")
    _add_common_budget(p)

    p = sub.add_parser("scaling", help="gap-sum scaling fit over an n grid")
    p.add_argument("--grid", type=int, nargs="+")
    p.add_argument("--seeds", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--base-seed", type=int)
    p.add_argument("--config", help="YAML config; flags override its values")
    p.add_argument("--out", help="write per-run CSV records here")
    _add_common_budget(p)
    p.set_defaults(memory_budget=None)     # unset flags fall back to the config

    p = sub.add_parser("nobonds-verify", help="zero-bond bracket check on one configuration")
    p.add_argument("--region", required=True, help='tagged JSON, e.g. {"kind":"disk","radius":1}')
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--bond-lo", type=float, required=True)
    p.add_argument("--bond-hi", type=float, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("janson-verify", help="exact Janson bracket on random edge systems")
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--max-ground-set", type=int, default=12)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("canonical-audit", help="witness audit of a binary spectrum dump")
    p.add_argument("--spectrum-file", required=True)
    return ap


def _cmd_construct(args) -> int:
    _check_destination(args.out)
    cfg = harness.HarnessConfig(
        n_grid=[args.n], seeds_per_n=1, epsilon=args.epsilon, base_seed=args.seed,
        memory_budget_bytes=args.memory_budget,
    )
    t0 = time.perf_counter()
    con = construction.assemble(args.n, args.epsilon, Seed(args.seed))
    rec = harness.record_from_construction(con, memory_budget_bytes=args.memory_budget,
                                           started_at=t0)
    if args.out:
        construction.export_points(con, args.out)
    print(harness.record_to_json(rec, cfg))
    return 0


def _cmd_spectrum(args) -> int:
    _check_destination(args.out)
    _check_destination(args.dump)
    pts, _, meta = construction.load_points(args.points_file)
    spec = spectrum_mod.all_pair_distances(pts, memory_budget_bytes=args.memory_budget)
    gs = spectrum_mod.gap_stats(spec)
    header = "points,m,d_min,d_max,gap_sum_sq,max_gap"
    line = (f"{len(pts)},{spec.m},{spec.d_min!r},{spec.d_max!r},"
            f"{gs.gap_sum_sq!r},{gs.max_gap!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(header + "\n" + line + "\n")
    else:
        print(header)
        print(line)
    if args.dump:
        spectrum_mod.write_spectrum(spec, args.dump)
    return 0


def _cmd_scaling(args) -> int:
    cfg = harness.load_config(args.config) if args.config else harness.HarnessConfig()
    flags = {
        "n_grid": args.grid, "seeds_per_n": args.seeds, "epsilon": args.epsilon,
        "base_seed": args.base_seed, "memory_budget_bytes": args.memory_budget,
        "out_csv": args.out,
    }
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    _check_destination(cfg.out_csv)
    _check_destination(cfg.out_json)
    records: list[harness.RunRecord] = []
    fit = harness.run_scaling(
        cfg.n_grid, cfg.seeds_per_n, cfg.epsilon,
        base_seed=cfg.base_seed,
        memory_budget_bytes=cfg.memory_budget_bytes,
        records_out=records,
    )
    if cfg.out_csv:
        harness.write_records_csv(records, cfg.out_csv)
    result = json.dumps({**dataclasses.asdict(fit), "config_hash": cfg.config_hash()})
    if cfg.out_json:
        with open(cfg.out_json, "w") as fh:
            fh.write(result + "\n")
    print(result)
    return 0


def _cmd_nobonds(args) -> int:
    try:
        region = region_from_dict(json.loads(args.region))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad region JSON: {exc}") from exc
    bond = BondSpec(args.bond_lo, args.bond_hi)
    est = nobonds.estimate_mu_nu(region, args.density, bond, args.samples, Seed(args.seed))
    p_hat, ci = nobonds.empirical_no_bond_prob(region, args.density, bond,
                                               args.trials, Seed(args.seed))
    verdict = nobonds.check_nobonds(est, p_hat, ci)
    print(json.dumps({**dataclasses.asdict(est), **dataclasses.asdict(verdict),
                      "trials": args.trials, "seed": args.seed}))
    return 0 if verdict.passed else 1


def _cmd_janson(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {args.instances}")
    rng = Seed(args.seed).substream("janson").generator()
    failures = 0
    half_exponent_failures = 0
    for _ in range(args.instances):
        inst = nobonds.random_janson_instance(rng, args.max_ground_set)
        res = nobonds.janson_exact(inst)
        if not res.bounds_hold:
            failures += 1
        if not res.bounds_hold_half_exponent:
            half_exponent_failures += 1
    print(json.dumps({
        "instances": args.instances,
        "max_ground_set": args.max_ground_set,
        "failures": failures,
        "half_exponent_failures": half_exponent_failures,
        "seed": args.seed,
    }))
    return 0 if failures == 0 else 1


def _cmd_canonical_audit(args) -> int:
    spec = spectrum_mod.read_spectrum(args.spectrum_file)
    audit = canonical.audit_gap_witnesses(spec)
    print(json.dumps({
        "gap_sum_sq": audit.gap_sum_sq,
        "witness_sum_sq": audit.witness_sum_sq,
        "holds": audit.holds,
        "positive_gaps": audit.positive_gap_count,
        "crossing_gaps": audit.crossing_count,
        "crossing_gap_sum_sq": audit.crossing_gap_sum_sq,
        "crossing_witness_sum_sq": audit.crossing_witness_sum_sq,
    }))
    return 0 if audit.holds else 1


_HANDLERS = {
    "construct": _cmd_construct,
    "spectrum": _cmd_spectrum,
    "scaling": _cmd_scaling,
    "nobonds-verify": _cmd_nobonds,
    "janson-verify": _cmd_janson,
    "canonical-audit": _cmd_canonical_audit,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.cmd](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, DistgapsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
