"""The benchmark workloads, the timed loop and the metrics.

Each workload builds its inputs from the benchmark seed in ``setup``,
runs one operation in ``op`` (what a user's command does), and checks the
outputs in ``check`` after the timed phase, against an independent oracle
for the first output per input and by equality for repeats.  ``op`` catches
exceptions per operation so one failure is counted instead of ending the
run.

Driven workloads (BENCHMARK.json; see METRICS.md for the layer map):

* pipeline  - one pass of the objective's pipeline: the three parts below
              in turn.
* zero-bond - the ten criterion-08 configurations, the criterion-09
              mu scaling survey and a Janson batch; spectrum and audit idle.

Parts of pipeline, each also runnable alone:

* record    - harness.run_construct (``distgaps construct`` / ``scaling``);
              the witness audit dominates.
* spill     - the ``distgaps spectrum --dump`` path on a point array built
              in set-up, at a 128 MiB budget, so the external
              spill-and-merge engine runs; the only part writing to disk.
* survey    - assemble, packed spectrum and empty_canonical_survey at
              default_k_max (``scripts/survey_empty_intervals.py``); reads
              the spectrum once per level and class.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np

from distgaps import canonical, construction, harness, nobonds, poisson, regions, spectrum
from distgaps.construction import DistanceClass
from distgaps.nobonds import BondSpec
from distgaps.poisson import Seed
from distgaps.regions import Disk, Rectangle

import checks
import tracing

EPSILON = 1e-3
SETUP_REPS = 3

_RECORD = {"n": 1_000_000, "budget": 2 << 30, "warm_n": 10_000}
# 128 MiB makes the external engine run at n = 1e6 (200 MB of distances)
# while its files peak near 400 MB on disk; the default 1 GiB budget needs
# n >= 3e6 and 2.5 GB of free disk
_SPILL = {"n": 1_000_000, "budget": 128 << 20, "warm_points": 1200, "warm_budget": 4 << 20}
_SURVEY = {"n": 1_000_000, "budget": 2 << 30, "warm_n": 10_000}
_TINY_RECORD = {"n": 10_000, "budget": 2 << 30, "warm_n": 10_000}
# the spill budget is cut so that n = 1e5 still spills
_TINY_SPILL = {"n": 100_000, "budget": 4 << 20, "warm_points": 1200, "warm_budget": 4 << 20}
_TINY_SURVEY = {"n": 10_000, "budget": 2 << 30, "warm_n": 10_000}

SIZES = {
    "full": {
        "record": {**_RECORD, "seeds": 2},
        "spill": _SPILL,
        "survey": _SURVEY,
        "pipeline": {"record": {**_RECORD, "seeds": 1}, "survey": _SURVEY, "spill": _SPILL},
        "zero-bond": {"samples": 250_000, "trials": 2000, "survey_samples": 400_000,
                      "instances": 1000},
    },
    "tiny": {       # self-test sizes
        "record": {**_TINY_RECORD, "seeds": 2},
        "spill": _TINY_SPILL,
        "survey": _TINY_SURVEY,
        "pipeline": {"record": {**_TINY_RECORD, "seeds": 1}, "survey": _TINY_SURVEY,
                     "spill": _TINY_SPILL},
        "zero-bond": {"samples": 10_000, "trials": 100, "survey_samples": 400_000,
                      "instances": 20},
    },
}

# criterion 08: (region, density, bond lo, bond hi)
ZERO_BOND_CONFIGS = [
    (Rectangle(0.5, 0.5), 2.0, 0.40, 0.45),
    (Rectangle(0.5, 0.5), 2.0, 0.30, 0.40),
    (Rectangle(0.5, 0.5), 2.0, 0.20, 0.45),
    (Rectangle(0.5, 0.5), 5.0, 0.10, 0.15),
    (Rectangle(0.5, 0.5), 5.0, 0.05, 0.15),
    (Rectangle(0.5, 0.5), 10.0, 0.02, 0.07),
    (Disk(0.5), 5.0, 0.30, 0.40),
    (Disk(0.5), 10.0, 0.70, 0.95),
    (Disk(0.5), 2.0, 0.10, 0.35),
    (Disk(0.5), 10.0, 0.85, 0.90),
]
SURVEY_N = 10**6


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _tmp(name: str) -> str:
    return os.path.join(tempfile.gettempdir(), name)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Record:
    name = "record"

    def __init__(self, size: dict):
        self.n, self.budget, self.warm_n = size["n"], size["budget"], size["warm_n"]
        self.seeds = size["seeds"]

    def setup(self, seed: int) -> dict:
        harness.run_construct(self.warm_n, EPSILON, seed, memory_budget_bytes=self.budget)
        return {"seeds": tuple(range(seed, seed + self.seeds))}

    def op(self, inputs: dict) -> list:
        out = []
        with open(_tmp("records.jsonl"), "a") as fh:
            for s in inputs["seeds"]:
                try:
                    rec = harness.run_construct(self.n, EPSILON, s, memory_budget_bytes=self.budget)
                    fh.write(harness.record_to_json(rec) + "\n")
                    out.append(rec)
                except Exception as exc:     # counted as a failed operation
                    out.append(_failure(exc))
        return out

    def after_op(self, out: list) -> None:
        pass

    def pairs(self, out: list) -> int:
        return sum(r.pair_count for r in out if isinstance(r, harness.RunRecord))

    def check(self, inputs: dict, outs: list, reference: dict) -> tuple[int, list[str]]:
        attempted, bad, seen = 0, [], {}
        for out in outs:
            for s, rec in zip(inputs["seeds"], out):
                attempted += 1
                if isinstance(rec, str):
                    bad.append(f"seed {s}: {rec}")
                    continue
                fields = asdict(rec)
                fields.pop("elapsed_ms")
                if s in seen:
                    if fields != seen[s]:
                        bad.append(f"seed {s}: record differs from an earlier run of the same input")
                    continue
                seen[s] = fields
                pts = construction.assemble(self.n, EPSILON, s).points
                msgs = checks.check_record(
                    rec, pts, checks.oracle_spectrum(pts),
                    checks.reference_entry(reference, self.name, self.n, s))
                if msgs:
                    bad.append(f"seed {s}: " + "; ".join(msgs))
        return attempted, bad


class Spill:
    name = "spill"

    def __init__(self, size: dict):
        self.n, self.budget = size["n"], size["budget"]
        self.warm_points, self.warm_budget = size["warm_points"], size["warm_budget"]

    def setup(self, seed: int) -> dict:
        con = construction.assemble(self.n, EPSILON, seed)
        warm = spectrum.all_pair_distances(con.points[:self.warm_points],
                                           memory_budget_bytes=self.warm_budget)
        spectrum.gap_stats(warm)
        spectrum.write_spectrum(warm, _tmp("warm.bin"))
        warm.close()
        os.remove(_tmp("warm.bin"))
        return {"points": con.points, "D": con.diameter_nominal, "seed": seed}

    def op(self, inputs: dict) -> dict | str:
        points, D = inputs["points"], inputs["D"]
        try:
            spec = spectrum.all_pair_distances(points, memory_budget_bytes=self.budget)
            try:
                gs = spectrum.gap_stats(spec)
                top = spectrum.count_in_range(spec, D - 1.0, D)
                with open(_tmp("spectrum.csv"), "w") as fh:
                    fh.write("points,m,d_min,d_max,gap_sum_sq,max_gap\n"
                             f"{len(points)},{spec.m},{spec.d_min!r},{spec.d_max!r},"
                             f"{gs.gap_sum_sq!r},{gs.max_gap!r}\n")
                spectrum.write_spectrum(spec, _tmp("spectrum.bin"))
                return {"D": D, "m": spec.m, "d_min": spec.d_min,
                        "gap_sum_sq": gs.gap_sum_sq, "max_gap": gs.max_gap,
                        "count_top_interval": top}
            finally:
                spec.close()
        except Exception as exc:
            return _failure(exc)

    def after_op(self, out) -> None:
        # stream the dump once and delete it, so dumps never pile up and
        # the check needs no copy of the spectrum in memory
        path = _tmp("spectrum.bin")
        if isinstance(out, dict):
            out["scan"] = checks.scan_dump(path, out["D"] - 1.0, out["D"])
        if os.path.exists(path):
            os.remove(path)

    def pairs(self, out) -> int:
        return out["m"] if isinstance(out, dict) else 0

    def check(self, inputs: dict, outs: list, reference: dict) -> tuple[int, list[str]]:
        bad, first = [], None
        for out in outs:
            if isinstance(out, str):
                bad.append(out)
            elif first is None:
                first = out
                ref = checks.reference_entry(reference, self.name, self.n, inputs["seed"])
                msgs = checks.check_spill(out, checks.oracle_multiset(inputs["points"]), ref)
                if msgs:
                    bad.append("; ".join(msgs))
            elif out != first:
                bad.append("spill output differs from an earlier run of the same input")
        return len(outs), bad


class Survey:
    name = "survey"

    def __init__(self, size: dict):
        self.n, self.budget, self.warm_n = size["n"], size["budget"], size["warm_n"]
        self.k_max = canonical.default_k_max(self.n)

    def setup(self, seed: int) -> dict:
        con = construction.assemble(self.warm_n, EPSILON, seed)
        spec = spectrum.all_pair_distances(con.points, memory_budget_bytes=self.budget)
        canonical.empty_canonical_survey(spec, self.warm_n, canonical.default_k_max(self.warm_n))
        spec.close()
        return {"seed": seed}

    def op(self, inputs: dict):
        try:
            con = construction.assemble(self.n, EPSILON, inputs["seed"])
            spec = spectrum.all_pair_distances(con.points, memory_budget_bytes=self.budget)
            try:
                rows = canonical.empty_canonical_survey(spec, self.n, self.k_max)
            finally:
                spec.close()
            canonical.survey_to_csv(rows, _tmp("survey.csv"))
            return {"rows": rows, "m": spec.m}
        except Exception as exc:
            return _failure(exc)

    def after_op(self, out) -> None:
        pass

    def pairs(self, out) -> int:
        return out["m"] if isinstance(out, dict) else 0

    def check(self, inputs: dict, outs: list, reference: dict) -> tuple[int, list[str]]:
        bad, first = [], None
        for out in outs:
            if isinstance(out, str):
                bad.append(out)
            elif first is None:
                first = out
                pts = construction.assemble(self.n, EPSILON, inputs["seed"]).points
                ref = checks.reference_entry(reference, self.name, self.n, inputs["seed"])
                msgs = checks.check_survey(out["rows"], checks.oracle_spectrum(pts), self.n,
                                           self.k_max, ref and ref["rows"])
                if msgs:
                    bad.append("; ".join(msgs))
            elif out["rows"] != first["rows"]:
                bad.append("survey rows differ from an earlier run of the same input")
        return len(outs), bad


class ZeroBond:
    name = "zero-bond"
    OPS_PER_PASS = len(ZERO_BOND_CONFIGS) + 3      # configs, two surveys, Janson batch

    def __init__(self, size: dict):
        self.samples, self.trials = size["samples"], size["trials"]
        self.survey_samples, self.instances = size["survey_samples"], size["instances"]

    def setup(self, seed: int) -> dict:
        base = 1000 * seed
        rng = Seed(base + 400).substream("janson").generator()
        instances = [nobonds.random_janson_instance(rng, 12, 0.3) for _ in range(self.instances)]
        region, lam, lo, hi = ZERO_BOND_CONFIGS[0]
        nobonds.estimate_mu_nu(region, lam, BondSpec(lo, hi), 10_000, Seed(base))
        nobonds.empirical_no_bond_prob(region, lam, BondSpec(lo, hi), 100, Seed(base))
        return {"base": base, "instances": instances}

    def op(self, inputs: dict) -> dict:
        base = inputs["base"]
        out: dict = {"verdicts": []}
        with open(_tmp("zero-bond.jsonl"), "a") as fh:
            for i, (region, lam, lo, hi) in enumerate(ZERO_BOND_CONFIGS):
                try:
                    bond = BondSpec(lo, hi)
                    est = nobonds.estimate_mu_nu(region, lam, bond, self.samples, Seed(base + 100 + i))
                    p_hat, ci = nobonds.empirical_no_bond_prob(region, lam, bond, self.trials,
                                                               Seed(base + 200 + i))
                    v = nobonds.check_nobonds(est, p_hat, ci)
                    fh.write(json.dumps({"config": i, "mu": est.mu, "nu": est.nu, **asdict(v)}) + "\n")
                    out["verdicts"].append(v.passed)
                except Exception as exc:
                    out["verdicts"].append(_failure(exc))
            D = construction.nominal_diameter(SURVEY_N)
            try:
                mod = nobonds.mu_scaling_survey(SURVEY_N, EPSILON, DistanceClass.MODERATE,
                                                [(8.0, 3), (16.0, 3), (8.0, 4)],
                                                self.survey_samples, Seed(base + 300))
                mu = {(r.j, r.k): r.mu for r in mod}
                out["moderate"] = (mu[(16.0, 3)] / mu[(8.0, 3)], mu[(8.0, 3)] / mu[(8.0, 4)])
            except Exception as exc:
                out["moderate"] = _failure(exc)
            try:
                large = nobonds.mu_scaling_survey(SURVEY_N, EPSILON, DistanceClass.LARGE,
                                                  [(D - 16.0, 3), (D - 32.0, 3), (D - 64.0, 3)],
                                                  2 * self.survey_samples, Seed(base + 301))
                mul = {round(D - r.j): r.mu for r in large}
                out["large"] = (mul[32] / mul[16], mul[64] / mul[32])
            except Exception as exc:
                out["large"] = _failure(exc)
            fh.write(json.dumps({"moderate": out["moderate"], "large": out["large"]}) + "\n")
            try:
                out["janson_holds"] = [nobonds.janson_exact(inst).bounds_hold
                                       for inst in inputs["instances"]]
            except Exception as exc:
                out["janson_holds"] = _failure(exc)
            fh.write(json.dumps({"janson_failures": out["janson_holds"].count(False)
                                 if isinstance(out["janson_holds"], list) else None}) + "\n")
        return out

    def after_op(self, out) -> None:
        pass

    def pairs(self, out) -> int:
        # centre-partner pairs drawn by the mu/nu estimator (a y and a z
        # partner per sample): ten configs, 3 moderate survey points, and
        # 3 large ones at twice the samples
        return 2 * (len(ZERO_BOND_CONFIGS) * self.samples + 3 * self.survey_samples
                    + 3 * 2 * self.survey_samples)

    def check(self, inputs: dict, outs: list, reference: dict) -> tuple[int, list[str]]:
        bad, first = [], None
        for out in outs:
            msgs = checks.check_zero_bond(out)
            bad += msgs
            if first is None:
                first = out
            elif not msgs and out != first:
                bad.append("zero-bond output differs from an earlier run of the same input")
        return self.OPS_PER_PASS * len(outs), bad


class Pipeline:
    """The objective's whole pipeline per seed s, as the commands run it:
    ``distgaps construct`` (record, seed s), the survey script (seed s+1)
    and ``distgaps spectrum --dump`` (spill, seed s+2).  One operation runs
    all three, so one run measures them over a long enough window to be
    steady on a host whose speed drifts."""

    name = "pipeline"

    def __init__(self, size: dict):
        self.parts = [Record(size["record"]), Survey(size["survey"]), Spill(size["spill"])]
        self._seed_offset = [0, 1, 2]

    def setup(self, seed: int) -> list:
        return [p.setup(seed + k) for p, k in zip(self.parts, self._seed_offset)]

    def op(self, inputs: list) -> list:
        return [p.op(i) for p, i in zip(self.parts, inputs)]

    def after_op(self, out: list) -> None:
        for p, o in zip(self.parts, out):
            p.after_op(o)

    def pairs(self, out: list) -> int:
        return sum(p.pairs(o) for p, o in zip(self.parts, out))

    def check(self, inputs: list, outs: list, reference: dict) -> tuple[int, list[str]]:
        attempted, bad = 0, []
        for k, (p, i) in enumerate(zip(self.parts, inputs)):
            a, b = p.check(i, [o[k] for o in outs], reference)
            attempted += a
            bad += [f"{p.name}: {m}" for m in b]
        return attempted, bad


WORKLOADS = {w.name: w for w in (Pipeline, ZeroBond, Record, Spill, Survey)}


# ---------------------------------------------------------------------------
# Tracing targets
# ---------------------------------------------------------------------------


def trace_targets() -> list:
    C, M = tracing.Count, tracing.Many
    h, nb, cons = harness, nobonds, construction
    return [
        ("harness.run_construct", [(h, "run_construct")], None),
        ("construction.assemble", [(cons, "assemble"), (h, "assemble")],
         C("construction.points", lambda a, r: len(r.points))),
        ("construction.close_pairs", [(cons, "close_pairs"), (nb, "close_pairs")],
         C("construction.close_pairs_calls")),
        ("poisson.sample_poisson", [(poisson, "sample_poisson"), (nb, "sample_poisson")],
         C("poisson.sample_poisson_calls")),
        ("poisson.uniform_in_region", [(poisson, "uniform_in_region"), (nb, "uniform_in_region")],
         tracing.AcceptProbe(regions)),
        ("regions.contains", [(regions, "contains")],
         C("regions.contains_points", lambda a, r: np.asarray(a["p"]).size // 2)),
        ("spectrum.all_pair_distances", [(spectrum, "all_pair_distances"), (h, "all_pair_distances")],
         tracing.SpectrumProbe(np.memmap)),
        ("spectrum.gap_stats", [(spectrum, "gap_stats"), (h, "gap_stats")], None),
        ("spectrum.count_in_range", [(spectrum, "count_in_range"), (h, "count_in_range")], None),
        ("spectrum.write_spectrum", [(spectrum, "write_spectrum")], None),
        ("spectrum.close", [(spectrum.DistanceSpectrum, "close")], None),
        ("canonical.audit_gap_witnesses", [(canonical, "audit_gap_witnesses")],
         M(C("canonical.positive_gaps", lambda a, r: r.positive_gap_count),
           C("canonical.crossing_gaps", lambda a, r: r.crossing_count))),
        ("canonical.empty_canonical_survey", [(canonical, "empty_canonical_survey")],
         C("canonical.levels", lambda a, r: len(r))),
        ("nobonds.count_bonds", [(nb, "count_bonds")], C("nobonds.count_bonds_calls")),
        ("nobonds.empirical_no_bond_prob", [(nb, "empirical_no_bond_prob")],
         C("nobonds.trials", lambda a, r: a["trials"])),
        ("nobonds.estimate_mu_nu", [(nb, "estimate_mu_nu")],
         C("nobonds.mc_samples", lambda a, r: a["samples"])),
        ("nobonds.mu_scaling_survey", [(nb, "mu_scaling_survey")], None),
        ("nobonds.janson_exact", [(nb, "janson_exact")],
         C("nobonds.janson_subsets", lambda a, r: 2 ** len(a["instance"].probs))),
    ]


# ---------------------------------------------------------------------------
# Timed loop and metrics
# ---------------------------------------------------------------------------


def timed_loop(wl, inputs: dict, seconds: float, tracer=None) -> list[dict]:
    """Operations back to back while the next one is expected to end within
    ``seconds`` of summed wall time (at least one).  Per operation: output,
    wall time, pairs and bytes written."""
    runs: list[dict] = []
    busy = 0.0
    while not runs or busy + busy / len(runs) <= seconds:
        scope = tracer.operation(len(runs)) if tracer is not None else nullcontext()
        w0 = tracing.read_wchar()
        t0 = time.perf_counter()
        with scope:
            out = wl.op(inputs)
        wall = time.perf_counter() - t0
        written = tracing.read_wchar() - w0
        wl.after_op(out)
        runs.append({"out": out, "wall": wall, "pairs": wl.pairs(out), "written": written})
        busy += wall
    return runs


def end_to_end(runs: list[dict], peak_mb: float, setup_s: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r["wall"] for r in runs),
        "pairs_per_s": statistics.median(r["pairs"] / r["wall"] for r in runs),
        "peak_rss_mb": peak_mb,
        "write_mb": statistics.median(r["written"] for r in runs) / 2**20,
        "setup_s": setup_s,
    }


def per_layer(tracer, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    s = tracer.summary(len(traced))
    counts = dict(tracer.counts)
    traced_wall = statistics.fmean(r["wall"] for r in traced)
    untraced_wall = statistics.fmean(r["wall"] for r in untraced)
    layers_self = sum(v for k, v in s.items()
                      if k.startswith("self:") and k != f"self:{tracing.ROOT_SPAN}")
    drawn = counts.get("poisson.points_drawn", 0.0)
    calls = counts.get("spectrum.calls", 0.0)
    out = {k: v for k, v in s.items() if not k.startswith("self:")}
    out.pop(f"{tracing.ROOT_SPAN}_s", None)
    out.pop("poisson.box_draws_expected", None)
    out.pop("spectrum.calls", None)
    out.update({
        "harness.self_s": s.get("self:harness.run_construct", 0.0),
        "poisson.accept_ratio": drawn / counts["poisson.box_draws_expected"] if drawn else 0.0,
        "spectrum.engine": counts.get("spectrum.engine", 0.0) / calls if calls else 0.0,
        "trace.wall_s": traced_wall,
        "trace.layers_self_s": layers_self,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, size: dict,
        import_s: float, reference: dict, trace_path: str | None = None) -> dict:
    """One benchmark run.  Returns the metrics (end-to-end or per-layer),
    operation counts and the failure messages."""
    wl = WORKLOADS[workload](size[workload])
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    if trace:
        tracer = tracing.Tracer()
        tracer.install(trace_targets())
        try:
            traced = timed_loop(wl, inputs, seconds, tracer)
        finally:
            tracer.uninstall()
        untraced = timed_loop(wl, inputs, seconds)
        runs = traced + untraced
        metrics = per_layer(tracer, traced, untraced)
        if trace_path:
            tracer.write(trace_path)
    else:
        runs = timed_loop(wl, inputs, seconds)
        metrics = end_to_end(runs, tracing.max_rss_mb(), setup_s)

    attempted, failures = wl.check(inputs, [r["out"] for r in runs], reference)
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures),
            "failures": failures, "ops": len(runs)}
