#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes (n = 1e4, 100 trials; spill at n = 1e5
on a 4 MiB budget so it still spills), untraced and traced, and asserts
that each run prints every metric BENCHMARK.json names, with its unit,
and reports no failure.  Then it hands the checkers deliberately corrupted
outputs (a swapped pair and a one-ulp change in a spectrum dump, a
flipped ``holds``, a perturbed survey row) and asserts that each is reported.  Last, it runs
the benchmark in a directory holding only BENCHMARK.json and perfbench/
and asserts that it fails without printing a result.  About a minute.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

run.pin_threads()
run.import_library()

import numpy as np  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
from distgaps import canonical, construction, harness, nobonds, spectrum  # noqa: E402
from distgaps.poisson import Seed  # noqa: E402

TINY = bench.SIZES["tiny"]


class SelfTestError(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestError(msg)


def _run_main(workload: str, trace: int) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--size", "tiny"])
    return code, buf.getvalue()


def test_every_metric_printed() -> None:
    for trace in (0, 1):
        units = run.metric_units(bool(trace))
        for workload in bench.WORKLOADS:
            code, out = _run_main(workload, trace)
            lines = out.strip().splitlines()
            res = json.loads(lines[-1])
            tag = f"{workload} trace={trace}"
            expect(code == 0, f"{tag}: exit code {code}")
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys {set(res)}")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: {res['failed']} of {res['attempted']} operations failed")
            expect(set(res["metrics"]) == set(units), f"{tag}: metric names differ")
            for name, unit in units.items():
                m = res["metrics"][name]
                expect(m["unit"] == unit and isinstance(m["value"], float),
                       f"{tag}: {name} printed as {m}")
                expect(any(ln.startswith(f"# {name} = ") and ln.endswith(f" {unit}") for ln in lines),
                       f"{tag}: no '{name} = ... {unit}' line")
            if trace:
                v = {k: m["value"] for k, m in res["metrics"].items()}
                expect(0.8 * v["trace.wall_s"] <= v["trace.layers_self_s"] <= v["trace.wall_s"],
                       f"{tag}: span self times {v['trace.layers_self_s']} do not add up "
                       f"to the traced wall time {v['trace.wall_s']}")
            else:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{tag}: an end-to-end metric reads 0")


def test_corrupted_spectrum_dump_is_caught() -> None:
    wl = bench.Spill(TINY["spill"])
    scans = {}
    with tempfile.TemporaryDirectory() as tmp:
        tempfile.tempdir = tmp
        try:
            inputs = wl.setup(5)
            out = wl.op(inputs)
            path = os.path.join(tmp, "spectrum.bin")
            lo, hi = inputs["D"] - 1.0, inputs["D"]
            scans["clean"] = checks.scan_dump(path, lo, hi)
            v = np.memmap(path, dtype="<f8", mode="r+", offset=8)
            i = int(np.flatnonzero(np.diff(v[:100_000]) > 0)[0])
            v[i], v[i + 1] = v[i + 1], v[i]          # a swapped pair
            v.flush()
            scans["swapped"] = checks.scan_dump(path, lo, hi)
            v[i], v[i + 1] = v[i + 1], v[i]
            v[i + 1] = np.nextafter(v[i + 1], np.inf)   # one value moved by an ulp
            v.flush()
            del v
            scans["nudged"] = checks.scan_dump(path, lo, hi)
        finally:
            tempfile.tempdir = None
    oracle = checks.oracle_multiset(inputs["points"])
    ok = checks.check_spill({**out, "scan": scans["clean"]}, oracle, None)
    expect(ok == [], f"clean spill output rejected: {ok}")
    bad = checks.check_spill({**out, "scan": scans["swapped"]}, oracle, None)
    expect(any("descending" in m for m in bad), f"swapped pair not reported: {bad}")
    bad = checks.check_spill({**out, "scan": scans["nudged"]}, oracle, None)
    expect(any("multiset" in m for m in bad), f"value moved by one ulp not reported: {bad}")


def test_flipped_holds_is_caught() -> None:
    rec = harness.run_construct(10_000, bench.EPSILON, 2)
    pts = construction.assemble(10_000, bench.EPSILON, 2).points
    oracle = checks.oracle_spectrum(pts)
    expect(checks.check_record(rec, pts, oracle, None) == [], "clean record rejected")
    flipped = dataclasses.replace(rec, gap_bound_holds=False)
    expect(any("gap_bound_holds" in m for m in checks.check_record(flipped, pts, oracle, None)),
           "flipped gap_bound_holds not reported")
    nudged = dataclasses.replace(rec, gap_sum_sq=rec.gap_sum_sq * (1 + 1e-9))
    expect(any("gap_sum_sq" in m for m in checks.check_record(nudged, pts, oracle, None)),
           "gap_sum_sq off by 1e-9 not reported")

    rng = Seed(9).substream("janson").generator()
    holds = [nobonds.janson_exact(nobonds.random_janson_instance(rng, 12, 0.3)).bounds_hold
             for _ in range(5)]
    out = {"verdicts": [True] * 10, "janson_holds": holds,
           "moderate": (2.0, 2.0), "large": (2.4, 2.4)}
    expect(checks.check_zero_bond(out) == [], "clean zero-bond output rejected")
    holds[3] = not holds[3]
    expect(any("Janson" in m for m in checks.check_zero_bond(out)), "flipped Janson holds not reported")


def test_perturbed_survey_row_is_caught() -> None:
    n = 10_000
    k_max = canonical.default_k_max(n)
    pts = construction.assemble(n, bench.EPSILON, 4).points
    spec = spectrum.all_pair_distances(pts)
    rows = canonical.empty_canonical_survey(spec, n, k_max)
    oracle = checks.oracle_spectrum(pts)
    expect(checks.check_survey(rows, oracle, n, k_max, None) == [], "clean survey rejected")
    # a middle level, one cell fewer empty: monotonicity alone would not notice
    i = k_max // 2
    bad_rows = list(rows)
    bad_rows[i] = dataclasses.replace(rows[i], count_empty=rows[i].count_empty - 1,
                                      sum_sq=(rows[i].count_empty - 1) * 4.0 ** -rows[i].k)
    msgs = checks.check_survey(bad_rows, oracle, n, k_max, None)
    expect(any(f"k={rows[i].k}" in m for m in msgs), f"perturbed survey row not reported: {msgs}")


def test_bare_directory_fails() -> None:
    bare = run.HERE / "tmp" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("tmp", "out", "__pycache__", "baseline"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "record",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark succeeded without the library source")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without the library source")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for t in tests:
        try:
            t()
            print(f"PASS {t.__name__}")
        except SelfTestError as exc:
            failed += 1
            print(f"FAIL {t.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
