#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload {pipeline,zero-bond,record,spill,survey}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ./src.  One
process does all the work (two short-lived interpreters only time the
import for setup_s); BLAS/OpenMP pools are pinned to one thread before
numpy loads, and temporary files (the spill engine's run files and
the spectrum dump) go to a private directory under perfbench/tmp that is
removed on exit.  With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(spans go to perfbench/out/).  Every run also leaves its full result,
with the environment, in perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"
IMPORT_REPS = 3


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def import_library() -> float:
    """Import numpy and the library from ./src; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "distgaps" / "__init__.py").is_file():
        raise FileNotFoundError(f"library source not found under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import distgaps
    import bench  # noqa: F401  (imports every library module it drives)
    elapsed = time.perf_counter() - t0
    if Path(distgaps.__file__).resolve().parent != (src / "distgaps").resolve():
        raise ImportError(f"distgaps imported from {distgaps.__file__}, not {src}")
    return elapsed


def import_seconds() -> float:
    """Import time of the library: the median over IMPORT_REPS fresh
    interpreters, this process being the first."""
    samples = [import_library()]
    probe = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run.import_library())"
    for _ in range(IMPORT_REPS - 1):
        child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                               check=True, timeout=120)
        samples.append(float(child.stdout))
    return statistics.median(samples)


def environment() -> dict:
    import numpy
    try:
        cfg = numpy.show_config(mode="dicts")
    except TypeError:             # numpy < 1.26 prints and returns nothing
        cfg = {}
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "disk_free_gb": shutil.disk_usage(ROOT).free / 2**30,
    }


def result_line(res: dict, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    })


def metric_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pipeline", "zero-bond", "record", "spill", "survey"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny is for the self-test only")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    pin_threads()
    try:
        import_s = import_seconds()
        units = metric_units(bool(args.trace))
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import bench
    import checks

    tmp = HERE / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        res = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        bench.SIZES[args.size], import_s, checks.load_reference(),
                        trace_path=str(out_dir / f"{stem}-spans.jsonl") if args.trace else None)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)

    missing = sorted(set(units) - set(res["metrics"]))
    for name in missing:          # a layer this workload never calls
        res["metrics"][name] = 0.0
    env = environment()
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "size": args.size, "env": env, **res}, fh, indent=1)

    for msg in res["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} ops={res['ops']} "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"failed_frac={res['failed'] / res['attempted']!r}")
    print("# env " + json.dumps(env))
    for name, unit in units.items():
        print(f"# {name} = {res['metrics'][name]!r} {unit}")
    print(result_line(res, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
