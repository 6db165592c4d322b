"""Output checks for the benchmark workloads.

Every check returns a list of failure messages; an empty list means the
output is correct.  The oracles here are written independently of the
library: the spectrum oracle fills all pair distances row by row and sorts
them in one array (or, for the spill dump, hashes them as a multiset), and
the survey oracle counts occupied dyadic cells from the highest differing
bit of consecutive fixed-point cell ids, so a defect in the library's
block/merge/window code does not repeat here.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from distgaps.errors import DistgapsError

REL_TOL = 1e-12
_CHUNK = 1 << 22
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# criterion-09 windows: moderate ratios 2 +/- 20 %, large ratios 2^1.25 +/- 25 %
_LARGE_TARGET = 2.0 ** 1.25


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_entry(reference: dict, workload: str, n: int, seed: int) -> dict | None:
    return reference.get(workload, {}).get(str(n), {}).get(str(seed))


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Spectrum oracle
# ---------------------------------------------------------------------------


def oracle_spectrum(points: np.ndarray) -> np.ndarray:
    """All pair distances of an (N, 2) array, sorted ascending."""
    x = np.ascontiguousarray(points[:, 0], dtype=float)
    y = np.ascontiguousarray(points[:, 1], dtype=float)
    n = len(x)
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        dx = x[i] - x[i + 1:]
        dy = y[i] - y[i + 1:]
        np.sqrt(dx * dx + dy * dy, out=out[pos:pos + n - 1 - i])
        pos += n - 1 - i
    out.sort()
    return out


def gap_summary(values: np.ndarray) -> tuple[float, float]:
    """(sum of squared consecutive gaps, largest gap) by exact summation of
    per-chunk partial sums."""
    parts = []
    max_gap = 0.0
    for i in range(0, len(values) - 1, _CHUNK):
        g = np.diff(values[i:i + _CHUNK + 1])
        parts.append(float(np.dot(g, g)))
        max_gap = max(max_gap, float(g.max()))
    return math.fsum(parts), max_gap


def count_between(values: np.ndarray, lo: float, hi: float) -> int:
    return int(np.searchsorted(values, hi, side="right") - np.searchsorted(values, lo, side="left"))


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def multiset_hash(values: np.ndarray) -> int:
    """Order-independent hash of float64 values: the wrapping sum of a
    64-bit mix (splitmix64 finaliser) of each value's bit pattern."""
    z = np.ascontiguousarray(values, dtype="<f8").view(np.uint64)
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return int(z.sum(dtype=np.uint64))


def oracle_multiset(points: np.ndarray) -> dict:
    """Count and multiset hash of all pair distances, row by row, unsorted."""
    x = np.ascontiguousarray(points[:, 0], dtype=float)
    y = np.ascontiguousarray(points[:, 1], dtype=float)
    n = len(x)
    h = 0
    rows = max(1, _CHUNK // max(n, 1))
    for i0 in range(0, n - 1, rows):
        parts = []
        for i in range(i0, min(i0 + rows, n - 1)):
            dx = x[i] - x[i + 1:]
            dy = y[i] - y[i + 1:]
            parts.append(np.sqrt(dx * dx + dy * dy))
        h += multiset_hash(np.concatenate(parts))
    return {"count": n * (n - 1) // 2, "hash": h % 2**64}


def scan_dump(path: str, lo: float, hi: float) -> dict:
    """One streaming pass over a spectrum dump (u64 count, LE f8 values):
    count, first value, descending adjacent pairs, multiset hash, squared
    gap sum, largest gap and the number of values in [lo, hi].  Reads
    through the page cache in bounded chunks, so it adds nothing to
    resident memory."""
    descents = count = in_range = 0
    h = 0
    first, prev, max_gap = math.nan, math.nan, 0.0
    parts: list[float] = []
    with open(path, "rb") as fh:
        head = fh.read(8)
        header = int(np.frombuffer(head, dtype="<u8")[0]) if len(head) == 8 else -1
        while raw := fh.read(_CHUNK * 8):
            v = np.frombuffer(raw, dtype="<f8")
            g = np.diff(v if count == 0 else np.concatenate(([prev], v)))
            first = float(v[0]) if count == 0 else first
            descents += int(np.count_nonzero(g < 0))
            parts.append(float(np.dot(g, g)))
            max_gap = max(max_gap, float(g.max(initial=0.0)))
            in_range += int(np.count_nonzero((v >= lo) & (v <= hi)))
            h += multiset_hash(v)
            prev = float(v[-1])
            count += len(v)
    return {"header": header, "count": count, "first": first, "descents": descents,
            "hash": h % 2**64, "gap_sum_sq": math.fsum(parts), "max_gap": max_gap,
            "in_range": in_range}


# ---------------------------------------------------------------------------
# record: harness.run_construct
# ---------------------------------------------------------------------------


def check_record(rec, points: np.ndarray, oracle: np.ndarray, ref: dict | None) -> list[str]:
    """A RunRecord against its own invariants, the spectrum oracle of the
    same point set, and (for recorded seeds) the values recorded from the
    reference commit."""
    bad: list[str] = []
    try:
        rec.validate()
    except DistgapsError as exc:
        bad.append(f"validate: {exc}")
    if rec.gap_bound_holds is not True:
        bad.append("gap_bound_holds is false")
    n_pts = len(points)
    if rec.realized_points != n_pts:
        bad.append(f"realized_points {rec.realized_points} != {n_pts}")
    if rec.pair_count != len(oracle):
        bad.append(f"m {rec.pair_count} != {len(oracle)}")
    else:
        gs, mg = gap_summary(oracle)
        D = rec.diameter_nominal
        if rec.d_min != oracle[0] or rec.d_max != oracle[-1]:
            bad.append("d_min/d_max differ from the oracle spectrum")
        if not rel_close(rec.gap_sum_sq, gs):
            bad.append(f"gap_sum_sq {rec.gap_sum_sq!r} vs oracle {gs!r}")
        if rec.max_gap != mg:
            bad.append(f"max_gap {rec.max_gap!r} vs oracle {mg!r}")
        top = count_between(oracle, D - 1.0, D)
        if rec.count_top_interval != top:
            bad.append(f"count_top_interval {rec.count_top_interval} vs oracle {top}")
    if ref is not None:
        for key in ("realized_points", "count_top_interval", "m"):
            got = rec.pair_count if key == "m" else getattr(rec, key)
            if got != ref[key]:
                bad.append(f"{key} {got} != recorded {ref[key]}")
        if not rel_close(rec.gap_sum_sq, ref["gap_sum_sq"]):
            bad.append(f"gap_sum_sq {rec.gap_sum_sq!r} vs recorded {ref['gap_sum_sq']!r}")
    return bad


# ---------------------------------------------------------------------------
# spill: all_pair_distances (external engine), gap_stats, count_in_range,
# write_spectrum
# ---------------------------------------------------------------------------


def check_spill(out: dict, oracle: dict, ref: dict | None) -> list[str]:
    """One spill pass.  The dump scan shows the file sorted and, by count
    and multiset hash, holding exactly the oracle's distances, so it is the
    sorted spectrum; the consumer outputs are then held to the scan's
    values.  ``oracle`` is ``oracle_multiset`` of the same points."""
    bad: list[str] = []
    scan = out["scan"]
    m = oracle["count"]
    if out["m"] != m or scan["header"] != m or scan["count"] != m:
        bad.append(f"m {out['m']} / header {scan['header']} / count {scan['count']} != N(N-1)/2 = {m}")
    if scan["descents"]:
        bad.append(f"{scan['descents']} descending adjacent pairs in the dump")
    if scan["hash"] != oracle["hash"]:
        bad.append("dump values differ from the oracle's distance multiset")
    if not scan["first"] >= 1.0 or out["d_min"] != scan["first"]:
        bad.append(f"d_min {out['d_min']!r} below 1 or not the dump's first value")
    if not rel_close(out["gap_sum_sq"], scan["gap_sum_sq"]):
        bad.append(f"gap_sum_sq {out['gap_sum_sq']!r} vs {scan['gap_sum_sq']!r} from the dump")
    if out["max_gap"] != scan["max_gap"]:
        bad.append(f"max_gap {out['max_gap']!r} vs {scan['max_gap']!r} from the dump")
    if out["count_top_interval"] != scan["in_range"]:
        bad.append(f"count_in_range {out['count_top_interval']} vs {scan['in_range']} in the dump")
    if ref is not None and not rel_close(out["gap_sum_sq"], ref["gap_sum_sq"]):
        bad.append(f"gap_sum_sq {out['gap_sum_sq']!r} vs recorded packed {ref['gap_sum_sq']!r}")
    return bad


# ---------------------------------------------------------------------------
# survey: canonical.empty_canonical_survey
# ---------------------------------------------------------------------------


def class_ranges(n: int, d_max: float) -> list[tuple[str, int, int]]:
    """Unit-interval ranges [ja, jb] of the three distance classes, as the
    survey's documentation defines them (moderate <= 1.96 n^(4/7) < large
    <= D - 3 < extra large, with the last class running to the spectrum's
    top)."""
    D = 2.0 * float(n) ** (4.0 / 7.0)
    j_end = max(math.ceil(D), math.floor(d_max) + 1)
    j_mod = math.floor(1.96 * float(n) ** (4.0 / 7.0))
    j_large = math.floor(D - 3.0)
    return [("moderate", 1, j_mod), ("large", j_mod + 1, j_large),
            ("extra_large", j_large + 1, j_end - 1)]


def oracle_occupied(sub: np.ndarray, k_max: int) -> np.ndarray:
    """Occupied level-k cells of a sorted array, for k = 0..k_max.

    With c = floor(d * 2^k_max) (exact below 2^53), the level-k cell of d is
    c >> (k_max - k).  Two consecutive values share a level-k cell unless
    their ids differ in a bit at or above k_max - k, so each adjacent pair
    opens a new cell from level max(0, k_max - highest differing bit) on.
    """
    first_split = np.zeros(k_max + 1, dtype=np.int64)
    if len(sub) == 0:
        return first_split
    for i in range(0, len(sub), _CHUNK):
        ids = np.floor(np.ldexp(sub[i:i + _CHUNK + 1], k_max)).astype(np.int64)
        x = ids[1:] ^ ids[:-1]
        x = x[x != 0]
        _, e = np.frexp(x.astype(float))        # x < 2^53: exact; top bit = e - 1
        # pairs already apart in their integer part split at level 0
        first_split += np.bincount(np.maximum(k_max - (e - 1), 0), minlength=k_max + 1)
    return 1 + np.cumsum(first_split)


def check_survey(rows, oracle: np.ndarray, n: int, k_max: int,
                 ref_rows: list | None) -> list[str]:
    """Survey rows against monotonicity, the class's distance count, the
    cell-id oracle on the oracle spectrum, and recorded rows."""
    bad: list[str] = []
    got = [(r.dist_class.value, r.k, r.count_empty, r.sum_sq) for r in rows]
    ranges = class_ranges(n, float(oracle[-1]))
    if len(got) != len(ranges) * (k_max + 1):
        return [f"{len(got)} rows, expected {len(ranges) * (k_max + 1)}"]
    for c, (cls, ja, jb) in enumerate(ranges):
        block = got[c * (k_max + 1):(c + 1) * (k_max + 1)]
        if [b[0] for b in block] != [cls] * (k_max + 1) or [b[1] for b in block] != list(range(k_max + 1)):
            bad.append(f"class {cls}: rows out of order")
            continue
        if jb < ja:
            if any(b[2] != 0 for b in block):
                bad.append(f"class {cls}: empty range with nonzero counts")
            continue
        units = jb - ja + 1
        sub = oracle[np.searchsorted(oracle, float(ja)):np.searchsorted(oracle, float(jb + 1))]
        occ = [(units << k) - b[2] for k, b in enumerate(block)]
        if any(b < a for a, b in zip(occ, occ[1:])) or any(o > len(sub) or o < 0 for o in occ):
            bad.append(f"class {cls}: occupied cells decrease with k or exceed {len(sub)} distances")
        if any(b[3] != b[2] * math.ldexp(1.0, -2 * b[1]) for b in block):
            bad.append(f"class {cls}: sum_sq != count_empty * 4^-k")
        want = oracle_occupied(sub, k_max).tolist()
        if occ != want:
            k = next(i for i, (a, b) in enumerate(zip(occ, want)) if a != b)
            bad.append(f"class {cls}, k={k}: {occ[k]} occupied cells, oracle {want[k]}")
    if ref_rows is not None and [list(r) for r in got] != ref_rows:
        bad.append("rows differ from the recorded rows")
    return bad


# ---------------------------------------------------------------------------
# zero-bond: criterion 08/09 verdicts and the Janson batch
# ---------------------------------------------------------------------------


def check_zero_bond(out: dict) -> list[str]:
    """One zero-bond pass: each message is one failed operation (a config
    verdict, one of the two scaling surveys, or the Janson batch)."""
    bad: list[str] = []
    for i, passed in enumerate(out["verdicts"]):
        if passed is not True:
            bad.append(f"config {i}: " + (passed if isinstance(passed, str) else "bracket not met"))
    holds = out["janson_holds"]
    if isinstance(holds, str):
        bad.append(f"Janson batch: {holds}")
    elif not all(h is True for h in holds):
        bad.append(f"Janson ordered-pair bracket fails on {holds.count(False)} instances")
    mod, large = out["moderate"], out["large"]
    if isinstance(mod, str) or not all(abs(r - 2.0) <= 0.4 for r in mod):
        bad.append(f"moderate survey ratios {mod} outside 2 +/- 20%")
    if isinstance(large, str) or not all(abs(r - _LARGE_TARGET) <= 0.25 * _LARGE_TARGET
                                         for r in large):
        bad.append(f"large survey ratios {large} outside 2^1.25 +/- 25%")
    return bad
