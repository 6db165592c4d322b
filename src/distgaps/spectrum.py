"""Exact sorted all-pairs distance spectra and gap statistics.

One engine.  Let ``cap`` be the number of float64 values that fit in three
quarters of the memory budget.  When all ``m = N(N-1)/2`` distances fit,
they are filled in row blocks into one array and sorted in place.
Otherwise one histogram pass over the row blocks splits them into
consecutive value ranges ``[lo, hi)`` of at most ``cap`` distances, and
each range takes one pass: recompute the blocks, copy the distances in the
range into a chunk sized from the histogram, sort it and append it to one
unnamed temporary file (8 bytes per distance), which backs a read-only
memmap.  The file has no name to clean up: the kernel frees it with the
memmap, when the spectrum goes, and an error or a killed process leaves
nothing behind.

Histogram bins are prefixes of the float64 bit patterns, which order like
the values for non-negative floats, so bin ends are floats and a pass
selects with the comparisons its range was counted with.  A bin over
``cap`` is counted again on its own bits, down to one float value, which
is written without a pass.  A distance is a symmetric function of its two
endpoints, so the sorted values depend on neither input order nor blocks
nor ranges.

Every consumer walks the sorted values in windows of one private size,
``_WINDOW``, small enough that a window's temporaries stay in cache; no
consumer takes a window size from the budget, so no result depends on it.
The squared gap sum is one ``np.dot`` per window, accumulated across
windows with compensated (Kahan) summation by ``SquaredGapSum``: the
gap-sum objective is a second-order statistic of nearly equal values and m
can reach 1e9, so naive accumulation is not acceptable.  ``gap_stats`` and
the witness audit share it, so they report the same sum to the last bit.
"""
from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, SpectrumSizeError

DEFAULT_MEMORY_BUDGET = 1 << 30          # 1 GiB
DEFAULT_HARD_CAP = 2_000_000_000
_WINDOW = 1 << 13                        # elements per consumer window (64 KiB)
_BIN_BITS = 16                           # one histogram pass counts up to 2**16 bins
_INF_BITS = 0x7FF0_0000_0000_0000        # bit pattern of +inf


@dataclass
class GapStats:
    gap_sum_sq: float
    max_gap: float
    gap_count: int


class DistanceSpectrum:
    """Sorted ascending distances d_1 <= ... <= d_m of an N-point set."""

    def __init__(self, values: np.ndarray):
        self.values = values

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def d_min(self) -> float:
        return float(self.values[0])

    @property
    def d_max(self) -> float:
        return float(self.values[-1])

    def close(self) -> None:
        """Drop a file-backed spectrum's mapping, and so its file, before the
        spectrum itself goes; an in-memory spectrum keeps its values."""
        if isinstance(self.values, np.memmap):
            self.values = np.empty(0)


def _row_prefix(n: int, i: int) -> int:
    # pairs (r, j), r < j, contributed by rows 0..i-1
    return i * (n - 1) - (i * (i - 1)) // 2


def _row_blocks(n: int, rows_per_block: int) -> Iterator[tuple[int, int]]:
    for i0 in range(0, n - 1, rows_per_block):
        yield i0, min(i0 + rows_per_block, n - 1)


def all_pair_distances(
    points: np.ndarray,
    *,
    memory_budget_bytes: int | None = None,
    hard_cap: int = DEFAULT_HARD_CAP,
) -> DistanceSpectrum:
    """Full sorted spectrum of Euclidean pair distances.

    The result is independent of input order and of the budget.  Raises
    ConfigError on non-finite coordinates and SpectrumSizeError when the
    pair count exceeds the hard cap.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(f"expected (N, 2) points, got shape {pts.shape}")
    n = len(pts)
    if n < 2:
        raise ConfigError("need at least two points")
    # every dx*dx + dy*dy is at most the squared bounding-box diagonal, which
    # is finite unless a coordinate is not finite or a distance overflows
    with np.errstate(over="ignore", invalid="ignore"):
        top_sq = float(np.square(pts.max(axis=0) - pts.min(axis=0)).sum())
    if not math.isfinite(top_sq):
        raise ConfigError("point coordinates must be finite and span less than 1e154")
    m = n * (n - 1) // 2
    if m > hard_cap:
        raise SpectrumSizeError(f"{m} pairs exceed the hard cap {hard_cap}")
    budget = DEFAULT_MEMORY_BUDGET if memory_budget_bytes is None else int(memory_budget_bytes)
    if budget < (1 << 22):
        raise ConfigError("memory budget below 4 MiB is not workable")

    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    rows_per_block = max(1, (budget // 16) // max(n, 1) // 8)
    cap = int(0.75 * budget) // 8

    if m <= cap:
        out = np.empty(m)
        for i0, i1 in _row_blocks(n, rows_per_block):
            _fill_rows_into(out[_row_prefix(n, i0):_row_prefix(n, i1)], x, y, i0, i1)
        out.sort()
        return DistanceSpectrum(out)

    bins = _bins(x, y, rows_per_block, cap, 0, 63)     # 0 << 63: every distance
    # an unnamed file: the kernel frees it with its last descriptor or
    # mapping, so neither an error nor a killed process leaves it behind
    with tempfile.TemporaryFile() as fh:
        for lo, hi, count in _merge_bins(bins, cap):
            if hi == np.nextafter(lo, math.inf):
                # one float value: nothing to recompute or sort
                for start in range(0, count, cap):
                    np.full(min(cap, count - start), lo).tofile(fh)
                continue
            chunk = np.empty(count)
            pos = 0
            for block in _blocks(x, y, rows_per_block):
                part = _select(block, lo, hi)
                chunk[pos:pos + len(part)] = part
                pos += len(part)
            assert pos == count
            chunk.sort()
            chunk.tofile(fh)
        fh.flush()
        # the mapping keeps its own reference to the file
        return DistanceSpectrum(np.memmap(fh, dtype=np.float64, mode="r"))


def _fill_rows_into(block: np.ndarray, x, y, i0: int, i1: int) -> None:
    n = len(x)
    pos = 0
    for r in range(i0, i1):
        cnt = n - 1 - r
        dx = x[r] - x[r + 1:]
        dy = y[r] - y[r + 1:]
        np.sqrt(dx * dx + dy * dy, out=block[pos:pos + cnt])
        pos += cnt


def _blocks(x: np.ndarray, y: np.ndarray, rows_per_block: int) -> Iterator[np.ndarray]:
    """Every pair distance, one row block at a time, in one reused buffer."""
    n = len(x)
    buf = np.empty(_row_prefix(n, min(rows_per_block, n - 1)))
    for i0, i1 in _row_blocks(n, rows_per_block):
        block = buf[:_row_prefix(n, i1) - _row_prefix(n, i0)]
        _fill_rows_into(block, x, y, i0, i1)
        yield block


def _as_float(bits: int) -> float:
    return float(np.int64(min(bits, _INF_BITS)).view(np.float64))


def _select(block: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The values v of block with lo <= v < hi."""
    if lo == 0.0 and hi == math.inf:
        return block
    keep = block >= lo
    keep &= block < hi
    return block[keep]


def _bins(
    x: np.ndarray, y: np.ndarray, rows_per_block: int, cap: int, prefix: int, shift: int,
) -> list[tuple[float, float, int]]:
    """Non-empty bins ``(lo, hi, count)``, ascending, of the distances whose
    bit patterns start with ``prefix``, i.e. lie in
    ``[prefix << shift, (prefix + 1) << shift)``.

    One pass counts up to 2**16 sub-bins; a sub-bin over ``cap`` is counted
    again on its own bits, so every bin holds at most ``cap`` distances or
    is one float value wide.
    """
    sub = max(shift - _BIN_BITS, 0)
    lo, hi = _as_float(prefix << shift), _as_float((prefix + 1) << shift)
    first = prefix << (shift - sub)
    counts = np.zeros(1 << (shift - sub), dtype=np.int64)
    for block in _blocks(x, y, rows_per_block):
        idx = _select(block, lo, hi).view(np.int64) >> sub
        idx -= first
        counts += np.bincount(idx, minlength=len(counts))
    out: list[tuple[float, float, int]] = []
    for j in np.flatnonzero(counts):
        bin_prefix, count = first + int(j), int(counts[j])
        if count > cap and sub:
            out += _bins(x, y, rows_per_block, cap, bin_prefix, sub)
        else:
            out.append((_as_float(bin_prefix << sub), _as_float((bin_prefix + 1) << sub), count))
    return out


def _merge_bins(bins: list[tuple[float, float, int]], cap: int) -> list[tuple[float, float, int]]:
    """Join consecutive bins into ranges of at most ``cap`` distances; a
    range spans the empty gaps between its bins."""
    ranges: list[tuple[float, float, int]] = []
    for lo, hi, count in bins:
        if ranges and ranges[-1][2] + count <= cap:
            ranges[-1] = (ranges[-1][0], hi, ranges[-1][2] + count)
        else:
            ranges.append((lo, hi, count))
    return ranges


# ---------------------------------------------------------------------------
# Consumers
# ---------------------------------------------------------------------------


def iter_windows(values: np.ndarray) -> Iterator[np.ndarray]:
    """Overlapping views of ``_WINDOW`` + 1 values: each window repeats the
    previous last element, so per-window diffs cover every consecutive pair
    exactly once."""
    window = _WINDOW
    m = len(values)
    start = 0
    while start < m:
        stop = min(start + window, m)
        lo = start - 1 if start else 0
        yield values[lo:stop]
        start = stop


class SquaredGapSum:
    """Sum of squared gaps: one ``np.dot`` per window, Kahan steps across
    windows."""

    def __init__(self) -> None:
        self.total = 0.0
        self._comp = 0.0

    def add(self, g: np.ndarray) -> None:
        yv = float(np.dot(g, g)) - self._comp
        t = self.total + yv
        self._comp = (t - self.total) - yv
        self.total = t


def gap_stats(spectrum: DistanceSpectrum) -> GapStats:
    v = spectrum.values
    if len(v) < 2:
        raise ConfigError("need at least two distances for gap statistics")
    gap_sum = SquaredGapSum()
    max_gap = 0.0
    for w in iter_windows(v):
        g = np.diff(w)
        if not len(g):
            continue
        gap_sum.add(g)
        mg = float(g.max())
        if mg > max_gap:
            max_gap = mg
    return GapStats(gap_sum_sq=gap_sum.total, max_gap=max_gap, gap_count=len(v) - 1)


def count_in_range(spectrum: DistanceSpectrum, lo: float, hi: float) -> int:
    """Number of distances d with lo <= d <= hi."""
    if lo > hi:
        raise ConfigError(f"empty range [{lo}, {hi}]")
    v = spectrum.values
    return int(np.searchsorted(v, hi, side="right") - np.searchsorted(v, lo, side="left"))


def equal_spacing_lower_bound(diameter: float, m: int, d1: float) -> float:
    """Gap-sum of m equally spaced values spanning [d1, diameter]."""
    if m < 2:
        raise ConfigError("need m >= 2")
    if not (diameter >= d1 >= 0):
        raise ConfigError("need diameter >= d1 >= 0")
    return (diameter - d1) ** 2 / (m - 1)


# ---------------------------------------------------------------------------
# Binary dump: uint64 little-endian count header, then float64 LE ascending
# ---------------------------------------------------------------------------


def write_spectrum(spectrum: DistanceSpectrum, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(np.array([spectrum.m], dtype="<u8").tobytes())
        v = spectrum.values
        for i in range(0, len(v), _WINDOW):
            # a view on little-endian hosts: no copy of the values
            fh.write(memoryview(np.ascontiguousarray(v[i:i + _WINDOW], dtype="<f8")))


def read_spectrum(path: str) -> DistanceSpectrum:
    """Map a dump read-only, so reading it holds no copy of the values."""
    size = os.path.getsize(path)
    if size < 8:
        raise ConfigError(f"spectrum file {path}: no count header")
    with open(path, "rb") as fh:
        count = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
    if size - 8 != 8 * count:
        raise ConfigError(f"spectrum file {path}: header says {count}, found {(size - 8) / 8:g}")
    values = np.memmap(path, dtype="<f8", mode="r", offset=8, shape=(count,))
    return DistanceSpectrum(values)
