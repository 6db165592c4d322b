"""Exact sorted all-pairs distance spectra and gap statistics.

One engine, one fill path.  Let ``cap`` be the number of float64 values
that fit in three quarters of the memory budget.  Every spectrum is built
from sorted ranges ``[lo, hi)``: one pass over all the distances, in
groups of whole rows of at least ``_SELECT`` values filled into one small
reused buffer, selects the distances in the range into a chunk of exactly
their count, and the chunk is sorted.  When all ``m = N(N-1)/2``
distances fit, the spectrum is the one range [0, inf), with no histogram
and no file; that pass keeps every value, so it fills each group straight
into its slot of the chunk, with no buffer.  Otherwise one histogram pass
splits the distances into consecutive ranges of at most ``cap``
distances, and each range's sorted chunk is appended to one unnamed
temporary file (8 bytes per distance), which backs a read-only memmap.
The file has no name to clean up: the kernel frees it with the memmap,
when the spectrum goes, and an error or a killed process leaves nothing
behind.

Histogram bins are prefixes of the float64 bit patterns, which order like
the values for non-negative floats, so bin ends are floats and a pass
selects with the comparisons its range was counted with.  A bin over
``cap`` is counted again on its own bits, down to one float value, which
is written without a pass.  A distance is a symmetric function of its two
endpoints, so the sorted values depend on neither input order nor groups
nor ranges.

Every consumer but ``count_in_range``, a search, is a fold: a generator
that takes the sorted values window by window, in order, and returns one
result at the end.  One loop,
``walk``, reads the values and feeds each window to every fold it is given,
so one walk serves several consumers.  Windows have one private size,
``_WINDOW``, small enough that a window's temporaries stay in cache; no
consumer takes a window size from the budget, so no result depends on it.
The squared gap sum is one ``np.dot`` per window, accumulated across
windows with compensated (Kahan) summation by ``SquaredGapSum``: the
gap-sum objective is a second-order statistic of nearly equal values and m
can reach 1e9, so naive accumulation is not acceptable.  ``gap_stats`` and
the witness audit share it, so they report the same sum to the last bit.

A walk over a file mapping (the range passes' memmap or a dump read back)
drops the mapped pages behind it as it goes; the values stay in the page
cache and read back unchanged.  So a spilled run holds about one chunk (at
most three quarters of the budget) plus one group, during the passes, and
not the whole file after them.
"""
from __future__ import annotations

import math
import mmap
import os
import tempfile
from dataclasses import dataclass
from typing import Generator, Iterator

import numpy as np

from .errors import ConfigError, InvariantViolation, SpectrumSizeError, open_input

DEFAULT_MEMORY_BUDGET = 1 << 30          # 1 GiB
DEFAULT_HARD_CAP = 2_000_000_000
_WINDOW = 1 << 13                        # elements per consumer window (64 KiB)
_RELEASE_STRIDE = 1 << 18                # values a walk passes between page releases (2 MiB)
_SELECT = 1 << 16                        # least values per group of rows (512 KiB)
_BIN_BITS = 16                           # one histogram pass counts up to 2**16 bins
_INF_BITS = 0x7FF0_0000_0000_0000        # bit pattern of +inf
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)     # None where mmap has no madvise


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


def all_pair_distances(
    points: np.ndarray,
    *,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> DistanceSpectrum:
    """Full sorted spectrum of Euclidean pair distances.

    The result is independent of input order and of the budget.  Raises
    ConfigError on non-finite coordinates and SpectrumSizeError when the
    pair count exceeds ``DEFAULT_HARD_CAP``.
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
    if m > DEFAULT_HARD_CAP:
        raise SpectrumSizeError(f"{m} pairs exceed the hard cap {DEFAULT_HARD_CAP}")
    budget = int(memory_budget_bytes)
    if budget < (1 << 22):
        raise ConfigError("memory budget below 4 MiB is not workable")

    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    cap = int(0.75 * budget) // 8
    if m <= cap:
        return DistanceSpectrum(_sorted_range(x, y, 0.0, math.inf, m))

    bins = _bins(x, y, cap, 0, 63)     # 0 << 63: every distance
    # an unnamed file: the kernel frees it with its last descriptor or
    # mapping, so neither an error nor a killed process leaves it behind
    with tempfile.TemporaryFile() as fh:
        for lo, hi, count in _merge_bins(bins, cap):
            if hi == np.nextafter(lo, math.inf):
                # one float value: nothing to recompute or sort
                for start in range(0, count, cap):
                    np.full(min(cap, count - start), lo).tofile(fh)
                continue
            _sorted_range(x, y, lo, hi, count).tofile(fh)
        fh.flush()
        # the mapping keeps its own reference to the file
        return DistanceSpectrum(np.memmap(fh, dtype=np.float64, mode="r"))


def _sorted_range(x: np.ndarray, y: np.ndarray, lo: float, hi: float, count: int) -> np.ndarray:
    """The ``count`` distances v with lo <= v < hi, in one pass, sorted.
    A pass that selects any other number (a pair lost or doubled) raises
    InvariantViolation."""
    chunk = np.empty(count)
    pos = 0
    if lo == 0.0 and hi == math.inf:
        # every distance is kept: each group is filled straight into its slot
        for i0, i1, size in _groups(len(x)):
            _fill_rows_into(chunk[pos:pos + size], x, y, i0, i1)
            pos += size
    else:
        for part in _blocks(x, y):
            kept = _select(part, lo, hi)
            end = pos + len(kept)
            if end <= count:        # past the count, only count: the check below fails
                chunk[pos:end] = kept
            pos = end
    if pos != count:
        raise InvariantViolation(
            f"a pass over [{lo!r}, {hi!r}) selected {pos} distances, not the {count} counted")
    chunk.sort()
    return chunk


def _fill_rows_into(block: np.ndarray, x, y, i0: int, i1: int) -> None:
    """The distances of rows i0..i1-1, row after row, into ``block``.  Each
    row's dx*dx is formed in place in its slot and dy*dy in one scratch row,
    so no row allocates."""
    n = len(x)
    scratch = np.empty(n - 1 - i0)
    pos = 0
    for r in range(i0, i1):
        cnt = n - 1 - r
        d, dy = block[pos:pos + cnt], scratch[:cnt]
        np.subtract(x[r], x[r + 1:], d)
        np.multiply(d, d, d)
        np.subtract(y[r], y[r + 1:], dy)
        np.multiply(dy, dy, dy)
        np.add(d, dy, d)
        np.sqrt(d, d)
        pos += cnt


def _groups(n: int) -> Iterator[tuple[int, int, int]]:
    """Rows i0..i1-1 of the N-point set, with their value count, in groups
    of whole rows of at least ``_SELECT`` values (the last group may hold
    fewer); every pass walks these groups."""
    i0 = 0
    while i0 < n - 1:
        i1, size = i0, 0
        while size < _SELECT and i1 < n - 1:
            size += n - 1 - i1
            i1 += 1
        yield i0, i1, size
        i0 = i1


def _blocks(x: np.ndarray, y: np.ndarray) -> Iterator[np.ndarray]:
    """Every pair distance, group by group, filled one group at a time into
    one reused buffer of ``_SELECT`` + N values, so no temporary a pass
    makes from a group outgrows it."""
    buf = np.empty(_SELECT + len(x))
    for i0, i1, size in _groups(len(x)):
        _fill_rows_into(buf[:size], x, y, i0, i1)
        yield buf[:size]


def _as_float(bits: int) -> float:
    return float(np.int64(min(bits, _INF_BITS)).view(np.float64))


def _select(part: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The values v of part with lo <= v < hi."""
    if lo == 0.0 and hi == math.inf:
        return part
    keep = part >= lo
    keep &= part < hi
    return part[keep]


def _bins(
    x: np.ndarray, y: np.ndarray, cap: int, prefix: int, shift: int,
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
    for part in _blocks(x, y):
        idx = _select(part, lo, hi).view(np.int64) >> sub
        idx -= first
        counts += np.bincount(idx, minlength=len(counts))
    out: list[tuple[float, float, int]] = []
    for j in np.flatnonzero(counts):
        bin_prefix, count = first + int(j), int(counts[j])
        if count > cap and sub:
            out += _bins(x, y, cap, bin_prefix, sub)
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
    exactly once.

    On a read-only file mapping the walk also drops the mapped pages wholly
    behind the current window, about every ``_RELEASE_STRIDE`` values and
    once more at its end: they stay in the page cache and read back
    unchanged, but stop counting toward the process's resident memory."""
    window = _WINDOW
    m = len(values)
    mapping = _file_mapping(values)
    released = 0                         # values behind the last release
    start = 0
    while start < m:
        stop = min(start + window, m)
        lo = start - 1 if start else 0
        if mapping and lo - released >= _RELEASE_STRIDE:
            _drop_pages(*mapping, released * values.itemsize, lo * values.itemsize)
            released = lo
        yield values[lo:stop]
        start = stop
    if mapping:
        _drop_pages(*mapping, released * values.itemsize, m * values.itemsize)


def _file_mapping(values: np.ndarray) -> tuple[mmap.mmap, int] | None:
    """The read-only file mapping under a contiguous memmap (or a view of
    one) and the byte offset of its first value in that mapping, else None.
    Dropping pages of a private or anonymous mapping would lose data, so
    nothing else qualifies."""
    if not (isinstance(values, np.memmap) and values.mode == "r"
            and values.flags.c_contiguous and _DONTNEED is not None):
        return None
    base = values
    while isinstance(base, np.ndarray):
        base = base.base
    if not isinstance(base, mmap.mmap):
        return None
    return base, values.ctypes.data - np.frombuffer(base, dtype=np.uint8).ctypes.data


def _drop_pages(mapping: mmap.mmap, offset: int, begin: int, end: int) -> None:
    """Drop the pages of ``mapping`` that lie wholly before byte ``end`` of
    the values, from the page holding byte ``begin``."""
    page = mmap.PAGESIZE
    a, b = (offset + begin) // page * page, (offset + end) // page * page
    if b > a:
        mapping.madvise(_DONTNEED, a, b - a)


class SquaredGapSum:
    """Sum of squared gaps: one ``np.dot`` per ``_WINDOW`` gaps, Kahan steps
    across them.  A walk's window holds at most ``_WINDOW`` gaps, so it adds
    in one step."""

    def __init__(self) -> None:
        self.total = 0.0
        self._comp = 0.0

    def add(self, g: np.ndarray) -> None:
        for i in range(0, len(g), _WINDOW):
            piece = g[i:i + _WINDOW]
            yv = float(np.dot(piece, piece)) - self._comp
            t = self.total + yv
            self._comp = (t - self.total) - yv
            self.total = t


def walk(values: np.ndarray, *folds: Generator) -> list:
    """Feed every window of ``values`` to each fold in the order given and
    return the folds' results, in that order.

    A fold is a generator that checks its inputs before its first ``yield``,
    takes each window from ``yield`` until it gets None, and returns its
    result.  ``walk`` primes each fold, so the checks run before any window
    is read and a fold that rejects one stops the walk before the folds after
    it see that window.  A stopped walk closes every fold, so a fold's
    ``with`` blocks exit then."""
    try:
        for fold in folds:
            next(fold)
        for w in iter_windows(values):
            for fold in folds:
                fold.send(w)
        results = []
        for fold in folds:
            try:
                fold.send(None)
            except StopIteration as done:
                results.append(done.value)
        return results
    finally:
        for fold in folds:
            fold.close()


def gap_fold(m: int) -> Generator:
    """Gap statistics of the m sorted values that a walk feeds in."""
    if m < 2:
        raise ConfigError("need at least two distances for gap statistics")
    gap_sum = SquaredGapSum()
    max_gap = 0.0
    while (w := (yield)) is not None:
        g = np.diff(w)
        gap_sum.add(g)
        max_gap = float(g.max(initial=max_gap))
    return GapStats(gap_sum_sq=gap_sum.total, max_gap=max_gap, gap_count=m - 1)


def gap_stats(spectrum: DistanceSpectrum) -> GapStats:
    return walk(spectrum.values, gap_fold(spectrum.m))[0]


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


def dump_fold(path: str, m: int) -> Generator:
    """Write the m values that a walk feeds in to a dump at ``path``."""
    with open(path, "wb") as fh:
        fh.write(np.array([m], dtype="<u8").tobytes())
        skip = 0
        while (w := (yield)) is not None:
            # windows after the first repeat the previous last value; the
            # rest is a view on little-endian hosts, with no copy
            fh.write(memoryview(np.ascontiguousarray(w[skip:], dtype="<f8")))
            skip = 1


def write_spectrum(spectrum: DistanceSpectrum, path: str) -> None:
    walk(spectrum.values, dump_fold(path, spectrum.m))


def map_spectrum(path: str) -> DistanceSpectrum:
    """Map a dump read-only, so reading it holds no copy of the values, after
    checking its count header and that its end values are finite.  The
    values in between are checked by ``order_fold`` as a walk reads them."""
    with open_input(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 8:
            raise ConfigError(f"spectrum file {path}: no count header")
        count = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
        if size - 8 != 8 * count:
            raise ConfigError(f"spectrum file {path}: header says {count}, found {(size - 8) / 8:g}")
        # the mapping keeps its own reference to the file
        values = np.memmap(fh, dtype="<f8", mode="r", offset=8, shape=(count,))
    if count and not (math.isfinite(values[0]) and math.isfinite(values[-1])):
        raise ConfigError(f"spectrum file {path}: values are not finite")
    return DistanceSpectrum(values)


def order_fold(path: str) -> Generator:
    """Reject the dump at ``path`` unless the values that a walk feeds in
    ascend: a NaN fails the test, so with finite ends every value is finite."""
    while (w := (yield)) is not None:
        if not (w[1:] >= w[:-1]).all():
            raise ConfigError(f"spectrum file {path}: values are not ascending or hold a NaN")
