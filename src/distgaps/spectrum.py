"""Exact sorted all-pairs distance spectra and gap statistics.

Two engines behind one entry point, chosen by the memory budget:

* packed: all ``m = N(N-1)/2`` distances go into one preallocated array,
  filled in row blocks (optionally across threads, each block writing a
  disjoint slice) and sorted in place.
* external: row blocks are sorted individually and spilled to temporary
  files, then k-way merged in bounded chunks; the merged result backs a
  read-only memmap, so peak resident memory stays within the budget.

Both produce bit-identical sorted values: a distance is a symmetric
function of its two endpoints, so neither input order, block boundaries,
nor thread count can change the multiset.

Gap statistics accumulate across fixed-size windows with compensated
(Kahan) summation: the gap-sum objective is a second-order statistic of
nearly equal values and m can reach 1e9, so naive accumulation is not
acceptable.
"""
from __future__ import annotations

import math
import os
import tempfile
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, SpectrumSizeError

DEFAULT_MEMORY_BUDGET = 1 << 30          # 1 GiB
DEFAULT_HARD_CAP = 2_000_000_000
_WINDOW = 1 << 24                        # elements per consumer window


@dataclass
class GapStats:
    gap_sum_sq: float
    max_gap: float
    gap_count: int


class DistanceSpectrum:
    """Sorted ascending distances d_1 <= ... <= d_m of an N-point set."""

    def __init__(self, values: np.ndarray, point_count: int, _backing: str | None = None):
        self.values = values
        self.point_count = point_count
        self._backing = _backing
        if _backing is not None:
            self._finalizer = weakref.finalize(self, _remove_quiet, _backing)

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
        if self._backing is not None:
            self.values = np.empty(0)
            self._finalizer()


def _remove_quiet(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def _row_prefix(n: int, i: int) -> int:
    # pairs (r, j), r < j, contributed by rows 0..i-1
    return i * (n - 1) - (i * (i - 1)) // 2


def _fill_rows(out: np.ndarray, x: np.ndarray, y: np.ndarray, i0: int, i1: int) -> None:
    n = len(x)
    start, stop = _row_prefix(n, i0), _row_prefix(n, i1)
    _fill_rows_into(out[start:stop], x, y, i0, i1)


def _row_blocks(n: int, rows_per_block: int) -> Iterator[tuple[int, int]]:
    for i0 in range(0, n - 1, rows_per_block):
        yield i0, min(i0 + rows_per_block, n - 1)


def all_pair_distances(
    points: np.ndarray,
    *,
    memory_budget_bytes: int | None = None,
    hard_cap: int = DEFAULT_HARD_CAP,
    threads: int = 1,
    tmp_dir: str | None = None,
) -> DistanceSpectrum:
    """Full sorted spectrum of Euclidean pair distances.

    The result is independent of input order and thread count.  Raises
    SpectrumSizeError when the pair count exceeds the hard cap.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(f"expected (N, 2) points, got shape {pts.shape}")
    n = len(pts)
    if n < 2:
        raise ConfigError("need at least two points")
    m = n * (n - 1) // 2
    if m > hard_cap:
        raise SpectrumSizeError(f"{m} pairs exceed the hard cap {hard_cap}")
    budget = DEFAULT_MEMORY_BUDGET if memory_budget_bytes is None else int(memory_budget_bytes)
    if budget < (1 << 22):
        raise ConfigError("memory budget below 4 MiB is not workable")

    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    rows_per_block = max(1, (budget // 16) // max(n, 1) // 8)

    if m * 8 <= 0.75 * budget:
        out = np.empty(m)
        blocks = list(_row_blocks(n, rows_per_block))
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(lambda b: _fill_rows(out, x, y, *b), blocks))
        else:
            for b in blocks:
                _fill_rows(out, x, y, *b)
        out.sort()
        return DistanceSpectrum(out, n)

    return _external_spectrum(x, y, m, budget, rows_per_block, tmp_dir)


def _external_spectrum(
    x: np.ndarray, y: np.ndarray, m: int, budget: int,
    rows_per_block: int, tmp_dir: str | None,
) -> DistanceSpectrum:
    n = len(x)
    run_elems = max(budget // (8 * 4), 1 << 20)
    tmp_dir = tmp_dir or tempfile.gettempdir()
    run_paths: list[str] = []
    buf: list[np.ndarray] = []
    buffered = 0

    def flush() -> None:
        nonlocal buf, buffered
        if not buffered:
            return
        run = np.concatenate(buf)
        run.sort()
        fd, path = tempfile.mkstemp(suffix=".run", dir=tmp_dir)
        with os.fdopen(fd, "wb") as fh:
            fh.write(run.astype("<f8", copy=False).tobytes())
        run_paths.append(path)
        buf, buffered = [], 0

    try:
        for i0, i1 in _row_blocks(n, rows_per_block):
            start, stop = _row_prefix(n, i0), _row_prefix(n, i1)
            block = np.empty(stop - start)
            _fill_rows_into(block, x, y, i0, i1)
            buf.append(block)
            buffered += len(block)
            if buffered >= run_elems:
                flush()
        flush()

        out_fd, out_path = tempfile.mkstemp(suffix=".spectrum", dir=tmp_dir)
        chunk = max(run_elems // max(len(run_paths), 1), 1 << 16)
        with os.fdopen(out_fd, "wb") as out_fh:
            for piece in _merge_runs(run_paths, chunk):
                out_fh.write(piece.astype("<f8", copy=False).tobytes())
    finally:
        for p in run_paths:
            _remove_quiet(p)

    values = np.memmap(out_path, dtype="<f8", mode="r")
    assert len(values) == m
    return DistanceSpectrum(values, n, _backing=out_path)


def _fill_rows_into(block: np.ndarray, x, y, i0: int, i1: int) -> None:
    n = len(x)
    pos = 0
    for r in range(i0, i1):
        cnt = n - 1 - r
        dx = x[r] - x[r + 1:]
        dy = y[r] - y[r + 1:]
        np.sqrt(dx * dx + dy * dy, out=block[pos:pos + cnt])
        pos += cnt


class _Run:
    def __init__(self, path: str, chunk: int):
        self.fh = open(path, "rb")
        self.chunk = chunk
        self.buf = np.empty(0)
        self.exhausted = False
        self._load()

    def _load(self) -> None:
        raw = self.fh.read(self.chunk * 8)
        if not raw:
            self.exhausted = True
            self.fh.close()
            return
        arr = np.frombuffer(raw, dtype="<f8")
        self.buf = arr if not len(self.buf) else np.concatenate([self.buf, arr])

    def take_upto(self, horizon: float) -> np.ndarray:
        idx = np.searchsorted(self.buf, horizon, side="right")
        out, self.buf = self.buf[:idx], self.buf[idx:]
        return out

    def refill_if_low(self) -> None:
        while not self.exhausted and len(self.buf) < self.chunk:
            self._load()


def _merge_runs(paths: list[str], chunk: int) -> Iterator[np.ndarray]:
    """Chunked k-way merge of sorted float64 run files.

    Every element <= the smallest per-run buffer maximum is already
    buffered, so concatenating those prefixes and sorting them emits a
    globally correct sorted piece.
    """
    runs = [_Run(p, chunk) for p in paths]
    runs = [r for r in runs if len(r.buf) or not r.exhausted]
    while runs:
        live = [r for r in runs if not r.exhausted]
        if live:
            horizon = min(r.buf[-1] for r in live if len(r.buf))
        else:
            horizon = math.inf
        pieces = [r.take_upto(horizon) for r in runs]
        piece = np.concatenate([p for p in pieces if len(p)]) if pieces else np.empty(0)
        if len(piece):
            piece.sort()
            yield piece
        for r in runs:
            r.refill_if_low()
        runs = [r for r in runs if len(r.buf) or not r.exhausted]


# ---------------------------------------------------------------------------
# Consumers
# ---------------------------------------------------------------------------


def iter_windows(values: np.ndarray, window: int = _WINDOW) -> Iterator[np.ndarray]:
    """Overlapping views: each window repeats the previous last element, so
    per-window diffs cover every consecutive pair exactly once."""
    m = len(values)
    start = 0
    while start < m:
        stop = min(start + window, m)
        lo = start - 1 if start else 0
        yield values[lo:stop]
        start = stop


def gap_stats(spectrum: DistanceSpectrum, window: int = _WINDOW) -> GapStats:
    v = spectrum.values
    if len(v) < 2:
        raise ConfigError("need at least two distances for gap statistics")
    total = 0.0
    comp = 0.0
    max_gap = 0.0
    for w in iter_windows(v, window):
        g = np.diff(w)
        if not len(g):
            continue
        part = float(np.dot(g, g))
        # Kahan step across windows
        yv = part - comp
        t = total + yv
        comp = (t - total) - yv
        total = t
        mg = float(g.max())
        if mg > max_gap:
            max_gap = mg
    return GapStats(gap_sum_sq=total, max_gap=max_gap, gap_count=len(v) - 1)


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
        step = _WINDOW
        for i in range(0, len(v), step):
            fh.write(np.ascontiguousarray(v[i:i + step], dtype="<f8").tobytes())


def read_spectrum(path: str, point_count: int | None = None) -> DistanceSpectrum:
    """Map a dump read-only, so reading it holds no copy of the values."""
    size = os.path.getsize(path)
    if size < 8:
        raise ConfigError(f"spectrum file {path}: no count header")
    with open(path, "rb") as fh:
        count = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
    if size - 8 != 8 * count:
        raise ConfigError(f"spectrum file {path}: header says {count}, found {(size - 8) / 8:g}")
    values = np.memmap(path, dtype="<f8", mode="r", offset=8, shape=(count,))
    if point_count is None:
        # invert m = N(N-1)/2 when it is a triangular number, else mark unknown
        root = int((1 + math.isqrt(1 + 8 * count)) // 2)
        point_count = root if root * (root - 1) // 2 == count else 0
    return DistanceSpectrum(values, point_count)
