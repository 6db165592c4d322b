import math
import mmap
import os
import signal
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distgaps import spectrum
from distgaps.errors import ConfigError, SpectrumSizeError
from distgaps.spectrum import (
    DistanceSpectrum,
    all_pair_distances,
    count_in_range,
    equal_spacing_lower_bound,
    gap_stats,
    read_spectrum,
    write_spectrum,
)
from tests.conftest import naive_spectrum


def spectrum_of(values) -> DistanceSpectrum:
    arr = np.sort(np.asarray(values, dtype=float))
    return DistanceSpectrum(arr)


def test_collinear_triple():
    sp = all_pair_distances(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert sp.values.tolist() == [1.0, 1.0, 2.0]


def test_unit_square_corners():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sp = all_pair_distances(pts)
    r2 = math.sqrt(2.0)
    assert sp.values.tolist() == [1.0, 1.0, 1.0, 1.0, r2, r2]


def test_matches_naive_oracle_random_500(rng_session):
    pts = rng_session.uniform(-100.0, 100.0, size=(500, 2))
    sp = all_pair_distances(pts)
    assert np.array_equal(sp.values, naive_spectrum(pts))


def test_permutation_invariance(rng_session):
    pts = rng_session.uniform(0.0, 10.0, size=(300, 2))
    a = all_pair_distances(pts)
    b = all_pair_distances(pts[rng_session.permutation(300)])
    assert np.array_equal(a.values, b.values)


def test_external_engine_equals_packed(rng_session):
    # a 4 MiB budget holds 393,216 distances, so 900 points (404,550) take
    # a histogram pass and two range passes into the backing file
    pts = rng_session.uniform(0.0, 50.0, size=(900, 2))
    packed = all_pair_distances(pts, memory_budget_bytes=1 << 30)
    external = all_pair_distances(pts, memory_budget_bytes=1 << 22)
    assert isinstance(external.values, np.memmap)
    assert np.array_equal(packed.values, np.asarray(external.values))
    # close() drops a file-backed spectrum's values and keeps in-memory ones
    values, m = packed.values, packed.m
    packed.close()
    assert packed.values is values and packed.m == m
    external.close()
    assert not isinstance(external.values, np.memmap) and external.m == 0


_CAP_4MIB = int(0.75 * (1 << 22)) // 8


def _layout(name: str, count: int, rng) -> np.ndarray:
    if name == "uniform":
        return rng.uniform(-5.0, 5.0, size=(count, 2))
    if name == "lattice":
        # every integer distance (all are below 64) is a histogram bin edge
        cells = rng.choice(40 * 40, size=count, replace=False)
        return np.column_stack([cells // 40, cells % 40]).astype(float)
    if name == "clusters":
        # three tight clusters on an equilateral triangle of side 1000 put
        # the ~count**2/3 cross distances in one bin over the cap
        corners = np.array([[0.0, 0.0], [1000.0, 0.0], [500.0, 500.0 * math.sqrt(3.0)]])
        tight = corners[np.arange(count - 5) % 3] + rng.normal(0.0, 1e-9, size=(count - 5, 2))
        return np.vstack([tight, rng.uniform(-3000.0, 3000.0, size=(5, 2))])
    # coincident: 900 equal points give 404,550 zero distances, one float
    # value over the cap
    return np.vstack([np.full((900, 2), 3.25), rng.uniform(0.0, 10.0, size=(count - 900, 2))])


@given(st.integers(min_value=1100, max_value=1300), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=3)
def test_engines_agree_random(count, seed):
    rng = np.random.default_rng(seed)
    for layout in ("uniform", "lattice", "clusters", "coincident"):
        _check_range_passes(layout, _layout(layout, count, rng))


@pytest.mark.parametrize("select", [1, 7])
def test_range_passes_any_group_size(monkeypatch, select):
    # groups of one row each (1), and rows longer than a group (7)
    monkeypatch.setattr(spectrum, "_SELECT", select)
    rng = np.random.default_rng(select)
    for layout in ("uniform", "lattice", "clusters", "coincident"):
        _check_range_passes(layout, _layout(layout, 1100, rng))


@pytest.mark.parametrize("count", [887, 888])
def test_cap_boundary(rng_session, count):
    # at the 4 MiB floor, 887 points (m = 392,941) fit the cap of 393,216
    # and take one pass, with no histogram and no file; 888 (m = 393,828)
    # spill; every pass, the buffered ones and the in-place [0, inf) fill,
    # walks the row groups once
    pts = rng_session.uniform(0.0, 50.0, size=(count, 2))
    with mock.patch.object(spectrum, "_bins", wraps=spectrum._bins) as bins, \
            mock.patch.object(spectrum, "_groups", wraps=spectrum._groups) as groups:
        sp = all_pair_distances(pts, memory_budget_bytes=1 << 22)
    spilled = sp.m > _CAP_4MIB
    assert spilled == (count == 888)
    assert isinstance(sp.values, np.memmap) == spilled
    if not spilled:
        assert bins.call_count == 0 and groups.call_count == 1
    assert np.array_equal(np.asarray(sp.values), naive_spectrum(pts))
    sp.close()


def _check_range_passes(layout: str, pts: np.ndarray) -> None:
    histograms, ranges, passes = [], [], []
    count_bins, merge, blocks = spectrum._bins, spectrum._merge_bins, spectrum._blocks

    def spy_bins(*args):
        histograms.append(args)
        return count_bins(*args)

    def spy_merge(bins, cap):
        ranges.extend(merge(bins, cap))
        return ranges

    def spy_blocks(*args):
        passes.append(args)
        return blocks(*args)

    with mock.patch.object(spectrum, "_bins", spy_bins), \
            mock.patch.object(spectrum, "_merge_bins", spy_merge), \
            mock.patch.object(spectrum, "_blocks", spy_blocks):
        b = all_pair_distances(pts, memory_budget_bytes=1 << 22)
    a = all_pair_distances(pts)
    assert len(ranges) >= 2
    # a range one float value wide takes no pass; every other range holds
    # at most the cap
    single = [(lo, hi) for lo, hi, _ in ranges if hi == np.nextafter(lo, math.inf)]
    over_cap = [(lo, hi) for lo, hi, n in ranges if n > _CAP_4MIB]
    assert set(over_cap) <= set(single)
    assert len(passes) == len(histograms) + len(ranges) - len(single)
    if layout == "clusters":
        assert len(histograms) >= 2        # the bin over the cap was split
    if layout == "coincident":
        assert over_cap == [(0.0, np.nextafter(0.0, 1.0))]
    assert np.array_equal(a.values, np.asarray(b.values))
    assert np.array_equal(a.values, naive_spectrum(pts))
    b.close()


def test_failed_pass_leaves_no_file(tmp_path, monkeypatch, rng_session):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    pts = rng_session.uniform(0.0, 50.0, size=(900, 2))
    fill = spectrum._fill_rows_into
    passes = []

    def failing(block, x, y, i0, i1):
        if i0 == 0:
            passes.append(i0)
            if len(passes) == 3:        # histogram, first range, second range
                raise OSError("disk full")
        fill(block, x, y, i0, i1)

    monkeypatch.setattr(spectrum, "_fill_rows_into", failing)
    with pytest.raises(OSError, match="disk full"):
        all_pair_distances(pts, memory_budget_bytes=1 << 22)
    assert len(passes) == 3
    assert list(tmp_path.iterdir()) == []


_SPILL_THEN_KILL = """
import os, signal, sys
import numpy as np
from distgaps.spectrum import all_pair_distances
pts = np.random.default_rng(3).uniform(0.0, 50.0, size=(900, 2))
sp = all_pair_distances(pts, memory_budget_bytes=1 << 22)
print(isinstance(sp.values, np.memmap), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_killed_run_leaves_no_file(tmp_path):
    # the process dies with a file-backed spectrum alive: no cleanup code runs
    import distgaps

    src = os.path.dirname(os.path.dirname(distgaps.__file__))
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    out = subprocess.run([sys.executable, "-c", _SPILL_THEN_KILL], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == -signal.SIGKILL, out.stderr
    assert out.stdout.strip() == "True"
    assert list(tmp_path.iterdir()) == []


_WALKS_AFTER_SPILL = """
import os, resource, sys
import numpy as np
from distgaps import canonical, spectrum

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

# 4,000 lattice points 1.5 apart: m = 7,998,000 distances, a 64 MB file,
# spilled at a 32 MiB budget
side = np.arange(64) * 1.5
pts = np.column_stack([np.repeat(side, 64), np.tile(side, 64)])[:4000]
sp = spectrum.all_pair_distances(pts, memory_budget_bytes=32 << 20)
assert isinstance(sp.values, np.memmap)
engine = peak_mb()
spectrum.gap_stats(sp)
audit = canonical.audit_gap_witnesses(sp)
canonical.empty_canonical_survey(sp, 1500, canonical.default_k_max(1500))
path = os.path.join(sys.argv[1], "spec.bin")
spectrum.write_spectrum(sp, path)
assert canonical.audit_gap_witnesses(spectrum.read_spectrum(path)) == audit
print(peak_mb() - engine)
"""


def test_walks_release_mapped_pages(tmp_path):
    # every walk over a file-backed spectrum drops the pages behind it, so
    # after the engine's peak five walks over the 64 MB spill file and a
    # 64 MB dump of it add little; keeping the pages mapped adds over 64 MB
    import distgaps

    src = os.path.dirname(os.path.dirname(distgaps.__file__))
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    out = subprocess.run([sys.executable, "-c", _WALKS_AFTER_SPILL, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 16.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_non_finite_coordinates_rejected(bad):
    pts = np.array([[0.0, 0.0], [1.0, bad], [2.0, 0.0]])
    with pytest.raises(ConfigError):
        all_pair_distances(pts)


def test_hard_cap(monkeypatch):
    monkeypatch.setattr(spectrum, "DEFAULT_HARD_CAP", 1000)
    pts = np.zeros((2000, 2))
    with pytest.raises(SpectrumSizeError):
        all_pair_distances(pts)


def test_needs_two_points():
    with pytest.raises(ConfigError):
        all_pair_distances(np.array([[0.0, 0.0]]))


# ---------------------------------------------------------------------------
# gap statistics
# ---------------------------------------------------------------------------


def test_gap_stats_hand_values():
    gs = gap_stats(spectrum_of([1.0, 1.0, 2.0]))
    assert gs.gap_sum_sq == 1.0
    assert gs.max_gap == 1.0
    assert gs.gap_count == 2

    gs = gap_stats(spectrum_of([1.0, 1.0, 2.0, 2.5]))
    assert gs.gap_sum_sq == pytest.approx(1.25, rel=1e-15)

    gs = gap_stats(spectrum_of([3.0] * 50))
    assert gs.gap_sum_sq == 0.0
    assert gs.max_gap == 0.0


def test_gap_stats_windowing_invariant(rng_session, monkeypatch):
    vals = np.sort(rng_session.uniform(1.0, 100.0, 10_001))
    sp = spectrum_of(vals)
    full = gap_stats(sp)
    monkeypatch.setattr(spectrum, "_WINDOW", 257)
    small = gap_stats(sp)
    assert full.gap_sum_sq == pytest.approx(small.gap_sum_sq, rel=1e-14)
    assert full.max_gap == small.max_gap
    assert full.gap_count == small.gap_count == 10_000


def test_count_in_range():
    sp = spectrum_of([1.0, 1.0, 2.0])
    assert count_in_range(sp, 1.0, 1.0) == 2
    assert count_in_range(sp, 3.0, 4.0) == 0
    assert count_in_range(sp, 1.0, 2.0) == 3
    assert count_in_range(sp, 1.5, 2.0) == 1


def test_equal_spacing_lower_bound_values():
    assert equal_spacing_lower_bound(2.0, 2, 1.0) == 1.0
    assert equal_spacing_lower_bound(5.0, 11, 5.0) == 0.0
    assert equal_spacing_lower_bound(3.0, 5, 1.0) == 1.0


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=100)
def test_gap_sum_dominates_equal_spacing_bound(count, seed):
    # Cauchy-Schwarz: sum of squared gaps >= (d_m - d_1)^2 / (m - 1)
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.uniform(1.0, 50.0, count))
    sp = spectrum_of(vals)
    gs = gap_stats(sp)
    bound = equal_spacing_lower_bound(sp.d_max, sp.m, sp.d_min)
    assert gs.gap_sum_sq >= bound * (1.0 - 1e-12)


def test_dump_roundtrip(tmp_path, rng_session):
    pts = rng_session.uniform(0.0, 10.0, size=(60, 2))
    sp = all_pair_distances(pts)
    path = tmp_path / "spec.bin"
    write_spectrum(sp, str(path))
    back = read_spectrum(str(path))
    assert np.array_equal(np.asarray(back.values), sp.values)
    # header: little-endian uint64 count
    raw = path.read_bytes()
    assert int.from_bytes(raw[:8], "little") == sp.m


@pytest.mark.parametrize("window", [1, 7, 1 << 15])
def test_dump_bytes_in_any_chunking(tmp_path, rng_session, monkeypatch, window):
    # a spilled (memmap-backed) spectrum, written in chunks of any size,
    # gives the count header and the values as little-endian float64
    pts = rng_session.uniform(0.0, 50.0, size=(900, 2))
    sp = all_pair_distances(pts, memory_budget_bytes=1 << 22)
    assert isinstance(sp.values, np.memmap)
    monkeypatch.setattr(spectrum, "_WINDOW", window)
    # the walk drops the mapped pages behind it after every page of values
    monkeypatch.setattr(spectrum, "_RELEASE_STRIDE", mmap.PAGESIZE // 8)
    path = tmp_path / "spec.bin"
    write_spectrum(sp, str(path))
    want = sp.m.to_bytes(8, "little") + np.asarray(sp.values).astype("<f8").tobytes()
    assert path.read_bytes() == want
    sp.close()


def test_truncated_dump_is_config_error(tmp_path):
    path = tmp_path / "spec.bin"
    write_spectrum(DistanceSpectrum(np.array([1.0, 1.5, 2.0])), str(path))
    raw = path.read_bytes()
    for cut in (len(raw) - 8, len(raw) - 3, 5):
        path.write_bytes(raw[:cut])
        with pytest.raises(ConfigError):
            read_spectrum(str(path))
