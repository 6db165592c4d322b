import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    return DistanceSpectrum(arr, 0)


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


def test_thread_invariance(rng_session):
    pts = rng_session.uniform(0.0, 10.0, size=(700, 2))
    a = all_pair_distances(pts, threads=1)
    b = all_pair_distances(pts, threads=2)
    assert np.array_equal(a.values, b.values)


def test_external_engine_equals_packed(rng_session):
    # a 4 MiB budget forces block spill and k-way merge for 900 points
    pts = rng_session.uniform(0.0, 50.0, size=(900, 2))
    packed = all_pair_distances(pts, memory_budget_bytes=1 << 30)
    external = all_pair_distances(pts, memory_budget_bytes=1 << 22)
    assert external._backing is not None
    assert np.array_equal(packed.values, np.asarray(external.values))
    external.close()


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40)
def test_engines_agree_random(count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5.0, 5.0, size=(count, 2))
    a = all_pair_distances(pts)
    b = all_pair_distances(pts, memory_budget_bytes=1 << 22)
    assert np.array_equal(a.values, np.asarray(b.values))
    assert np.array_equal(a.values, naive_spectrum(pts))
    b.close()


def test_hard_cap():
    pts = np.zeros((2000, 2))
    with pytest.raises(SpectrumSizeError):
        all_pair_distances(pts, hard_cap=1000)


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


def test_gap_stats_windowing_invariant(rng_session):
    vals = np.sort(rng_session.uniform(1.0, 100.0, 10_001))
    sp = spectrum_of(vals)
    full = gap_stats(sp, window=1 << 24)
    small = gap_stats(sp, window=257)
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
    assert back.point_count == 60
    # header: little-endian uint64 count
    raw = path.read_bytes()
    assert int.from_bytes(raw[:8], "little") == sp.m


def test_truncated_dump_is_config_error(tmp_path):
    path = tmp_path / "spec.bin"
    write_spectrum(DistanceSpectrum(np.array([1.0, 1.5, 2.0]), 3), str(path))
    raw = path.read_bytes()
    for cut in (len(raw) - 8, len(raw) - 3, 5):
        path.write_bytes(raw[:cut])
        with pytest.raises(ConfigError):
            read_spectrum(str(path))
