import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distgaps.construction import (
    DistanceClass,
    assemble,
    build_circle_points,
    build_lobe_points,
    build_rect_points,
    class_limits,
    close_pairs,
    export_points,
    load_points,
    nominal_diameter,
    prune_close_pairs,
)
from distgaps.errors import ConfigError
from distgaps.poisson import Seed, sample_poisson
from distgaps.regions import Density, Rectangle
from tests.conftest import brute_prune, min_pairwise_distance


def classify_distance(t: float, n: int) -> DistanceClass:
    """Partition of [1, D]: moderate <= 1.96*n^(4/7) < large <= D-3 < extra large."""
    D = nominal_diameter(n)
    if not (1.0 <= t <= D):
        raise ConfigError(f"distance {t} outside [1, {D}]")
    moderate_hi, large_hi = class_limits(n)
    if t <= moderate_hi:
        return DistanceClass.MODERATE
    if t <= large_hi:
        return DistanceClass.LARGE
    return DistanceClass.EXTRA_LARGE


# ---------------------------------------------------------------------------
# prune_close_pairs
# ---------------------------------------------------------------------------


def test_prune_deletes_both_members():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0]])
    kept = prune_close_pairs(pts, 1.0)
    assert kept.tolist() == [[10.0, 0.0]]


def test_prune_keeps_separated_points():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert prune_close_pairs(pts, 1.0).tolist() == pts.tolist()


def test_prune_threshold_is_strict():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert len(prune_close_pairs(pts, 1.0)) == 2


def test_prune_duplicates_removed():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    assert prune_close_pairs(pts, 1.0).tolist() == [[5.0, 5.0]]


def test_prune_matches_brute_force_poisson_sample():
    pts = sample_poisson(Rectangle(50.0, 50.0), Density(1.0), Seed(3))
    assert len(pts) > 9_000
    got = prune_close_pairs(pts, 1.0)
    want = brute_prune(pts, 1.0)
    assert np.array_equal(got, want)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60)
def test_prune_matches_brute_force_random(count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 8.0, size=(count, 2))
    got = prune_close_pairs(pts, 1.0)
    want = brute_prune(pts, 1.0)
    assert np.array_equal(got, want)


def brute_close_pairs(pts, threshold):
    """Oracle: every pair (i, j), i < j, with squared distance below threshold^2."""
    t2 = threshold * threshold
    pairs = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if (pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2 < t2:
                pairs.append((i, j))
    return sorted(pairs)


@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=80),
    st.lists(st.integers(0, 79), max_size=10),
    st.sampled_from([0.3, 1.0, 2.5]),
)
@example(cells=[(a, b) for a in range(-3, 4) for b in range(-3, 4)], dups=[], threshold=1.0)
@settings(max_examples=200, deadline=None)
def test_close_pairs_equals_double_loop(cells, dups, threshold):
    # half-threshold lattice centred on 0: negative cells, points on cell
    # edges, pairs exactly at the threshold, and duplicated points
    pts = np.array(cells, dtype=float).reshape(-1, 2) * (0.5 * threshold)
    if len(pts):
        pts = np.vstack([pts, pts[[d % len(pts) for d in dups]]])
    i, j = close_pairs(pts, threshold)
    assert np.all(i < j)
    got = list(zip(i.tolist(), j.tolist()))
    assert len(got) == len(set(got))          # each pair reported once
    assert sorted(got) == brute_close_pairs(pts, threshold)


def test_min_pairwise_distance_grid_vs_brute(rng_session):
    pts = rng_session.uniform(0.0, 30.0, size=(400, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    want = d.min()
    got = min_pairwise_distance(pts, 5.0)
    assert got == pytest.approx(want, rel=0, abs=0)
    assert min_pairwise_distance(pts, want * 0.5) == math.inf


# ---------------------------------------------------------------------------
# parts
# ---------------------------------------------------------------------------


def test_rect_part_expected_raw_count():
    # E[raw] = 3.96 * eps * n; average over seeds within 4 sigma
    n, eps, seeds = 10**6, 1e-3, 20
    raws = [build_rect_points(n, eps, Seed(s)).raw_count for s in range(seeds)]
    want = 3.96 * eps * n
    se = math.sqrt(want / seeds)
    assert abs(np.mean(raws) - want) <= 4.0 * se


def test_rect_part_zero_density_empty():
    part = build_rect_points(10**5, 0.0, Seed(1))
    assert part.raw_count == 0 and len(part.points) == 0


def test_rect_part_deletion_rate_oracle():
    # per-point deletion probability is about 1 - exp(-eps*pi) ~ 0.00314;
    # the 20-seed mean fraction must stay under 0.01
    n, eps, seeds = 10**6, 1e-3, 20
    parts = [build_rect_points(n, eps, Seed(s)) for s in range(seeds)]
    frac = np.mean([p.deleted_fraction for p in parts])
    assert frac <= 0.01
    assert frac == pytest.approx(1.0 - math.exp(-eps * math.pi), abs=0.004)


def test_lobe_part_radial_bounds_and_count():
    n, eps = 10**6, 1e-3
    R = n ** (4.0 / 7.0)
    part = build_lobe_points(n, eps, Seed(5))
    r = np.hypot(part.points[:, 0], part.points[:, 1])
    assert np.all((r > 0.9 * R) & (r < R - 1.0))
    # expected raw count = eps * Area(lobes) ~ 0.447 * eps * n at n=1e6
    want = 0.4467 * eps * n
    assert abs(part.raw_count - want) <= 5.0 * math.sqrt(want)


def test_parts_min_distance_after_prune():
    for builder in (build_rect_points, build_lobe_points):
        part = builder(10**5, 1e-3, Seed(9))
        assert min_pairwise_distance(part.points, 1.0) == math.inf


# ---------------------------------------------------------------------------
# circle part (deterministic)
# ---------------------------------------------------------------------------


def test_circle_count_formula():
    for n in (10**4, 10**5, 10**6):
        R = n ** (4.0 / 7.0)
        pts = build_circle_points(n)
        assert len(pts) == 2 * (math.floor(R / 2.0) + 1)


def test_circle_antipodal_pair_realizes_diameter():
    n = 10**6
    pts = build_circle_points(n)
    half = len(pts) // 2
    d = math.dist(pts[0], pts[half])      # first point of each arc
    assert d == pytest.approx(nominal_diameter(n), rel=1e-12)


def test_circle_min_distance_at_least_one():
    for n in (10**4, 3 * 10**4, 10**5, 10**6):
        pts = build_circle_points(n)
        assert min_pairwise_distance(pts, 1.0) == math.inf


def test_circle_cross_arc_angle_identity():
    # geometric angle between arc points: pi - 2*(t-s)/R - 8*t/R^2 for t >= s
    n = 10**6
    R = n ** (4.0 / 7.0)
    pts = build_circle_points(n)
    half = len(pts) // 2
    rng = np.random.default_rng(0)
    for _ in range(25):
        s, t = sorted(rng.integers(0, half, size=2))
        u = pts[s] / R
        v = pts[half + t] / R
        ang = math.acos(max(-1.0, min(1.0, float(u @ v))))
        want = math.pi - 2.0 * (t - s) / R - 8.0 * t / R**2
        assert ang == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_deterministic():
    a = assemble(10**5, 1e-3, Seed(11))
    b = assemble(10**5, 1e-3, Seed(11))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_assemble_cross_part_separation():
    con = assemble(10**5, 1e-3, Seed(2))
    i, j = close_pairs(con.points, 1.0)
    assert len(i) == 0
    # spot-check across parts with a coarser cutoff: nothing below 1
    assert min_pairwise_distance(con.points, 1.0) == math.inf


def test_assemble_realized_count_scale():
    n = 10**6
    con = assemble(n, 1e-3, Seed(1))
    # |rect| ~ 3960, |lobes| ~ 447, |circle| = 2684
    assert 3500 < len(con.part("rect")) < 4400
    assert 300 < len(con.part("lobes")) < 600
    assert len(con.part("circle")) == 2684
    assert con.realized_points == sum(
        len(con.part(p)) for p in ("rect", "lobes", "circle")
    )


def test_export_load_roundtrip(tmp_path):
    con = assemble(10**4, 1e-3, Seed(6))
    path = tmp_path / "points.txt"
    export_points(con, str(path))
    pts, labels, meta = load_points(str(path))
    assert np.array_equal(pts, con.points)
    assert np.array_equal(labels, con.labels)
    assert meta["n"] == "10000" and meta["seed"] == "6"


# ---------------------------------------------------------------------------
# distance classes
# ---------------------------------------------------------------------------


def test_classify_boundaries():
    n = 10**6
    R = n ** (4.0 / 7.0)
    D = nominal_diameter(n)
    assert classify_distance(1.0, n) is DistanceClass.MODERATE
    assert classify_distance(1.96 * R, n) is DistanceClass.MODERATE
    assert classify_distance(1.96 * R + 1e-6, n) is DistanceClass.LARGE
    assert classify_distance(D - 3.0, n) is DistanceClass.LARGE
    assert classify_distance(D - 2.999, n) is DistanceClass.EXTRA_LARGE
    assert classify_distance(D, n) is DistanceClass.EXTRA_LARGE
    with pytest.raises(ConfigError):
        classify_distance(0.5, n)
    with pytest.raises(ConfigError):
        classify_distance(D + 1.0, n)


@given(st.floats(min_value=1.0, max_value=2.0))
def test_classify_partitions_unit_scale(frac):
    n = 10**5
    D = nominal_diameter(n)
    t = min(max(frac * D / 2.0, 1.0), D)
    assert classify_distance(t, n) in DistanceClass
