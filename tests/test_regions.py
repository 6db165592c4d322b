import math

import numpy as np
import pytest
from scipy.integrate import quad

from distgaps import regions
from distgaps.errors import ConfigError
from distgaps.regions import (
    Density,
    Disk,
    PolarLobes,
    Rectangle,
    bounding_box,
    contains,
    lobe_domain,
    measure,
    rect_domain,
    region_from_dict,
)
from tests.conftest import oracle_contains


def test_rectangle_contains():
    r = Rectangle(2.0, 3.0)
    assert contains(r, (0.0, 0.0))
    assert not contains(r, (2.5, 0.0))
    assert contains(r, (2.0, 3.0))  # closed boundary


def test_polar_lobes_contains_on_axis():
    # on the axis the angular condition 0 < half-width always holds
    n = 10**6
    R = n ** (4.0 / 7.0)
    lobes = PolarLobes(n)
    assert contains(lobes, (0.95 * R, 0.0))
    assert contains(lobes, (-0.95 * R, 0.0))      # antipodal lobe
    assert not contains(lobes, (0.95 * R * math.cos(1.0), 0.95 * R * math.sin(1.0)))
    assert not contains(lobes, (0.5 * R, 0.0))    # below inner radius
    assert not contains(lobes, (R, 0.0))          # beyond outer radius


def test_polar_lobes_two_sided_wedges():
    n = 10**6
    R = n ** (4.0 / 7.0)
    r = 0.95 * R
    half = 0.5 * (R - r) ** -0.25
    for base in (0.0, math.pi):
        for sgn in (+1.0, -1.0):
            ang_in = base + sgn * 0.9 * half
            ang_out = base + sgn * 1.1 * half
            assert contains(PolarLobes(n), (r * math.cos(ang_in), r * math.sin(ang_in)))
            assert not contains(PolarLobes(n), (r * math.cos(ang_out), r * math.sin(ang_out)))


@pytest.mark.parametrize("n", [10**4, 10**6, 10**7])
def test_lobes_contains_matches_oracle_at_the_edges(n):
    # points within 4 ulps (per coordinate) of both radii and of the
    # angular edge, on both lobes: the band prefilter on x*x + y*y must
    # leave every decision of the exact hypot/arctan2 test as it was
    lobes = PolarLobes(n)
    R = lobes.outer_radius
    rng = np.random.default_rng(n)
    m = 100_000
    parts = []
    for rad in (0.9 * R, R - 1.0):
        th = rng.uniform(-0.5, 0.5, m) + math.pi * rng.integers(0, 2, m)
        parts.append(np.column_stack([rad * np.cos(th), rad * np.sin(th)]))
    r = rng.uniform(0.9 * R, R - 1.0, m)
    th = rng.choice([-1.0, 1.0], m) * 0.5 * (R - r) ** -0.25 + math.pi * rng.integers(0, 2, m)
    parts.append(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    pts = np.concatenate(parts)
    pts += rng.integers(-4, 5, pts.shape) * np.spacing(pts)
    got = contains(lobes, pts)
    assert np.array_equal(got, oracle_contains(lobes, pts))
    for part in np.split(got, 3):
        assert 0 < part.sum() < len(part)      # both sides of each edge are hit
    for p in pts[:50]:
        assert contains(lobes, p) == oracle_contains(lobes, p)


def test_strip_measure_value():
    # area 2*n^(3/7) * 2*0.99*n^(4/7) = 3.96*n
    n = 10**6
    eps = 1e-3
    got = measure(rect_domain(n), Density(eps))
    assert got == pytest.approx(3.96 * eps * n, rel=1e-12)


def test_disk_measure():
    assert measure(Disk(1.0), Density(1.0)) == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6, 10**7, 2 * 10**7])
def test_lobes_area_against_quadrature(n):
    # the closed form against adaptive quadrature of 2*(R-r)^(-1/4)*r over
    # the annulus (0.9R, R-1)
    R = n ** (4.0 / 7.0)
    want, err = quad(lambda r: 2.0 * (R - r) ** -0.25 * r, 0.9 * R, R - 1.0,
                     epsrel=1e-13, limit=200)
    assert err <= 1e-13 * want
    assert regions.area(PolarLobes(n)) == pytest.approx(want, rel=1e-12)


def test_lobes_measure_order_theta_eps_n():
    for n in (10**5, 10**6, 3 * 10**6):
        ratio = measure(lobe_domain(n), Density(1e-3)) / (1e-3 * n)
        assert 0.3 < ratio < 0.6


def test_bounding_boxes():
    assert bounding_box(Disk(2.0)) == Rectangle(2.0, 2.0)
    r = Rectangle(1.0, 5.0)
    assert bounding_box(r) is r
    n = 10**5
    box = bounding_box(PolarLobes(n))
    R = n ** (4.0 / 7.0)
    assert box.half_width <= R and box.half_height <= R


@pytest.mark.parametrize("region", [
    Rectangle(1.5, 0.7),
    Disk(2.0),
    PolarLobes(10**5),
])
def test_contains_implies_in_bbox(region, rng_session):
    box = bounding_box(region)
    pts = np.column_stack([
        rng_session.uniform(-box.half_width * 1.5, box.half_width * 1.5, 100_000),
        rng_session.uniform(-box.half_height * 1.5, box.half_height * 1.5, 100_000),
    ])
    inside = contains(region, pts)
    in_box = contains(box, pts)
    assert not np.any(inside & ~in_box)


def test_measure_monotone_nested_disks():
    prev = 0.0
    for rad in (0.5, 1.0, 2.0, 4.0):
        cur = measure(Disk(rad), Density(0.7))
        assert cur >= prev
        prev = cur


@pytest.mark.parametrize("region", [
    Rectangle(1.5, 0.7),
    Disk(2.0),
    PolarLobes(10**5),
])
def test_monte_carlo_area_within_3_sigma(region, rng_session):
    box = bounding_box(region)
    m = 1_000_000
    pts = np.column_stack([
        rng_session.uniform(-box.half_width, box.half_width, m),
        rng_session.uniform(-box.half_height, box.half_height, m),
    ])
    hits = np.asarray(contains(region, pts))
    box_area = 4.0 * box.half_width * box.half_height
    p = hits.mean()
    est = p * box_area
    se = math.sqrt(p * (1 - p) / m) * box_area
    assert abs(est - regions.area(region)) <= 3.0 * se


def test_polar_lobes_requires_n_min():
    with pytest.raises(ConfigError):
        PolarLobes(5000)


def test_density_validation():
    with pytest.raises(ConfigError):
        Density(-1.0)


@pytest.mark.parametrize("d, want", [
    ({"kind": "rectangle", "half_width": 2.0, "half_height": 3.5}, Rectangle(2.0, 3.5)),
    ({"kind": "disk", "radius": 1}, Disk(1.0)),
    ({"kind": "polar_lobes", "n_param": 100000}, PolarLobes(10**5)),
    ({"kind": "polar_lobes", "n_param": 1e5}, PolarLobes(10**5)),
], ids=["rectangle", "disk", "polar_lobes", "polar_lobes_float"])
def test_region_from_dict(d, want):
    assert region_from_dict(d) == want


@pytest.mark.parametrize("d", [
    [1, 2],
    "disk",
    {"kind": "hexagon"},
    {"kind": "disk"},
    {"kind": "disk", "radius": "x"},
    {"kind": "disk", "radius": None},
    {"kind": "disk", "radius": True},
    {"kind": "disk", "radius": float("inf")},
    {"kind": "rectangle", "half_width": 1.0, "half_height": float("nan")},
    {"kind": "rectangle", "half_width": 1.0},
    {"kind": "polar_lobes", "n_param": 100000.5},
    {"kind": "polar_lobes", "n_param": float("inf")},
])
def test_region_from_dict_rejects_malformed(d):
    with pytest.raises(ConfigError):
        region_from_dict(d)
