import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from distgaps import regions
from distgaps.construction import close_pairs
from distgaps.errors import ConfigError, DegenerateRegionError

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def naive_spectrum(points) -> np.ndarray:
    """Independent oracle: double loop over pairs, then a plain sort."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    out = []
    for i in range(len(pts)):
        xi, yi = pts[i]
        for j in range(i + 1, len(pts)):
            dx = xi - pts[j][0]
            dy = yi - pts[j][1]
            out.append(math.sqrt(dx * dx + dy * dy))
    out.sort()
    return np.asarray(out)


def brute_prune(points, threshold) -> np.ndarray:
    """Independent oracle: keep points with no other point strictly within
    threshold, by full pairwise comparison."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    keep = np.ones(n, dtype=bool)
    t2 = threshold * threshold
    for i in range(n):
        for j in range(n):
            if i != j:
                d2 = (pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2
                if d2 < t2:
                    keep[i] = False
                    break
    return pts[keep]


def min_pairwise_distance(points, cutoff: float) -> float:
    """Minimum pairwise distance if it is below cutoff, else +inf."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return math.inf
    i, j = close_pairs(pts, cutoff)
    if len(i) == 0:
        return math.inf
    d2 = ((pts[i] - pts[j]) ** 2).sum(axis=1)
    return float(np.sqrt(d2.min()))


# ---------------------------------------------------------------------------
# Sampling oracles: the membership test and the rejection sampler as they
# were before the lobes' band prefilter and the index gathers, the partner
# draw and the trial samples as they were before the column buffers and the
# rekeyed generator, and the Janson instances as drawn with one scalar draw
# per edge coin.  The library must reproduce them bit for bit, random draws
# included.
# ---------------------------------------------------------------------------


def partly_used(rng: np.random.Generator) -> np.random.Generator:
    """``rng`` with part of Philox's four-word buffer consumed, and half of a
    64-bit word left over for the next 32-bit draw."""
    rng.random(2)
    rng.integers(0, 2**32, dtype=np.uint32)
    state = rng.bit_generator.state
    assert state["buffer_pos"] != 4 and state["has_uint32"] == 1
    return rng


def oracle_contains(region, p):
    """Membership test; closed for Rectangle/Disk, strict for PolarLobes."""
    pts, scalar = regions._as_points(p)
    x, y = pts[:, 0], pts[:, 1]
    if isinstance(region, regions.Rectangle):
        out = (np.abs(x) <= region.half_width) & (np.abs(y) <= region.half_height)
    elif isinstance(region, regions.Disk):
        out = x * x + y * y <= region.radius * region.radius
    elif isinstance(region, regions.PolarLobes):
        R = region.outer_radius
        r = np.hypot(x, y)
        radial = (r > 0.9 * R) & (r < R - 1.0)
        out = np.zeros(len(pts), dtype=bool)
        if radial.any():
            theta = np.arctan2(y[radial], x[radial])
            axis_dist = np.minimum(np.abs(theta), np.pi - np.abs(theta))
            out[radial] = axis_dist < 0.5 * (R - r[radial]) ** -0.25
    else:
        raise ConfigError(f"unknown region type {type(region)!r}")
    return bool(out[0]) if scalar else out


def oracle_uniform_in_region(region, count: int, rng) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform points by bounding-box rejection."""
    if count == 0:
        return np.empty((0, 2))
    box = regions.bounding_box(region)
    exact = isinstance(region, regions.Rectangle)
    out = np.empty((count, 2))
    got = 0
    attempted = 0
    batch = max(1024, 2 * count)
    while got < count:
        pts = np.empty((batch, 2))
        pts[:, 0] = rng.uniform(-box.half_width, box.half_width, batch)
        pts[:, 1] = rng.uniform(-box.half_height, box.half_height, batch)
        keep = pts if exact else pts[oracle_contains(region, pts)]
        take = min(count - got, len(keep))
        out[got:got + take] = keep[:take]
        got += take
        attempted += batch
        if attempted >= 10_000_000 and got / attempted < 1e-4:
            raise DegenerateRegionError(
                f"acceptance rate {got / attempted:.2e} below {1e-4}"
            )
    return out


def oracle_annulus_partner_inside(region, xs, lo2: float, hi2: float, rng) -> np.ndarray:
    """Whether each centre's annulus partner lies in the region, the
    partners built as xs + column_stack(...)."""
    c = len(xs)
    rho = np.sqrt(rng.uniform(lo2, hi2, c))
    alpha = rng.uniform(0.0, 2.0 * math.pi, c)
    pts = xs + np.column_stack([rho * np.cos(alpha), rho * np.sin(alpha)])
    return np.asarray(oracle_contains(region, pts), dtype=bool)


def oracle_no_bond_samples(region, epsilon: float, trials: int, seed) -> list:
    """The Poisson sample of each of ``empirical_no_bond_prob``'s trials,
    drawn with two fresh generators per trial."""
    mean = regions.measure(region, regions.Density(epsilon))
    out = []
    for t in range(trials):
        trial = seed.substream(f"trial-{t:07d}")
        count = int(trial.substream("count").generator().poisson(mean))
        out.append(oracle_uniform_in_region(region, count, trial.substream("points").generator()))
    return out


def oracle_random_janson_instance(rng, max_ground_set: int = 12, max_prob: float = 0.3):
    """Random edge system, one scalar draw per edge coin."""
    from distgaps.nobonds import JansonInstance

    nv = int(rng.integers(2, max_ground_set + 1))
    probs = tuple(float(v) for v in rng.uniform(0.0, max_prob, nv))
    edge_prob = float(rng.uniform(0.1, 0.9))
    edges = tuple(
        (a, b)
        for a in range(nv)
        for b in range(a + 1, nv)
        if rng.random() < edge_prob
    )
    return JansonInstance(probs, edges)


@pytest.fixture(scope="session")
def rng_session():
    return np.random.default_rng(20240817)
