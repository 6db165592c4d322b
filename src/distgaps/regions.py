"""Planar domains: membership tests, bounding boxes, and measures.

The regions are a closed set of three shapes, ``Rectangle``, ``Disk`` and
``PolarLobes``, each with a closed-form area; all are centered at the
origin.  ``PolarLobes`` is the two-sided wedge pair used by the
construction: radii strictly between ``0.9*R`` and ``R - 1`` (with
``R = n**(4/7)``), and circular angular distance to the nearest of the
directions {0, pi} strictly below ``0.5*(R - r)**(-1/4)``.
The lobes widen toward the outer radius and never wrap (max half-width 0.5
radian), so the two antipodal wedges are disjoint.

``contains`` takes points as any ``(N, 2)`` array or view, and does not
copy a float one: the samplers pass the transpose of a ``(2, N)`` column
buffer, whose columns are contiguous.

The lobe membership test runs over slices of ``_LOBE_SLICE`` points, so
its temporaries stay in cache and do not grow with the batch; each point's
decision depends on that point alone.  In each slice it first keeps the
points whose ``s = x*x + y*y`` lies in the band
``(0.9R)^2 (1 - 1e-12) < s < (R-1)^2 (1 + 1e-12)``, about a
tenth of the bounding box, and runs the exact ``hypot``/``arctan2`` test on
those only.  ``s`` and ``hypot`` are each within a few ulps of the true
r^2 and r, far inside the 1e-12 widening, so no point that the exact test
accepts is dropped by the band: the decisions are those of the exact test
alone, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError

# Below this construction parameter the lobes degenerate (the annulus
# 0.9*R < r < R-1 becomes too thin for the separation guarantees).
N_MIN = 10_000

# relative widening of the lobes' radial band when it is tested on x*x + y*y
_BAND_MARGIN = 1e-12
# points per slice of the lobes' test (256 KiB per float temporary)
_LOBE_SLICE = 1 << 15


@dataclass(frozen=True)
class Density:
    """Constant density per unit area."""

    value: float

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ConfigError(f"density must be finite and >= 0, got {self.value}")


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [-half_width, half_width] x [-half_height, half_height]."""

    half_width: float
    half_height: float

    def __post_init__(self) -> None:
        if not (0 < self.half_width < math.inf and 0 < self.half_height < math.inf):
            raise ConfigError("rectangle half-extents must be positive and finite")


@dataclass(frozen=True)
class Disk:
    """Closed disk of the given radius around the origin."""

    radius: float

    def __post_init__(self) -> None:
        if not 0 < self.radius < math.inf:
            raise ConfigError("disk radius must be positive and finite")


@dataclass(frozen=True)
class PolarLobes:
    """Antipodal wedge pair parameterized by the construction size n."""

    n_param: int

    def __post_init__(self) -> None:
        if self.n_param < N_MIN:
            raise ConfigError(f"PolarLobes requires n >= {N_MIN}, got {self.n_param}")

    @property
    def outer_radius(self) -> float:
        return float(self.n_param) ** (4.0 / 7.0)


Region = Union[Rectangle, Disk, PolarLobes]


def _as_points(p) -> tuple[np.ndarray, bool]:
    pts = np.asarray(p, dtype=float)
    scalar = pts.ndim == 1
    if scalar:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(f"expected points of shape (N, 2), got {pts.shape}")
    return pts, scalar


def contains(region: Region, p) -> bool | np.ndarray:
    """Membership test; closed for Rectangle/Disk, strict for PolarLobes."""
    pts, scalar = _as_points(p)
    x, y = pts[:, 0], pts[:, 1]
    if isinstance(region, Rectangle):
        out = (np.abs(x) <= region.half_width) & (np.abs(y) <= region.half_height)
    elif isinstance(region, Disk):
        out = x * x + y * y <= region.radius * region.radius
    elif isinstance(region, PolarLobes):
        out = np.zeros(len(pts), dtype=bool)
        # slice by slice, so the test's temporaries do not grow with the batch
        for a in range(0, len(pts), _LOBE_SLICE):
            b = a + _LOBE_SLICE
            _mark_lobes(region, x[a:b], y[a:b], out[a:b])
    else:
        raise ConfigError(f"unknown region type {type(region)!r}")
    return bool(out[0]) if scalar else out


def _mark_lobes(region: PolarLobes, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Set ``out`` (all False) to True at the points (x, y) in the lobes."""
    R = region.outer_radius
    lo, hi = 0.9 * R, R - 1.0
    s = x * x
    s += y * y
    # band prefilter on s ~ r^2, widened far beyond its few-ulp error;
    # the exact test below runs on the survivors only
    band = s > lo * lo * (1.0 - _BAND_MARGIN)
    band &= s < hi * hi * (1.0 + _BAND_MARGIN)
    cand = np.flatnonzero(band)
    r = np.hypot(x[cand], y[cand])
    radial = (r > lo) & (r < hi)
    cand, r = cand[radial], r[radial]
    theta = np.arctan2(y[cand], x[cand])
    axis_dist = np.minimum(np.abs(theta), np.pi - np.abs(theta))
    out[cand] = axis_dist < 0.5 * (R - r) ** -0.25


def area(region: Region) -> float:
    """Area under unit density."""
    if isinstance(region, Rectangle):
        return 4.0 * region.half_width * region.half_height
    if isinstance(region, Disk):
        return math.pi * region.radius**2
    if isinstance(region, PolarLobes):
        return _lobes_area(region)
    raise ConfigError(f"unknown region type {type(region)!r}")


def measure(region: Region, density: Density) -> float:
    """Total mass density.value * Area(region)."""
    return density.value * area(region)


def _lobes_area(region: PolarLobes) -> float:
    # Angular measure at radius r is 4 * 0.5*(R-r)^(-1/4): two lobes, each
    # two-sided.  The area is the integral of 2*(R-r)^(-1/4) * r dr over
    # (0.9R, R-1); with u = R - r its antiderivative is
    # F(u) = 2*(4R/3 * u^(3/4) - 4/7 * u^(7/4)), taken from u = 1 to 0.1R.
    R = region.outer_radius

    def F(u: float) -> float:
        return 2.0 * (4.0 * R / 3.0 * u**0.75 - 4.0 / 7.0 * u**1.75)

    return F(0.1 * R) - F(1.0)


def bounding_box(region: Region) -> Rectangle:
    """Minimal axis-aligned box for Rectangle/Disk; conservative for lobes."""
    if isinstance(region, Rectangle):
        return region
    if isinstance(region, Disk):
        return Rectangle(region.radius, region.radius)
    if isinstance(region, PolarLobes):
        R = region.outer_radius
        # widest half-angle is 0.5 rad, reached at the outer edge r = R-1
        return Rectangle(R - 1.0, (R - 1.0) * math.sin(0.5))
    raise ConfigError(f"unknown region type {type(region)!r}")


def diameter_upper_bound(region: Region) -> float:
    """Upper bound on the distance between any two region points (exact for
    Rectangle/Disk, the outer diameter for PolarLobes)."""
    if isinstance(region, Disk):
        return 2.0 * region.radius
    if isinstance(region, Rectangle):
        return 2.0 * math.hypot(region.half_width, region.half_height)
    if isinstance(region, PolarLobes):
        return 2.0 * (region.outer_radius - 1.0)
    raise ConfigError(f"unknown region type {type(region)!r}")


def rect_domain(n: int) -> Rectangle:
    """The construction's strip: |x| <= n^(3/7), |y| <= 0.99*n^(4/7)."""
    if n < N_MIN:
        raise ConfigError(f"construction parameter must be >= {N_MIN}, got {n}")
    return Rectangle(float(n) ** (3.0 / 7.0), 0.99 * float(n) ** (4.0 / 7.0))


def lobe_domain(n: int) -> PolarLobes:
    """The construction's antipodal wedge pair."""
    return PolarLobes(n)


def _number(d: dict, key: str) -> float:
    if key not in d:
        raise ConfigError(f"region {d.get('kind')!r} needs the field {key!r}")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"region field {key!r} must be a number, got {v!r}")
    return float(v)


def region_from_dict(d) -> Region:
    """Region from its tagged form {"kind": ..., <parameters>}, as given to
    ``nobonds-verify --region``; malformed input raises ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"region must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "rectangle":
        return Rectangle(_number(d, "half_width"), _number(d, "half_height"))
    if kind == "disk":
        return Disk(_number(d, "radius"))
    if kind == "polar_lobes":
        n = _number(d, "n_param")
        if not n.is_integer():
            raise ConfigError(f"region field 'n_param' must be an integer, got {d['n_param']!r}")
        return PolarLobes(int(n))
    raise ConfigError(f"unknown region kind {kind!r}")
