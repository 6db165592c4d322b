"""Three-part point construction and its pruning/classification rules.

Parts:
  rect   - Poisson sample on the strip |x| <= n^(3/7), |y| <= 0.99*n^(4/7)
  lobes  - Poisson sample on the antipodal wedge pair (see regions.PolarLobes)
  circle - explicit deterministic points on the circle of radius n^(4/7)

Within the two random parts, every point that has another point of the same
part strictly closer than 1 is deleted (both members of a close pair go).
Across parts the separation is geometric: the strip stays near the y-axis,
the lobes hug the x-axis at radii in (0.9*R, R-1), and the circle points sit
at radius R, so cross-part distances exceed 1 by construction.  ``assemble``
verifies this instead of re-pruning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from . import poisson, regions
from .errors import ConfigError, InvariantViolation, open_input
from .poisson import Seed, as_seed
from .regions import N_MIN, Density

PART_RECT = "rect"
PART_LOBES = "lobes"
PART_CIRCLE = "circle"
PART_CODES = {PART_RECT: 0, PART_LOBES: 1, PART_CIRCLE: 2}
PART_NAMES = {v: k for k, v in PART_CODES.items()}


class DistanceClass(Enum):
    MODERATE = "moderate"
    LARGE = "large"
    EXTRA_LARGE = "extra_large"


def nominal_diameter(n: int) -> float:
    return 2.0 * float(n) ** (4.0 / 7.0)


def class_limits(n: int) -> tuple[float, float]:
    """Upper ends (1.96*n^(4/7), D - 3) of the moderate and large classes."""
    return 1.96 * float(n) ** (4.0 / 7.0), nominal_diameter(n) - 3.0


# ---------------------------------------------------------------------------
# Uniform-grid close-pair machinery
# ---------------------------------------------------------------------------


def close_pairs(points: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, with |p_i - p_j| strictly below threshold.

    The points are sorted by a packed key of their grid cell (side =
    threshold), so each occupied cell is one run of the sorted order, and
    cells (cx, cy) and (cx, cy + 1) have consecutive keys.  So the forward
    neighbours of a point's cell are two runs of keys: its own cell (the
    points after it) with the cell above, and the three cells of the next
    column, (cx + 1, cy - 1..cy + 1).  Each run is found by binary search
    on the sorted keys, three searches in all; every unordered pair is
    examined once and the cost is near-linear for bounded density.
    """
    if not threshold > 0:
        raise ConfigError("threshold must be positive")
    pts = np.asarray(points, dtype=float)
    c = np.floor(pts / threshold).astype(np.int64)
    # pack (cx, cy) into one int64 key; coordinates are far below 2^30 cells
    key = (c[:, 0] << 31) + c[:, 1]
    order = np.argsort(key, kind="stable")
    skey = key[order]
    x = pts[order, 0]
    y = pts[order, 1]
    idx = np.arange(len(skey))
    nxt = skey + (1 << 31)               # the key of (cx + 1, cy)
    runs = ((idx + 1, np.searchsorted(skey, skey + 1, "right")),
            (np.searchsorted(skey, nxt - 1, "left"), np.searchsorted(skey, nxt + 1, "right")))
    t2 = threshold * threshold
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    for lo, hi in runs:
        cnt = hi - lo
        src = np.repeat(idx, cnt)
        cand = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(len(src))
        hit = (x[src] - x[cand]) ** 2 + (y[src] - y[cand]) ** 2 < t2
        out_i.append(src[hit])
        out_j.append(cand[hit])
    i0 = order[np.concatenate(out_i)]
    j0 = order[np.concatenate(out_j)]
    return np.minimum(i0, j0), np.maximum(i0, j0)


def prune_close_pairs(points: np.ndarray, threshold: float) -> np.ndarray:
    """Keep exactly the points with no other input point strictly within threshold."""
    pts = np.asarray(points, dtype=float)
    i, j = close_pairs(pts, threshold)
    drop = np.zeros(len(pts), dtype=bool)
    drop[i] = True
    drop[j] = True
    return pts[~drop]


# ---------------------------------------------------------------------------
# Parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartSample:
    """A pruned part together with its pre-prune size."""

    points: np.ndarray
    raw_count: int

    @property
    def deleted_fraction(self) -> float:
        if self.raw_count == 0:
            return 0.0
        return 1.0 - len(self.points) / self.raw_count


def _pruned_part(domain: regions.Region, epsilon: float, seed, part: str) -> PartSample:
    """Poisson sample on ``domain`` from the ``part`` substream, pruned at distance 1."""
    if not (0.0 <= epsilon <= 0.01):
        raise ConfigError(f"epsilon must be in [0, 0.01], got {epsilon}")
    raw = poisson.sample_poisson(domain, Density(epsilon), as_seed(seed).substream(part))
    return PartSample(prune_close_pairs(raw, 1.0), len(raw))


def build_rect_points(n: int, epsilon: float, seed) -> PartSample:
    """Poisson sample on the strip, then close-pair pruning at distance 1."""
    return _pruned_part(regions.rect_domain(n), epsilon, seed, PART_RECT)


def build_lobe_points(n: int, epsilon: float, seed) -> PartSample:
    """Poisson sample on the wedge pair, pruned like the strip part."""
    return _pruned_part(regions.lobe_domain(n), epsilon, seed, PART_LOBES)


def build_circle_points(n: int) -> np.ndarray:
    """Deterministic circle part.

    Polar angles 2*s/R on one side and pi + 2*t*(1/R + 4/R^2) on the other,
    s, t = 0..floor(R/2), both at radius R = n^(4/7).  Consecutive same-side
    points are about 2 apart, the two arcs are separated by more than a
    radian, and the slight angular stretch on the second arc makes the
    cross-arc chord lengths sweep the top of the distance range densely.
    """
    if n < N_MIN:
        raise ConfigError(f"n must be >= {N_MIN}, got {n}")
    R = float(n) ** (4.0 / 7.0)
    s = np.arange(math.floor(R / 2.0) + 1, dtype=float)
    ang_a = 2.0 * s / R
    ang_b = np.pi + 2.0 * s * (1.0 / R + 4.0 / R**2)
    ang = np.concatenate([ang_a, ang_b])
    return np.column_stack([R * np.cos(ang), R * np.sin(ang)])


@dataclass(frozen=True)
class Construction:
    """Assembled construction: points, part labels, and bookkeeping."""

    n_param: int
    epsilon: float
    seed: Seed
    points: np.ndarray            # (N, 2)
    labels: np.ndarray            # (N,) int8, values in PART_CODES
    deleted_fraction_rect: float
    deleted_fraction_lobes: float

    @property
    def diameter_nominal(self) -> float:
        return nominal_diameter(self.n_param)

    @property
    def realized_points(self) -> int:
        return len(self.points)

    def part(self, name: str) -> np.ndarray:
        return self.points[self.labels == PART_CODES[name]]


def assemble(n: int, epsilon: float, seed) -> Construction:
    """Union of the three pruned parts, with the cross-part separation verified.

    Pruning is per-part only; a cross-part pair closer than 1 would mean a
    geometry bug, so it raises rather than being silently re-pruned.
    """
    seed = as_seed(seed)
    rect = build_rect_points(n, epsilon, seed)
    lobes = build_lobe_points(n, epsilon, seed)
    circle = build_circle_points(n)

    parts = [rect.points, lobes.points, circle]          # in PART_CODES order
    pts = np.vstack(parts)
    labels = np.repeat(np.array(list(PART_CODES.values()), dtype=np.int8),
                       [len(p) for p in parts])
    if not np.isfinite(pts).all():
        raise InvariantViolation("non-finite coordinate in construction")

    i, j = close_pairs(pts, 1.0)
    if len(i):
        li, lj = labels[i], labels[j]
        kinds = sorted({(PART_NAMES[int(a)], PART_NAMES[int(b)])
                        for a, b in zip(li, lj)})
        raise InvariantViolation(
            f"{len(i)} point pairs closer than 1 after assembly: {kinds}"
        )

    return Construction(
        n_param=n,
        epsilon=epsilon,
        seed=seed,
        points=pts,
        labels=labels,
        deleted_fraction_rect=rect.deleted_fraction,
        deleted_fraction_lobes=lobes.deleted_fraction,
    )


# ---------------------------------------------------------------------------
# Point-set export: "x y part" lines at full double precision
# ---------------------------------------------------------------------------


def export_points(con: Construction, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# n={con.n_param} epsilon={con.epsilon!r} seed={con.seed.value}\n")
        for (px, py), code in zip(con.points, con.labels):
            fh.write(f"{px:.17g} {py:.17g} {PART_NAMES[int(code)]}\n")


def load_points(path: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read an exported point file; returns (points, labels, header meta)."""
    meta: dict = {}
    xs: list[list[float]] = []
    codes: list[int] = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        meta[k] = v
                continue
            try:
                sx, sy, name = line.split()
                xy, code = [float(sx), float(sy)], PART_CODES[name]
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"{path}:{lineno}: expected 'x y part', got {line!r}") from exc
            if not all(map(math.isfinite, xy)):
                raise ConfigError(f"{path}:{lineno}: non-finite coordinate in {line!r}")
            xs.append(xy)
            codes.append(code)
    return np.asarray(xs), np.asarray(codes, dtype=np.int8), meta
