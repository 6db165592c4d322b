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
from .errors import ConfigError, InvariantViolation
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
# Uniform-grid close-pair machinery
# ---------------------------------------------------------------------------

_FWD_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 1))


def _pack_cells(points: np.ndarray, cell: float) -> np.ndarray:
    c = np.floor(points / cell).astype(np.int64)
    # pack (cx, cy) into one int64 key; coordinates are far below 2^30 cells
    return (c[:, 0] << 31) + c[:, 1]


def close_pairs(points: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, with |p_i - p_j| strictly below threshold.

    Uniform grid of cell size = threshold; each unordered pair is examined
    once via forward neighbor offsets, so the cost is near-linear for
    bounded density.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if not threshold > 0:
        raise ConfigError("threshold must be positive")
    key = _pack_cells(pts, threshold)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    uniq, start = np.unique(skey, return_index=True)
    counts = np.diff(np.append(start, n))

    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    t2 = threshold * threshold
    x = pts[order, 0]
    y = pts[order, 1]
    for dx, dy in _FWD_OFFSETS:
        tk = skey + ((dx << 31) + dy)
        pos = np.searchsorted(uniq, tk)
        pos_c = np.minimum(pos, len(uniq) - 1)
        ok = uniq[pos_c] == tk
        if not ok.any():
            continue
        src = np.nonzero(ok)[0]
        g = pos_c[src]
        cnt = counts[g]
        tot = int(cnt.sum())
        if tot == 0:
            continue
        rep_src = np.repeat(src, cnt)
        seg = np.repeat(start[g], cnt)
        within = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        cand = seg + within
        if dx == 0 and dy == 0:
            keep = rep_src < cand
            rep_src, cand = rep_src[keep], cand[keep]
        if len(rep_src) == 0:
            continue
        d2 = (x[rep_src] - x[cand]) ** 2 + (y[rep_src] - y[cand]) ** 2
        hit = d2 < t2
        out_i.append(rep_src[hit])
        out_j.append(cand[hit])

    if not out_i:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    si = np.concatenate(out_i)
    sj = np.concatenate(out_j)
    i0 = order[si]
    j0 = order[sj]
    lo = np.minimum(i0, j0)
    hi = np.maximum(i0, j0)
    return lo, hi


def prune_close_pairs(points: np.ndarray, threshold: float) -> np.ndarray:
    """Keep exactly the points with no other input point strictly within threshold."""
    pts = np.asarray(points, dtype=float)
    i, j = close_pairs(pts, threshold)
    drop = np.zeros(len(pts), dtype=bool)
    drop[i] = True
    drop[j] = True
    return pts[~drop]


def min_pairwise_distance(points: np.ndarray, cutoff: float) -> float:
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


def _check_build_args(n: int, epsilon: float) -> None:
    if n < N_MIN:
        raise ConfigError(f"n must be >= {N_MIN}, got {n}")
    if not (0.0 <= epsilon <= 0.01):
        raise ConfigError(f"epsilon must be in [0, 0.01], got {epsilon}")


def build_rect_points(n: int, epsilon: float, seed) -> PartSample:
    """Poisson sample on the strip, then close-pair pruning at distance 1."""
    _check_build_args(n, epsilon)
    raw = poisson.sample_poisson(
        regions.rect_domain(n), Density(epsilon), as_seed(seed).substream("rect")
    )
    return PartSample(prune_close_pairs(raw, 1.0), len(raw))


def build_lobe_points(n: int, epsilon: float, seed) -> PartSample:
    """Poisson sample on the wedge pair, pruned like the strip part."""
    _check_build_args(n, epsilon)
    raw = poisson.sample_poisson(
        regions.lobe_domain(n), Density(epsilon), as_seed(seed).substream("lobes")
    )
    return PartSample(prune_close_pairs(raw, 1.0), len(raw))


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

    pts = np.vstack([rect.points, lobes.points, circle])
    labels = np.concatenate([
        np.full(len(rect.points), PART_CODES[PART_RECT], dtype=np.int8),
        np.full(len(lobes.points), PART_CODES[PART_LOBES], dtype=np.int8),
        np.full(len(circle), PART_CODES[PART_CIRCLE], dtype=np.int8),
    ])
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
    with open(path) as fh:
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
