"""Seeded homogeneous Poisson sampling over a region.

The point count is Poisson with mean equal to the region's measure; given
the count, points are i.i.d. uniform over the region, drawn by rejection
from the bounding box.  The accepted points of a batch are kept in draw
order, up to the count still missing, by one index gather.  The lobes'
membership test prefilters on a widened radial band (see ``regions``) but
makes the exact test's decisions, so every draw, and the generator's state
after a call, are as without the prefilter.  Separate named substreams
drive the count draw and the point placement, so a sample is a pure
function of (seed, region, density) and is reproducible across platforms
(Philox keyed through ``numpy.random.SeedSequence`` with a CRC32 of the
stream label).
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import regions
from .errors import ConfigError, DegenerateRegionError
from .regions import Density, Region

_MIN_ACCEPT_RATE = 1e-4
# numpy's Poisson sampler rejects larger means (its POISSON_LAM_MAX)
_MAX_POISSON_MEAN = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Seed:
    """64-bit seed plus a stream label for substream derivation."""

    value: int
    stream_label: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.value < 2**64):
            raise ConfigError("seed value must fit in 64 bits")

    def substream(self, label: str) -> "Seed":
        child = f"{self.stream_label}/{label}" if self.stream_label else label
        return Seed(self.value, child)

    def generator(self) -> np.random.Generator:
        tag = zlib.crc32(self.stream_label.encode("utf-8"))
        ss = np.random.SeedSequence([self.value, tag])
        return np.random.Generator(np.random.Philox(ss))


def as_seed(seed) -> Seed:
    if isinstance(seed, Seed):
        return seed
    return Seed(int(seed))


def uniform_in_region(
    region: Region, count: int, rng: np.random.Generator
) -> np.ndarray:
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
        if exact:
            take = min(count - got, batch)
            out[got:got + take] = pts[:take]
        else:
            idx = np.flatnonzero(regions.contains(region, pts))[:count - got]
            take = len(idx)
            out[got:got + take] = pts[idx]
        got += take
        attempted += batch
        if attempted >= 10_000_000 and got / attempted < _MIN_ACCEPT_RATE:
            raise DegenerateRegionError(
                f"acceptance rate {got / attempted:.2e} below {_MIN_ACCEPT_RATE}"
            )
    return out


def sample_poisson(region: Region, density: Density, seed) -> np.ndarray:
    """One Poisson sample; returns points as an (N, 2) array.

    Order is an implementation artifact (the semantics are a multiset).
    """
    seed = as_seed(seed)
    mean = regions.measure(region, density)
    if not mean <= _MAX_POISSON_MEAN:
        raise ConfigError(
            f"Poisson mean {mean} at density {density.value} is not finite "
            f"or exceeds {_MAX_POISSON_MEAN:.6g}"
        )
    count = int(seed.substream("count").generator().poisson(mean))
    return uniform_in_region(region, count, seed.substream("points").generator())

