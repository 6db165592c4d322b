"""Seeded homogeneous Poisson sampling over a region.

The point count is Poisson with mean equal to the region's measure; given
the count, points are i.i.d. uniform over the region, drawn by rejection
from the bounding box.  A batch lives in the two rows of one ``(2, batch)``
column buffer, reused by every batch of a call: each row is filled by
``random(out=row)``, scaled and shifted in place, which gives the values
of ``uniform(low, high, batch)`` bit for bit and leaves the generator in
the same state.  The membership test takes the buffer's transpose, an
``(N, 2)`` view with contiguous columns, and the accepted points of a
batch are kept in draw order, up to the count still missing, by one index
gather.  The lobes' membership test prefilters on a widened radial band
(see ``regions``) but makes the exact test's decisions, so every draw, and
the generator's state after a call, are as without the prefilter.

Separate named substreams drive the count draw and the point placement,
so a sample is a pure function of (seed, region, density) and is
reproducible across platforms (Philox keyed through
``numpy.random.SeedSequence`` with a CRC32 of the stream label).  A caller
drawing many samples can keep one generator for all of them:
``Seed.rekey`` puts it in exactly the state a fresh ``Seed.generator()``
starts in, so its draws are those of the fresh substream.
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
_ZEROS = (0, 0, 0, 0)            # a fresh Philox's counter and buffer


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

    def _sequence(self) -> np.random.SeedSequence:
        tag = zlib.crc32(self.stream_label.encode("utf-8"))
        return np.random.SeedSequence([self.value, tag])

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._sequence()))

    def rekey(self, rng: np.random.Generator) -> np.random.Generator:
        """Put ``rng``, a Philox generator in any state, in the state that
        ``self.generator()`` starts in: the key ``Philox`` derives from the
        same SeedSequence, counter 0, an empty buffer and no pending 32-bit
        draw.  Returns ``rng``, whose draws are now the fresh substream's."""
        key = self._sequence().generate_state(2, np.uint64).tolist()
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": key},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return rng


def as_seed(seed) -> Seed:
    if isinstance(seed, Seed):
        return seed
    return Seed(int(seed))


def _uniform_into(rng: np.random.Generator, low: float, high: float, out: np.ndarray) -> None:
    """Fill ``out`` with the values of ``rng.uniform(low, high, len(out))``
    and leave ``rng`` in the state that call leaves: uniform computes
    low + (high - low) * u from the same doubles u that ``random`` draws."""
    rng.random(out=out)
    out *= high - low
    out += low


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
    buf = np.empty((2, batch))
    pts = buf.T
    while got < count:
        _uniform_into(rng, -box.half_width, box.half_width, buf[0])
        _uniform_into(rng, -box.half_height, box.half_height, buf[1])
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


def sample_poisson(
    region: Region, density: Density, seed, rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One Poisson sample; returns points as an (N, 2) array.

    Order is an implementation artifact (the semantics are a multiset).  A
    caller drawing many samples may pass one Philox generator as ``rng``
    for all of them: it is rekeyed to each substream, so the sample is the
    one drawn without it.
    """
    seed = as_seed(seed)
    mean = regions.measure(region, density)
    if not mean <= _MAX_POISSON_MEAN:
        raise ConfigError(
            f"Poisson mean {mean} at density {density.value} is not finite "
            f"or exceeds {_MAX_POISSON_MEAN:.6g}"
        )
    counts = seed.substream("count")
    rng = counts.generator() if rng is None else counts.rekey(rng)
    count = int(rng.poisson(mean))
    return uniform_in_region(region, count, seed.substream("points").rekey(rng))

