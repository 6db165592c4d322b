"""Seeded homogeneous Poisson sampling over a region.

The point count is Poisson with mean equal to the region's measure; given
the count, points are i.i.d. uniform over the region, drawn by rejection
from the bounding box in batches of ``batch = max(1024, 2 * count)`` box
points.  A batch's x and y coordinates are the two rows of one
``(2, batch)`` column buffer, and each row is a segment of the generator's
stream: row 0 the next ``batch`` doubles, row 1 the ``batch`` after them,
scaled and shifted in place, which gives the values of
``uniform(low, high, batch)`` bit for bit.  Philox is counter based, so a
segment can start anywhere: the generator is put there by setting its
counter one block (four 64-bit words) short of the target and drawing that
block's words up to it for real, which leaves counter, buffer and buffer
position as a draw through every earlier word would.  So only the columns a
sample uses are drawn: exactly ``count`` of each row in a Rectangle, and
for rejection a prefix sized to the count still missing (the expected
number plus four standard deviations, then the rest of the batch if that
fell short).  After the call the generator stands where drawing every batch
whole would leave it, its pending 32-bit half (``has_uint32``,
``uinteger``) untouched, so its whole state and every later draw are those
of the full draw.  The membership test takes the buffer's transpose, an
``(N, 2)`` view with contiguous columns; accepted points are kept in draw
order, up to the count still missing, by one index gather.  The lobes'
membership test prefilters on a widened radial band (see ``regions``) but
makes the exact test's decisions.

From ``_SPLIT`` columns on, a second Philox, put at row 1's segment, fills
row 1 in a second thread while the caller's generator fills row 0; the rho
and alpha rows of ``nobonds``' partner draw use the same two-row fill
(``uniform_rows``), and its cosine and sine rows are computed the same
way.  The size is fixed: there is no knob, and no thread outlives the
call.  Helper threads (``_beside``) run only private numpy kernels
(``_uniform_into`` and the partners' sine row); the traced public
functions (``regions.contains``, ``uniform_in_region``,
``sample_poisson``, ``nobonds.count_bonds``) are called once, from the
caller's thread, since a tracer keeps one span stack.  The lobes'
membership test stays in the caller's thread: split in two it did not
make the benchmark's large-class survey faster.

Separate named substreams drive the count draw and the point placement,
so a sample is a pure function of (seed, region, density) and is
reproducible across platforms (Philox keyed by
``numpy.random.SeedSequence([value, crc32(label)])``).  Its hash is
computed here (``_philox_keys``), on Python ints for one key and
vectorized over many: ``with_sample_keys`` derives every trial's count and
points keys in one pass.  A caller drawing many samples can keep one
generator for all of them: ``Seed.rekey`` puts it in exactly the state a
fresh ``Seed.generator()`` starts in, so its draws are those of the fresh
substream.
"""
from __future__ import annotations

import math
import threading
import zlib
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import regions
from .errors import ConfigError, DegenerateRegionError
from .regions import Density, Region

_MIN_ACCEPT_RATE = 1e-4
# numpy's Poisson sampler rejects larger means (its POISSON_LAM_MAX)
_MAX_POISSON_MEAN = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)
_ZEROS = (0, 0, 0, 0)            # a fresh Philox's counter and buffer
_WORDS = 4                       # 64-bit words per Philox block; a double takes one
_U64 = (1 << 64) - 1
# the streams sample_poisson draws the count and the points from
_SAMPLE_STREAMS = ("count", "points")
# values per thread below which a second thread costs more to start and
# join (about 0.1 ms) than it saves: the row fills and the partners' trig
# rows split in two at and above this size
_SPLIT = 1 << 16

# numpy's SeedSequence hash, for the entropy [seed value, CRC32 of the
# stream label] (at most three 32-bit words, so it fits the pool of four):
# the multipliers that hashmix steps through, 16 steps to mix the pool
# and 4 to make the two 64-bit words of generate_state(2, uint64)
_M32 = 0xFFFFFFFF


def _powers(init: int, mult: int, steps: int) -> tuple[int, ...]:
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & _M32)
    return tuple(out)


_HASH_MIX = _powers(0x43B0D7E5, 0x931E8875, 16)
_HASH_OUT = _powers(0x8B51F9DD, 0x58F38DED, 4)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MIX_ORDER = tuple((src, dst) for src in range(4) for dst in range(4) if src != dst)


def _philox_keys(value: int, tags):
    """The Philox key that ``SeedSequence([value, tag])`` seeds, as the two
    64-bit words of its ``generate_state(2, uint64)``.  ``tags`` is one
    label CRC32 (an int: returns two ints) or an array of them (uint32:
    returns two uint64 arrays, every tag hashed in one vectorized pass)."""
    entropy = [value >> s & _M32 for s in range(0, max(value.bit_length(), 1), 32)]
    entropy.append(tags)
    entropy += [0] * (4 - len(entropy))
    pool = []
    for k, word in enumerate(entropy):
        word = (word ^ _HASH_MIX[k]) * _HASH_MIX[k + 1] & _M32
        pool.append(word ^ word >> 16)
    for k, (src, dst) in enumerate(_MIX_ORDER, len(pool)):
        h = (pool[src] ^ _HASH_MIX[k]) * _HASH_MIX[k + 1] & _M32
        mixed = (_MIX_L * pool[dst] & _M32) - (_MIX_R * (h ^ h >> 16) & _M32) & _M32
        pool[dst] = mixed ^ mixed >> 16
    out = []
    for k, word in enumerate(pool):
        word = (word ^ _HASH_OUT[k]) * _HASH_OUT[k + 1] & _M32
        out.append(word ^ word >> 16)
    if isinstance(tags, np.ndarray):
        out = [w.astype(np.uint64) for w in out]
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _child(parent: str, label: str) -> str:
    return f"{parent}/{label}" if parent else label


def _tag(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


@dataclass(frozen=True)
class Seed:
    """64-bit seed plus a stream label for substream derivation."""

    value: int
    stream_label: str = ""
    # Philox keys derived ahead, by stream label (see with_sample_keys):
    # handed on to every substream, and no part of the seed's identity
    _keys: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (0 <= self.value < 2**64):
            raise ConfigError("seed value must fit in 64 bits")

    def substream(self, label: str) -> "Seed":
        return Seed(self.value, _child(self.stream_label, label), self._keys)

    def _key(self) -> tuple[int, int]:
        known = self._keys and self._keys.get(self.stream_label)
        return known or _philox_keys(self.value, _tag(self.stream_label))

    def generator(self) -> np.random.Generator:
        return self.rekey(np.random.Generator(np.random.Philox(key=0)))

    def rekey(self, rng: np.random.Generator) -> np.random.Generator:
        """Put ``rng``, a Philox generator in any state, in the state that
        ``self.generator()`` starts in: the key ``Philox`` takes from
        ``SeedSequence([value, crc32(label)])``, counter 0, an empty buffer
        and no pending 32-bit draw.  Returns ``rng``, whose draws are now the
        substream's."""
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": self._key()},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return rng


def as_seed(seed) -> Seed:
    if isinstance(seed, Seed):
        return seed
    return Seed(int(seed))


def with_sample_keys(seed: Seed, labels: Sequence[str]) -> Seed:
    """``seed``, carrying the Philox keys of the streams that
    ``sample_poisson`` draws from at each of its substreams ``labels``, all
    derived in one vectorized pass: a sample at one of those substreams
    then rekeys without hashing."""
    streams = [_child(_child(seed.stream_label, label), part)
               for label in labels for part in _SAMPLE_STREAMS]
    tags = np.fromiter(map(_tag, streams), np.uint32, len(streams))
    k0, k1 = _philox_keys(seed.value, tags)
    return replace(seed, _keys=dict(zip(streams, zip(k0.tolist(), k1.tolist()))))


def _uniform_into(rng: np.random.Generator, low: float, high: float, out: np.ndarray) -> None:
    """Fill ``out`` with the values of ``rng.uniform(low, high, len(out))``
    and leave ``rng`` in the state that call leaves: uniform computes
    low + (high - low) * u from the same doubles u that ``random`` draws."""
    rng.random(out=out)
    out *= high - low
    out += low


def _beside(helper, main, size: int) -> None:
    """Run ``main()`` and ``helper()``, two kernels of ``size`` values each:
    one after the other below ``_SPLIT``, else ``helper`` in a second thread
    while ``main`` runs in this one (what ``helper`` raised is re-raised
    here).  Both must be numpy kernels on disjoint data that call no traced
    public function of the library: a tracer keeps one span stack, the
    caller's."""
    if size < _SPLIT:
        main()
        helper()
        return
    failed: list[BaseException] = []

    def run() -> None:
        try:
            helper()
        except BaseException as exc:         # re-raised in the caller's thread
            failed.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        main()
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _next_word(state: dict) -> int:
    """Stream index of the next 64-bit word a Philox in ``state`` draws.  A
    draw from an empty buffer first steps the counter, then fills the buffer
    with that counter's block, so block c holds the words 4(c-1) .. 4c-1."""
    c0, c1, c2, c3 = state["state"]["counter"].tolist()
    return _WORDS * ((c0 | c1 << 64 | c2 << 128 | c3 << 192) - 1) + state["buffer_pos"]


class _Rows:
    """Uniform draws into the two rows of a ``(2, batch)`` buffer, each row
    a segment of ``rng``'s stream: counted from ``rng``'s position at
    creation, batch k's row r holds the doubles from ``(2k + r) * batch``
    on, scaled to ``bounds[r]`` as ``uniform`` scales them.  Only the
    columns asked for are drawn, and a generator is put where its next
    segment starts by counter arithmetic.  From ``_SPLIT`` columns on, a
    second Philox draws row 1 in a second thread while ``rng`` draws row 0.
    ``close`` leaves ``rng`` where drawing every batch whole, row by row,
    would."""

    def __init__(self, rng: np.random.Generator, batch: int, bounds) -> None:
        self.batch, self.bounds = batch, bounds
        self.gens: list = [rng, None]     # rng, and the helper thread's Philox
        self.at: list = [0, None]         # the next double each of them draws
        self.start = 0                    # row 0 of the current batch
        # rng's stream index at creation, and the state dict that _place
        # sets, both made from rng's state when a generator first moves
        self.origin = 0
        self.seek_state: dict | None = None

    def _place(self, k: int, word: int) -> None:
        """Put generator k at the double ``word``, unless it is there: the
        counter set one block short, then that block's words up to ``word``
        drawn for real, so that counter, buffer and buffer position are
        those of a generator that drew every word before it."""
        if self.at[k] == word:
            return
        if self.seek_state is None:
            # rng's key and pending 32-bit half, which double draws leave alone
            state = self.gens[0].bit_generator.state
            self.origin = _next_word(state) - self.at[0]
            self.seek_state = {**state, "buffer": _ZEROS, "buffer_pos": _WORDS, "state": {
                "counter": _ZEROS, "key": tuple(state["state"]["key"].tolist())}}
        block, used = divmod(self.origin + word - 1, _WORDS)
        self.seek_state["state"]["counter"] = (
            block & _U64, block >> 64 & _U64, block >> 128 & _U64, block >> 192 & _U64)
        bitgen = self.gens[k].bit_generator
        bitgen.state = self.seek_state
        bitgen.random_raw(used + 1)
        self.at[k] = word

    def _draw(self, k: int, r: int, row: np.ndarray) -> None:
        _uniform_into(self.gens[k], *self.bounds[r], row)
        self.at[k] += len(row)

    def fill(self, buf: np.ndarray, a: int, b: int) -> None:
        """Draw columns [a, b) of both rows of the current batch."""
        first, second = self.start + a, self.start + self.batch + a
        if b - a < _SPLIT:
            self._place(0, first)
            self._draw(0, 0, buf[0, a:b])
            self._place(0, second)
            self._draw(0, 1, buf[1, a:b])
            return
        if self.gens[1] is None:
            self.gens[1] = np.random.Generator(np.random.Philox(key=0))
        self._place(0, first)
        self._place(1, second)
        _beside(lambda: self._draw(1, 1, buf[1, a:b]),
                lambda: self._draw(0, 0, buf[0, a:b]), b - a)

    def next_batch(self) -> None:
        self.start += 2 * self.batch

    def close(self) -> None:
        self._place(0, self.start)


def uniform_rows(rng: np.random.Generator, bounds, out: np.ndarray) -> None:
    """Fill row r of the ``(2, c)`` array ``out`` with the values of
    ``rng.uniform(*bounds[r], c)``, row 0 drawn first, and leave ``rng``
    as those two calls leave it."""
    rows = _Rows(rng, out.shape[1], bounds)
    rows.fill(out, 0, out.shape[1])
    rows.next_batch()
    rows.close()


def _box_points(need: int, region: Region, box: regions.Rectangle) -> int:
    """Box points that give ``need`` points in ``region`` but for a
    four-sigma shortfall: the mean plus four standard deviations, at the
    acceptance that the areas give."""
    accept = regions.area(region) / (4.0 * box.half_width * box.half_height)
    return math.ceil((need + 4.0 * math.sqrt(need) + 8.0) / accept)


def uniform_in_region(
    region: Region, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform points by bounding-box rejection from
    ``rng``, a Philox generator, and leave it as drawing every batch whole
    would."""
    box = regions.bounding_box(region)
    exact = isinstance(region, regions.Rectangle)
    out = np.empty((count, 2))
    got = 0
    attempted = 0
    batch = max(1024, 2 * count)
    buf = np.empty((2, batch))
    pts = buf.T
    rows = _Rows(rng, batch, ((-box.half_width, box.half_width),
                              (-box.half_height, box.half_height)))
    while got < count:
        a = 0
        while got < count and a < batch:
            # the batch's columns that the points still missing need: all
            # of them in a Rectangle; for rejection, enough for all but a
            # four-sigma shortfall, then the rest of the batch
            need = count - got
            if exact:
                b = need
            elif a == 0:
                b = min(batch, _box_points(need, region, box))
            else:
                b = batch
            rows.fill(buf, a, b)
            if exact:
                take = need
                out[got:] = pts[a:b]
            else:
                idx = np.flatnonzero(regions.contains(region, pts[a:b]))[:need]
                take = len(idx)
                out[got:got + take] = pts[a:b][idx]
            got += take
            a = b
        rows.next_batch()
        attempted += batch
        if attempted >= 10_000_000 and got / attempted < _MIN_ACCEPT_RATE:
            rows.close()
            raise DegenerateRegionError(
                f"acceptance rate {got / attempted:.2e} below {_MIN_ACCEPT_RATE}"
            )
    rows.close()
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
    counts, points = seed.substream(_SAMPLE_STREAMS[0]), seed.substream(_SAMPLE_STREAMS[1])
    rng = counts.generator() if rng is None else counts.rekey(rng)
    count = int(rng.poisson(mean))
    return uniform_in_region(region, count, points.rekey(rng))

