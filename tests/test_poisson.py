import math
import re

import numpy as np
import pytest
from scipy import stats

from distgaps import poisson
from distgaps.errors import ConfigError
from distgaps.poisson import Seed, sample_poisson, uniform_in_region
from distgaps.regions import Density, Disk, PolarLobes, Rectangle
from tests.conftest import oracle_uniform_in_region

UNIT_SQUARE = Rectangle(0.5, 0.5)


def test_zero_density_always_empty():
    for s in range(20):
        pts = sample_poisson(Disk(3.0), Density(0.0), Seed(s))
        assert len(pts) == 0


@pytest.mark.parametrize("density", [1e30, 1e200, 1e308])
def test_mean_beyond_poisson_range_is_config_error(density):
    # finite densities whose expected count numpy's Poisson sampler rejects
    # (1e308 over a 100 x 100 box overflows to inf)
    with pytest.raises(ConfigError, match=f"Poisson mean .* at density {re.escape(str(density))}"):
        sample_poisson(Rectangle(50.0, 50.0), Density(density), Seed(1))


def test_determinism_bit_identical():
    a = sample_poisson(UNIT_SQUARE, Density(5.0), Seed(42, "x"))
    b = sample_poisson(UNIT_SQUARE, Density(5.0), Seed(42, "x"))
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    c = sample_poisson(UNIT_SQUARE, Density(5.0), Seed(42, "y"))
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_points_land_in_region():
    pts = sample_poisson(Disk(2.0), Density(10.0), Seed(7))
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 2.0)


def test_mean_count_and_empty_probability():
    # unit square at density 2: E[count] = 2 and P[count = 0] = e^-2,
    # both within 3 standard errors over many seeded samples
    trials = 100_000
    counts = np.empty(trials)
    for s in range(trials):
        counts[s] = len(sample_poisson(UNIT_SQUARE, Density(2.0), Seed(s)))
    mean = counts.mean()
    se_mean = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(mean - 2.0) <= 3.0 * se_mean

    p0 = (counts == 0).mean()
    want = math.exp(-2.0)
    se_p = math.sqrt(want * (1 - want) / trials)
    assert abs(p0 - want) <= 3.0 * se_p


def test_counts_match_pmf_chi_square():
    # counts in a Borel sub-rectangle of the sampled region follow the pmf
    # with the sub-rectangle's measure as mean
    region = Rectangle(1.0, 0.5)
    sub = Rectangle(0.5, 0.25)            # area 0.5 of region area 2
    density = Density(4.0)                 # sub-mean 2.0
    trials = 10_000
    counts = np.empty(trials, dtype=int)
    for s in range(trials):
        pts = sample_poisson(region, density, Seed(s, "chi"))
        inside = (np.abs(pts[:, 0]) <= 0.5) & (np.abs(pts[:, 1]) <= 0.25)
        counts[s] = int(inside.sum())
    k_max = 8
    observed = np.bincount(np.minimum(counts, k_max), minlength=k_max + 1)
    mean = 2.0
    probs = stats.poisson.pmf(np.arange(k_max), mean)
    probs = np.append(probs, 1.0 - probs.sum())
    res = stats.chisquare(observed, probs * trials)
    assert res.pvalue > 1e-3


def test_disjoint_regions_independent_counts():
    # one process on a rectangle containing two disjoint disks; per-trial
    # counts in the disks must be (nearly) uncorrelated
    region = Rectangle(2.0, 1.0)
    trials = 10_000
    c1 = np.empty(trials)
    c2 = np.empty(trials)
    for s in range(trials):
        pts = sample_poisson(region, Density(3.0), Seed(s, "ind"))
        c1[s] = int((np.hypot(pts[:, 0] + 1.0, pts[:, 1]) <= 0.6).sum())
        c2[s] = int((np.hypot(pts[:, 0] - 1.0, pts[:, 1]) <= 0.6).sum())
    r = np.corrcoef(c1, c2)[0, 1]
    assert abs(r) < 0.05


def test_seed_value_range():
    with pytest.raises(ConfigError):
        Seed(-1)
    with pytest.raises(ConfigError):
        Seed(2**64)


def test_degenerate_region_signaled(monkeypatch):
    # membership test rejects everything: the sampler must give up with a
    # clear error instead of spinning
    from distgaps import regions
    from distgaps.errors import DegenerateRegionError

    monkeypatch.setattr(regions, "contains", lambda region, pts: np.zeros(len(pts), dtype=bool))
    with pytest.raises(DegenerateRegionError):
        sample_poisson(regions.Disk(1.0), Density(2.0), Seed(1))


def _state(rng: np.random.Generator):
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("region", [Rectangle(3.0, 0.5), Disk(2.0), PolarLobes(10**4),
                                    PolarLobes(10**6), PolarLobes(10**7)], ids=repr)
@pytest.mark.parametrize("count", [0, 1, 7, 1000, 2**19 + 3])
def test_uniform_in_region_matches_oracle(region, count):
    # same points bit for bit, and the generator left in the same state:
    # estimate_mu_nu draws the bond partners from the same stream
    for s in ((1, 2) if count > 2**19 else (1, 2, 3, 4)):
        rng, oracle_rng = Seed(s).generator(), Seed(s).generator()
        got = uniform_in_region(region, count, rng)
        want = oracle_uniform_in_region(region, count, oracle_rng)
        assert got.shape == (count, 2)
        assert got.tobytes() == want.tobytes()
        assert _state(rng) == _state(oracle_rng)


def _used(rng: np.random.Generator) -> np.random.Generator:
    # part of Philox's four-word buffer consumed, and half of a 64-bit word
    # left over for the next 32-bit draw
    rng.random(2)
    rng.integers(0, 2**32, dtype=np.uint32)
    state = rng.bit_generator.state
    assert state["buffer_pos"] != 4 and state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("low, high", [(-3.0, 3.0), (-0.25, 7.5), (0.5, 0.5 + 2.0**-40),
                                       (-5e-324, 5e-324), (-2683.0, 2683.0)])
@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
def test_uniform_into_matches_uniform(low, high, used):
    # the column buffers' fill: uniform(low, high, size)'s values bit for
    # bit, and the generator left in the state uniform leaves it in
    for size in (1, 7, 1024, 2**20 + 3):
        want_rng, got_rng = Seed(5).generator(), Seed(5).generator()
        if used:
            _used(want_rng)
            _used(got_rng)
        want = want_rng.uniform(low, high, size)
        got = np.full(size, np.nan)
        poisson._uniform_into(got_rng, low, high, got)
        assert got.tobytes() == want.tobytes()
        assert _state(got_rng) == _state(want_rng)


@pytest.mark.parametrize("seed", [Seed(0), Seed(2**64 - 1, "trial-0000042/points"),
                                  Seed(7, "survey-1/munu")], ids=repr)
def test_rekey_reproduces_a_fresh_generator(seed):
    rng = _used(Seed(99, "elsewhere").generator())
    fresh = seed.generator()
    assert seed.rekey(rng) is rng
    assert _state(rng) == _state(fresh)
    assert rng.random(5).tobytes() == fresh.random(5).tobytes()
    assert rng.integers(0, 2**32, 3, dtype=np.uint32).tolist() == \
        fresh.integers(0, 2**32, 3, dtype=np.uint32).tolist()
    assert rng.poisson(3.5, 4).tolist() == fresh.poisson(3.5, 4).tolist()
    assert _state(rng) == _state(fresh)


@pytest.mark.parametrize("region", [Rectangle(3.0, 0.5), Disk(2.0), PolarLobes(10**6)], ids=repr)
def test_sample_with_a_reused_generator_is_the_fresh_sample(region):
    density = Density(2e-4 if isinstance(region, PolarLobes) else 3.0)
    rng = _used(Seed(99).generator())
    for s in range(20):
        want = sample_poisson(region, density, Seed(s, "reuse"))
        got = sample_poisson(region, density, Seed(s, "reuse"), rng)
        assert got.tobytes() == want.tobytes()
