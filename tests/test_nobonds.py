import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distgaps import nobonds, poisson
from distgaps.construction import DistanceClass, nominal_diameter
from distgaps.errors import ConfigError, ConvergenceError
from distgaps.nobonds import (
    BondSpec,
    JansonInstance,
    MuNuEstimate,
    check_nobonds,
    count_bonds,
    empirical_no_bond_prob,
    estimate_mu_nu,
    janson_exact,
    mu_scaling_survey,
    random_janson_instance,
)
from distgaps.poisson import Seed, uniform_in_region
from distgaps.regions import Disk, PolarLobes, Rectangle, lobe_domain
from tests.conftest import (
    oracle_annulus_partner_inside,
    oracle_no_bond_samples,
    oracle_random_janson_instance,
    partly_used,
)

UNIT_SQUARE = Rectangle(0.5, 0.5)


def rect_pair_volume(a: float, b: float, s: float) -> float:
    """Closed form for Int_{X^2} 1[|x-y| <= s] on an a x b rectangle, s <= min(a,b)."""
    assert s <= min(a, b)
    return math.pi * a * b * s * s - (4.0 / 3.0) * (a + b) * s**3 + 0.5 * s**4


def mu_rect_exact(a: float, b: float, eps: float, lo: float, hi: float) -> float:
    return 0.5 * eps * eps * (rect_pair_volume(a, b, hi) - rect_pair_volume(a, b, lo))


# ---------------------------------------------------------------------------
# discrete Janson
# ---------------------------------------------------------------------------


def test_janson_single_edge():
    res = janson_exact(JansonInstance((0.5, 0.5), ((0, 1),)))
    assert res.m_lower == pytest.approx(0.75, rel=1e-15)
    assert res.nu == 0.0
    assert res.p_exact == pytest.approx(0.75, rel=1e-15)
    assert res.bounds_hold


def test_janson_no_edges():
    res = janson_exact(JansonInstance((0.3, 0.2, 0.1), ()))
    assert res.m_lower == 1.0
    assert res.p_exact == pytest.approx(1.0, rel=1e-15)
    assert res.nu == 0.0
    assert res.bounds_hold


def test_janson_triangle_hand_check():
    # triangle on {0,1,2} with p = 0.2 each: survivors are subsets with at
    # most one vertex... any two vertices induce an edge, so
    # p_exact = P[|S| <= 1] = (1-p)^3 + 3 p (1-p)^2
    p = 0.2
    res = janson_exact(JansonInstance((p, p, p), ((0, 1), (0, 2), (1, 2))))
    want = (1 - p) ** 3 + 3 * p * (1 - p) ** 2
    assert res.p_exact == pytest.approx(want, rel=1e-12)
    assert res.m_lower == pytest.approx((1 - p * p) ** 3, rel=1e-12)
    assert res.nu == pytest.approx(3 * p**3, rel=1e-12)
    assert res.bounds_hold
    # nu is the unordered vee sum: with it in place of the ordered-pair sum
    # 2*nu the upper bound fails (0.89587 < 0.896 <= 0.90713)
    assert res.upper_half_exponent < res.p_exact <= res.upper


def test_janson_ground_set_cap():
    with pytest.raises(ConfigError):
        JansonInstance(tuple([0.1] * 21), ())


def test_janson_vee_count_star():
    # star K_{1,3} centered at 0: three vees through the center
    p = (0.3, 0.2, 0.25, 0.15)
    res = janson_exact(JansonInstance(p, ((0, 1), (0, 2), (0, 3))))
    want_nu = p[0] * (p[1] * p[2] + p[1] * p[3] + p[2] * p[3])
    assert res.nu == pytest.approx(want_nu, rel=1e-12)
    assert res.bounds_hold


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200)
def test_janson_bounds_hold_random(seed):
    rng = np.random.default_rng(seed)
    res = janson_exact(random_janson_instance(rng, max_ground_set=10))
    assert res.bounds_hold


def test_random_janson_instances_match_scalar_draws():
    # one array of edge coins per instance: the instances, and the
    # generator's whole state after them, of one scalar draw per coin
    for s in range(50):
        rng, oracle_rng = Seed(s, "janson").generator(), Seed(s, "janson").generator()
        for _ in range(200):
            assert random_janson_instance(rng, 12, 0.3) == oracle_random_janson_instance(oracle_rng, 12, 0.3)
        assert repr(rng.bit_generator.state) == repr(oracle_rng.bit_generator.state)


# ---------------------------------------------------------------------------
# mu / nu estimation
# ---------------------------------------------------------------------------


def test_mu_zero_when_geometry_forbids():
    est = estimate_mu_nu(Disk(0.4), 1.0, BondSpec(1.0, 2.0), 10_000, Seed(1))
    assert est.mu == 0.0 and est.nu == 0.0
    assert est.mu_stderr == 0.0


def test_mu_matches_rectangle_closed_form():
    est = estimate_mu_nu(UNIT_SQUARE, 5.0, BondSpec(0.4, 0.5), 400_000, Seed(2))
    want = mu_rect_exact(1.0, 1.0, 5.0, 0.4, 0.5)
    assert abs(est.mu - want) <= 4.0 * est.mu_stderr


def test_mu_nu_exact_when_bond_covers_region():
    # bond [0, 2) covers the whole unit square, so mu = (eps^2/2) Area^2 and
    # nu = (eps^3/2) Area^3 exactly
    est = estimate_mu_nu(UNIT_SQUARE, 3.0, BondSpec(0.0, 2.0), 50_000, Seed(3))
    assert abs(est.mu - 0.5 * 9.0) <= 4.0 * est.mu_stderr + 1e-12
    assert abs(est.nu - 0.5 * 27.0) <= 4.0 * est.nu_stderr + 1e-12


def test_mu_quadratic_in_density():
    a = estimate_mu_nu(UNIT_SQUARE, 2.0, BondSpec(0.3, 0.4), 200_000, Seed(4))
    b = estimate_mu_nu(UNIT_SQUARE, 4.0, BondSpec(0.3, 0.4), 200_000, Seed(5))
    rel = math.sqrt((a.mu_stderr / a.mu) ** 2 + (b.mu_stderr / b.mu) ** 2)
    assert b.mu / a.mu == pytest.approx(4.0, rel=4 * rel + 1e-3)


def test_mu_stderr_scales_as_sqrt_samples():
    a = estimate_mu_nu(UNIT_SQUARE, 2.0, BondSpec(0.3, 0.4), 50_000, Seed(6))
    b = estimate_mu_nu(UNIT_SQUARE, 2.0, BondSpec(0.3, 0.4), 200_000, Seed(7))
    assert b.mu_stderr == pytest.approx(0.5 * a.mu_stderr, rel=0.3)


def test_mu_determinism():
    a = estimate_mu_nu(UNIT_SQUARE, 2.0, BondSpec(0.3, 0.4), 20_000, Seed(8))
    b = estimate_mu_nu(UNIT_SQUARE, 2.0, BondSpec(0.3, 0.4), 20_000, Seed(8))
    assert a.mu == b.mu and a.nu == b.nu


def test_mu_requires_min_samples():
    with pytest.raises(ConfigError):
        estimate_mu_nu(UNIT_SQUARE, 2.0, BondSpec(0.3, 0.4), 100, Seed(1))


@pytest.mark.parametrize("density", [math.nan, math.inf, -1.0])
def test_mu_rejects_bad_density_before_sampling(monkeypatch, density):
    def no_sampling(*args):
        raise AssertionError("sampled with a bad density")

    monkeypatch.setattr(nobonds, "uniform_in_region", no_sampling)
    with pytest.raises(ConfigError):
        estimate_mu_nu(UNIT_SQUARE, density, BondSpec(0.3, 0.4), 10_000, Seed(1))


@pytest.mark.parametrize("density, hi", [(1e200, 0.4), (1e120, 0.4), (1e102, 1e3), (2.0, 1e150)])
def test_mu_rejects_overflowing_scales_before_sampling(monkeypatch, density, hi):
    # epsilon**2, epsilon**3 or a_ann**2 past the float range, or a product
    # that overflows to inf: a ConfigError before any sampling
    def no_sampling(*args):
        raise AssertionError("sampled with overflowing mu/nu scales")

    monkeypatch.setattr(nobonds, "uniform_in_region", no_sampling)
    with pytest.raises(ConfigError, match="overflows"):
        estimate_mu_nu(UNIT_SQUARE, density, BondSpec(0.3, hi), 10_000, Seed(1))


def test_bond_hi_needs_a_finite_square():
    for hi in (math.inf, 1e200):
        with pytest.raises(ConfigError):
            BondSpec(0.1, hi)
    assert BondSpec(0.1, 1e150).hi == 1e150


def test_mu_signals_no_hits():
    # square of side 1 with a bond interval [1.35, 1.40): the bbox diagonal
    # sqrt(2) admits corner pairs, but annulus partners essentially never
    # land inside, so the estimator must refuse rather than report 0
    with pytest.raises(ConvergenceError):
        estimate_mu_nu(UNIT_SQUARE, 2.0, BondSpec(1.41, 1.42), 10_000, Seed(9))


def test_mu_canonical_bond_on_strip_matches_pinned_bracket():
    # strip at n=1e6 with the canonical bond [100, 100 + 1/16): the closed
    # form gives mu/(eps^2 * n * min(j, n^(3/7)) * 2^-k) = 11.2424; the
    # bracket below is that value +/- 2%
    n, eps, j, k = 10**6, 1e-3, 100.0, 4
    est = estimate_mu_nu(
        Rectangle(n ** (3.0 / 7.0), 0.99 * n ** (4.0 / 7.0)),
        eps, BondSpec(j, j + 2.0**-k), 1_000_000, Seed(21),
    )
    norm = eps**2 * n * min(j, n ** (3.0 / 7.0)) * 2.0**-k
    ratio = est.mu / norm
    assert 11.02 <= ratio <= 11.47
    want = mu_rect_exact(2.0 * n ** (3.0 / 7.0), 2.0 * 0.99 * n ** (4.0 / 7.0),
                         eps, j, j + 2.0**-k)
    assert abs(est.mu - want) <= 4.0 * est.mu_stderr


_D6 = nominal_diameter(10**6)


@pytest.mark.parametrize("region, lo, hi", [
    (UNIT_SQUARE, 0.3, 0.4), (Disk(0.5), 0.1, 0.35), (PolarLobes(10**6), 8.0, 8.125),
    (PolarLobes(10**6), _D6 - 16.0, _D6 - 15.875)], ids=repr)
def test_annulus_partner_matches_oracle(region, lo, hi):
    # partners built in the rows of one array make the same sums and the
    # same decisions, and leave the generator where the oracle leaves it
    for s in (1, 2):
        xs = uniform_in_region(region, 2**16 + 5, Seed(s).generator())
        rng, oracle_rng = Seed(s, "partner").generator(), Seed(s, "partner").generator()
        got = nobonds._annulus_partner_inside(region, xs, lo * lo, hi * hi, rng)
        want = oracle_annulus_partner_inside(region, xs, lo * lo, hi * hi, oracle_rng)
        assert got.dtype == bool and np.array_equal(got, want)
        assert repr(rng.bit_generator.state) == repr(oracle_rng.bit_generator.state)


@pytest.mark.parametrize("split", [False, True], ids=["split-above-threshold", "split-always"])
@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
@pytest.mark.parametrize("region", [UNIT_SQUARE, PolarLobes(10**6)], ids=repr)
def test_annulus_partner_rows_match_oracle(monkeypatch, region, used, split):
    # the rho and alpha rows drawn as two stream segments, by one thread or
    # (split-always) two: the oracle's decisions, state and next draws
    if split:
        monkeypatch.setattr(poisson, "_SPLIT", 0)
    lo, hi = (0.3, 0.4) if region == UNIT_SQUARE else (8.0, 8.125)
    for c in (1, 2, 5, 1023, 2**16 + 3):
        xs = uniform_in_region(region, c, Seed(c).generator())
        rng, oracle_rng = Seed(c, "partner").generator(), Seed(c, "partner").generator()
        if used:
            partly_used(rng)
            partly_used(oracle_rng)
        got = nobonds._annulus_partner_inside(region, xs, lo * lo, hi * hi, rng)
        want = oracle_annulus_partner_inside(region, xs, lo * lo, hi * hi, oracle_rng)
        assert np.array_equal(got, want)
        assert repr(rng.bit_generator.state) == repr(oracle_rng.bit_generator.state)
        assert rng.random(3).tobytes() == oracle_rng.random(3).tobytes()
        assert rng.integers(0, 2**32, 3, dtype=np.uint32).tolist() == \
            oracle_rng.integers(0, 2**32, 3, dtype=np.uint32).tolist()


def test_sampler_memory_stays_in_its_buffers():
    # one (2, batch) buffer (16 bytes per batch point) and the output (16
    # bytes per point), plus 4 MiB for the membership mask and the lobes'
    # per-slice temporaries; (batch, 2) batches and whole-batch membership
    # temporaries peaked at 40.3 MiB in both calls
    count = 2**19
    bound = 16 * (2 * count) + 16 * count + (4 << 20)
    region = lobe_domain(10**6)
    bond = BondSpec(_D6 - 16.0, _D6 - 15.875)
    tracemalloc.start()
    try:
        uniform_in_region(region, count, Seed(1).generator())
        sampler_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        estimate_mu_nu(region, 1e-3, bond, count, Seed(1))   # one chunk of 2**19
        chunk_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampler_peak <= bound
    assert chunk_peak <= bound


# ---------------------------------------------------------------------------
# empirical zero-bond probability and the bracket check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("region, epsilon, lo, hi", [
    (UNIT_SQUARE, 5.0, 0.1, 0.15), (Disk(0.5), 10.0, 0.85, 0.9), (PolarLobes(10**6), 5e-5, 40.0, 60.0)],
    ids=repr)
def test_no_bond_trials_match_fresh_generators(monkeypatch, region, epsilon, lo, hi):
    # one rekeyed generator draws every trial's sample as two fresh ones did
    bond, seed = BondSpec(lo, hi), Seed(11, "nb")
    seen = []

    def spy(points, b):
        seen.append(points.tobytes())
        return count_bonds(points, b)

    monkeypatch.setattr(nobonds, "count_bonds", spy)
    p_hat, ci = empirical_no_bond_prob(region, epsilon, bond, 100, seed)
    want = oracle_no_bond_samples(region, epsilon, 100, seed)
    assert seen == [pts.tobytes() for pts in want]
    zero = sum(count_bonds(pts, bond) == 0 for pts in want)
    assert 0 < zero < 100
    assert p_hat == zero / 100
    lo_w, hi_w = nobonds._wilson(zero, 100, nobonds._WILSON_Z99)
    assert ci == max(p_hat - lo_w, hi_w - p_hat)


def test_no_bond_prob_samples_once_per_trial_with_keys_hashed_once(monkeypatch):
    # one sample_poisson call per trial, at the trial's substream, and the
    # keys of all the trials' count and points streams hashed in one
    # vectorized pass (one more hash keys the shared generator)
    labels, hashed = [], []
    real_sample, real_keys = nobonds.sample_poisson, poisson._philox_keys

    def sample_spy(region, density, seed, rng):
        labels.append(seed.stream_label)
        return real_sample(region, density, seed, rng)

    def keys_spy(value, tags):
        hashed.append(np.size(tags))
        return real_keys(value, tags)

    monkeypatch.setattr(nobonds, "sample_poisson", sample_spy)
    monkeypatch.setattr(poisson, "_philox_keys", keys_spy)
    empirical_no_bond_prob(Disk(0.5), 5.0, BondSpec(0.3, 0.4), 150, Seed(4, "nb"))
    assert labels == [f"nb/trial-{t:07d}" for t in range(150)]
    assert sorted(hashed) == [1, 300]


@pytest.mark.parametrize("density", [math.nan, math.inf, -1.0])
def test_no_bond_prob_checks_density_once_before_sampling(monkeypatch, density):
    def no_sampling(*args):
        raise AssertionError("sampled with a bad density")

    monkeypatch.setattr(nobonds, "sample_poisson", no_sampling)
    with pytest.raises(ConfigError, match="density must be finite"):
        empirical_no_bond_prob(UNIT_SQUARE, density, BondSpec(0.1, 0.2), 100, Seed(1))
    made = []

    def density_spy(value):
        made.append(value)
        return nobonds.regions.Density(value)

    monkeypatch.undo()
    monkeypatch.setattr(nobonds, "Density", density_spy)
    empirical_no_bond_prob(UNIT_SQUARE, 2.0, BondSpec(0.1, 0.2), 100, Seed(1))
    assert made == [2.0]


def test_no_bond_prob_density_zero():
    p, ci = empirical_no_bond_prob(UNIT_SQUARE, 0.0, BondSpec(0.1, 0.2), 200, Seed(1))
    assert p == 1.0
    assert ci < 0.05


def test_no_bond_prob_impossible_bond():
    p, _ = empirical_no_bond_prob(Disk(0.4), 3.0, BondSpec(1.0, 2.0), 200, Seed(2))
    assert p == 1.0


def test_count_bonds_brute_and_grid_agree(rng_session):
    pts = rng_session.uniform(0.0, 12.0, size=(2000, 2))
    bond = BondSpec(0.5, 0.9)
    brute = 0
    lo2, hi2 = bond.lo**2, bond.hi**2
    for r in range(len(pts) - 1):
        d2 = ((pts[r + 1:] - pts[r]) ** 2).sum(axis=1)
        brute += int(((d2 >= lo2) & (d2 < hi2)).sum())
    assert count_bonds(pts, bond) == brute


def brute_bond_count(points, bond: BondSpec) -> int:
    """Oracle: unordered pairs with lo^2 <= d^2 < hi^2, one pair at a time."""
    pts = [(float(x), float(y)) for x, y in points]
    lo2, hi2 = bond.lo**2, bond.hi**2
    count = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            if lo2 <= dx * dx + dy * dy < hi2:
                count += 1
    return count


_T = nobonds._BRUTE_MAX_POINTS


@pytest.mark.parametrize("n", [0, 1, 2, 3, 40, _T - 1, _T, _T + 1, "spaced"])
@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.0, 1.5), (0.0, 1.0), (0.3, 0.6)])
def test_count_bonds_matches_double_loop(n, lo, hi):
    # integer lattice points in a 9 x 9 square (times 0.3 for the last
    # bond): many duplicates, and many pairs exactly at lo and at hi;
    # above _T the close-pair grid takes over.  The square sits at [0, 8]
    # and, centred, at [-4, 4], where its grid cells cross index 0.
    # "spaced" is a duplicate-free 23 x 23 lattice (529 > _T points) with
    # spacing 4, above every hi: the close-pair grid runs and finds no pair.
    if n == "spaced":
        lattice = 4.0 * np.indices((23, 23)).reshape(2, -1).T
    else:
        lattice = np.random.default_rng(n).integers(0, 9, size=(n, 2)).astype(float)
    bond = BondSpec(lo, hi)
    for shift in (0.0, 4.0):
        pts = lattice - shift
        if lo == 0.3:
            pts *= 0.3
        want = brute_bond_count(pts, bond)
        assert count_bonds(pts, bond) == want
        assert n != "spaced" or want == 0


def test_count_bonds_small_cases():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert count_bonds(pts[:0], BondSpec(0.0, 1.0)) == 0
    assert count_bonds(pts[:1], BondSpec(0.0, 1.0)) == 0
    assert count_bonds(pts, BondSpec(1.0, 2.0)) == 1      # exactly at lo: a bond
    assert count_bonds(pts, BondSpec(0.5, 1.0)) == 0      # exactly at hi: none
    assert count_bonds(np.zeros((5, 2)), BondSpec(0.0, 0.1)) == 10   # duplicates
    assert count_bonds(np.zeros((5, 2)), BondSpec(0.05, 0.1)) == 0


def test_check_nobonds_trivial_cases():
    v = check_nobonds(MuNuEstimate(0.0, 0.0, 0.0, 0.0, 1), 1.0, 0.0)
    assert v.passed and v.lower == 1.0 and v.upper == 1.0

    v = check_nobonds(MuNuEstimate(2.0, 0.1, 0.0, 0.0, 1), math.exp(-1.95), 1e-3)
    assert v.passed

    v = check_nobonds(MuNuEstimate(2.0, 0.01, 0.0, 0.0, 1), 0.5, 0.01)
    assert not v.passed


def test_nobonds_end_to_end_unit_square():
    bond = BondSpec(0.4, 0.5)
    est = estimate_mu_nu(UNIT_SQUARE, 5.0, bond, 400_000, Seed(10))
    p_hat, ci = empirical_no_bond_prob(UNIT_SQUARE, 5.0, bond, 3000, Seed(11))
    verdict = check_nobonds(est, p_hat, ci)
    assert verdict.passed
    # the exp(-mu) side must sit near the closed-form prediction
    want_mu = mu_rect_exact(1.0, 1.0, 5.0, 0.4, 0.5)
    assert est.mu == pytest.approx(want_mu, rel=0.01)


# ---------------------------------------------------------------------------
# scaling survey (smoke here; full tolerance grid in acceptance)
# ---------------------------------------------------------------------------


def test_survey_shapes_and_ratio_sanity():
    rows = mu_scaling_survey(
        10**5, 1e-3, DistanceClass.MODERATE, [(8.0, 3), (16.0, 3)], 200_000, Seed(12)
    )
    assert len(rows) == 2
    for r in rows:
        assert r.mu > 0 and r.mu_stderr / r.mu < 0.05
        assert 5.0 < r.ratio < 20.0      # order-level agreement
        assert r.nu_over_mu > 0


def test_survey_rejects_extra_large():
    with pytest.raises(ConfigError):
        mu_scaling_survey(10**5, 1e-3, DistanceClass.EXTRA_LARGE, [(8.0, 3)], 10_000, Seed(1))
