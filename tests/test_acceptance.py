"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line.  Two criteria need a reading note:

* Criterion 1 fits log(mean gap_sum_sq) against log(mean realized point
  count) on the grid {1e5..3e6} at density 1e-3 and asserts a slope in
  [-1.01, -0.71] with r^2 >= 0.95.  The paper's n is the number of points.
  The construction parameter n_param is not proportional to it here: the
  circle part holds ~n_param^(4/7) points (720 of 1,168 at n_param = 1e5, seed 1),
  so N/n_param falls by about half across the grid.  The slope against
  n_param (~ -0.62, r^2 ~ 0.99998) is printed but not asserted: per unit of
  distance, circle-involved pairs give coverage ~ eps*n while strip pairs
  give ~ eps^2 * n^(10/7), and the latter dominates only beyond
  n ~ eps^(-7/3) = 1e7, out of this grid's reach.
* Criterion 7 asserts the multiplicative Janson bracket
  M <= p_exact <= M*exp(Delta/(2 - 2*eps_hat)) by exact enumeration, with
  Delta the sum over ordered pairs of intersecting events (Alon & Spencer,
  ch. 8).  For edge systems Delta = 2*nu, where ``JansonExactResult.nu``
  counts each vee once.  With nu in place of Delta the inequality is false
  (triangle, p = 0.2: exact 0.896 vs 0.89587; see test_nobonds).
"""
import math
import time

import numpy as np
import pytest

from distgaps.canonical import _unit_witnesses, audit_gap_witnesses
from distgaps.construction import (
    DistanceClass,
    assemble,
    build_circle_points,
    build_lobe_points,
    build_rect_points,
    nominal_diameter,
)
from distgaps.harness import fit_exponent, run_scaling
from distgaps.nobonds import (
    CRITERION_08_CONFIGS,
    BondSpec,
    check_nobonds,
    empirical_no_bond_prob,
    estimate_mu_nu,
    janson_exact,
    mu_scaling_survey,
    random_janson_instance,
)
from distgaps.poisson import Seed
from distgaps.spectrum import DistanceSpectrum, equal_spacing_lower_bound
from tests.conftest import min_pairwise_distance

GRID = [100_000, 300_000, 1_000_000, 3_000_000]
SEEDS_PER_N = 3
EPSILON = 1e-3
BUDGET = 2 << 30          # 2 GiB


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE-{num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def grid_run():
    t0 = time.perf_counter()
    fit, records = run_scaling(GRID, SEEDS_PER_N, EPSILON, base_seed=1, memory_budget_bytes=BUDGET)
    elapsed = time.perf_counter() - t0
    return fit, records, elapsed


def test_criterion_01_scaling_exponent(grid_run):
    # The paper's n counts points, so the law is fitted against the realized
    # count (see the module docstring), averaged per n as run_scaling does.
    fit, records, elapsed = grid_run
    by_n: dict[int, tuple[list[int], list[float]]] = {}
    for rec in records:
        counts, sums = by_n.setdefault(rec.n_param, ([], []))
        counts.append(rec.realized_points)
        sums.append(rec.gap_sum_sq)
    means = [
        (float(np.mean(counts)), float(np.mean(sums)))
        for _, (counts, sums) in sorted(by_n.items())
    ]
    slope, _, r2 = fit_exponent(means)
    ok = -1.01 <= slope <= -0.71 and r2 >= 0.95
    detail = (
        f"slope vs realized points = {slope:.4f}, r^2 = {r2:.4f}, "
        f"slope vs n_param = {fit.slope:.4f} (r^2 {fit.r_squared:.4f}, not asserted), "
        f"grid runtime {elapsed:.0f}s, budget 2 GiB"
    )
    report(1, "scaling exponent", ok, detail)
    assert r2 >= 0.95, f"realized-count fit has r^2 = {r2:.4f} < 0.95"
    assert -1.01 <= slope <= -0.71, (
        f"slope of the mean gap_sum_sq vs the mean realized point count is "
        f"{slope:.4f}, outside [-1.01, -0.71] around -6/7"
    )
    assert slope == pytest.approx(fit.slope_vs_realized, rel=0, abs=1e-12)


def test_supplementary_scaling_vs_realized_points(grid_run):
    # Theorem-level statement counts points; the realized-count fit must land
    # in the window even in the pre-asymptotic regime
    fit, _, _ = grid_run
    ok = -1.01 <= fit.slope_vs_realized <= -0.71
    report(1, "supplementary: slope vs realized point count", ok,
           f"slope = {fit.slope_vs_realized:.4f}")
    assert ok
    assert fit.slope_discrepancy_flag  # the two fits genuinely differ here


def test_criterion_02_instancewise_lower_bound(grid_run):
    _, records, _ = grid_run
    worst = math.inf
    for rec in records:
        bound = equal_spacing_lower_bound(rec.d_max, rec.pair_count, rec.d_min)
        worst = min(worst, rec.gap_sum_sq - bound)
        assert rec.gap_sum_sq >= bound, f"record {rec.n_param}/{rec.seed}"
    report(2, "instancewise equal-spacing bound", True,
           f"{len(records)} records, min slack {worst:.3e}")


def test_criterion_03_minimum_distance(grid_run):
    _, records, _ = grid_run
    for rec in records:
        assert rec.d_min >= 1.0 - 1e-12
    # exhaustive check at n = 1e5
    con = assemble(100_000, EPSILON, Seed(1))
    pts = con.points
    best = math.inf
    for i in range(0, len(pts), 256):
        blk = pts[i:i + 256]
        d2 = ((blk[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        for r in range(len(blk)):
            d2[r, i + r] = np.inf
        best = min(best, float(np.sqrt(d2.min())))
    assert best >= 1.0 - 1e-12
    # grid check at every other n
    for n in GRID[1:]:
        con = assemble(n, EPSILON, Seed(1))
        assert min_pairwise_distance(con.points, 1.0 - 1e-12) == math.inf
    report(3, "minimum distance >= 1", True,
           f"exhaustive min at n=1e5: {best:.12f}")


def test_criterion_04_circle_part_top_interval():
    n = 10**6
    t0 = time.perf_counter()
    R = float(n) ** (4.0 / 7.0)
    D = nominal_diameter(n)
    pts = build_circle_points(n)
    assert min_pairwise_distance(pts, 1.0) == math.inf

    half = len(pts) // 2
    p_arc, q_arc = pts[:half], pts[half:]
    diff = p_arc[:, None, :] - q_arc[None, :, :]
    pq = np.sqrt((diff**2).sum(-1)).ravel()
    top = np.sort(pq[pq >= D - 3.0])
    pieces = np.diff(np.concatenate([[D - 3.0], top, [D]]))
    max_piece = float(pieces.max())
    sq_sum = float((pieces**2).sum())
    bound_piece = 15.0 * float(n) ** (-6.0 / 7.0)
    bound_sq = 45.0 * float(n) ** (-6.0 / 7.0)
    elapsed = time.perf_counter() - t0
    ok = max_piece <= bound_piece and sq_sum <= bound_sq
    report(4, "circle-part spacing in [D-3, D]", ok,
           f"max piece {max_piece:.3e} <= {bound_piece:.3e}, "
           f"sq sum {sq_sum:.3e} <= {bound_sq:.3e}, {elapsed:.2f}s")
    assert elapsed < 1.0
    assert max_piece <= bound_piece
    assert sq_sum <= bound_sq


def test_criterion_05_canonical_subinterval_lemma():
    # the audit's kernel: each open interval (lo, hi) inside [j, j+1] gets the
    # witness [j + c*2^-k, j + (c+1)*2^-k), checked here against the exact
    # fractional parts lo - j and hi - j, whose difference is hi - lo exactly
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    los, his = [], []
    for _ in range(100_000):
        j = int(rng.integers(1, 20_001))
        lo = j + float(rng.uniform(0.0, 1.0 - 1e-9))
        # lengths spread over nine decades
        length = 10.0 ** rng.uniform(-9.0, 0.0)
        hi = min(lo + length, float(j + 1))
        if not lo < hi:
            continue
        los.append(lo)
        his.append(hi)
    lo, hi = np.array(los), np.array(his)
    j = np.floor(lo)
    fa, fb = lo - j, hi - j
    k, c = _unit_witnesses(j, fa, fb)
    inside = (np.ldexp(c, -k) > fa) & (np.ldexp(c + 1.0, -k) <= fb)
    longer = 4.0 * np.ldexp(1.0, -k) > fb - fa
    violations = int(np.count_nonzero(~(inside & longer)))
    elapsed = time.perf_counter() - t0
    report(5, "canonical subinterval lemma", violations == 0,
           f"{len(lo)} intervals, {violations} violations, {elapsed:.1f}s")
    assert len(lo) == 100_000
    assert violations == 0
    assert elapsed < 10.0


def _synthetic_spectra(count: int = 100):
    rng = np.random.default_rng(29)
    for i in range(count):
        kind = i % 4
        m = int(rng.integers(100, 3000))
        if kind == 0:
            vals = rng.uniform(1.0, 20.0, m)
        elif kind == 1:
            vals = 1.0 + np.cumsum(rng.exponential(0.02, m))
        elif kind == 2:
            vals = np.round(rng.uniform(1.0, 12.0, m) * 128.0) / 128.0
        else:
            vals = np.concatenate([
                rng.uniform(1.0, 6.0, m // 2),
                np.repeat(rng.uniform(6.0, 9.0, 10), 20),
            ])
        yield np.sort(vals)


def test_criterion_06_witness_audit(grid_run):
    _, records, _ = grid_run
    for rec in records:
        assert rec.gap_bound_holds, f"audit failed on n={rec.n_param} seed={rec.seed}"
    bad = 0
    for vals in _synthetic_spectra(100):
        audit = audit_gap_witnesses(DistanceSpectrum(vals))
        if not audit.holds:
            bad += 1
    report(6, "gap-witness audit", bad == 0,
           f"{len(records)} construction runs + 100 synthetic spectra, "
           f"{bad} violations")
    assert bad == 0


def test_criterion_07_janson_stated_exponent():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    failures = 0
    example = None
    for _ in range(1000):
        inst = random_janson_instance(rng, max_ground_set=12, max_prob=0.3)
        res = janson_exact(inst)
        assert res.m_lower <= res.p_exact + 1e-9     # lower side always holds
        # Janson's Delta sums over ordered pairs of intersecting events
        # (Alon & Spencer, ch. 8); res.nu counts each vee once, so Delta = 2*nu.
        delta = 2.0 * res.nu
        bound = res.m_lower * math.exp(delta / (2.0 - 2.0 * res.epsilon_hat))
        if not res.p_exact <= bound + 1e-9:
            failures += 1
            if example is None:
                example = (res, bound)
    elapsed = time.perf_counter() - t0
    report(7, "discrete Janson, exponent Delta/(2-2eps), Delta = 2*nu",
           failures == 0, f"{failures}/1000 violations, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert failures == 0, (
        f"{failures}/1000 exact enumerations exceed M*exp(Delta/(2-2eps)) with "
        f"Delta = 2*nu the ordered-pair sum; e.g. p_exact={example[0].p_exact:.6f} "
        f"> {example[1]:.6f}"
    )


def test_supplementary_janson_ordered_pair_exponent():
    rng = np.random.default_rng(43)
    failures = 0
    for _ in range(1000):
        res = janson_exact(random_janson_instance(rng, max_ground_set=12, max_prob=0.3))
        if not res.bounds_hold:
            failures += 1
    report(7, "supplementary: Janson with ordered-pair exponent", failures == 0,
           f"{failures}/1000 violations")
    assert failures == 0


def test_criterion_08_no_bonds_bracket():
    t0 = time.perf_counter()
    results = []
    for i, (region, lam, lo, hi) in enumerate(CRITERION_08_CONFIGS):
        bond = BondSpec(lo, hi)
        est = estimate_mu_nu(region, lam, bond, 1_000_000, Seed(100 + i))
        p_hat, ci = empirical_no_bond_prob(region, lam, bond, 10_000, Seed(200 + i))
        verdict = check_nobonds(est, p_hat, ci)
        results.append(verdict.passed)
        assert verdict.passed, (
            f"config {i}: mu={est.mu:.4f} nu={est.nu:.4f} "
            f"p_hat={p_hat:.4f} bracket=[{verdict.lower:.4f}, {verdict.upper:.4f}]"
        )
    elapsed = time.perf_counter() - t0
    report(8, "zero-bond probability bracket", all(results),
           f"10/10 configurations pass, {elapsed:.0f}s")
    assert elapsed < 300.0


def test_criterion_09_mu_scaling_orders():
    n = 10**6
    D = nominal_diameter(n)
    mod = mu_scaling_survey(
        n, EPSILON, DistanceClass.MODERATE,
        [(8.0, 3), (16.0, 3), (8.0, 4)], 1_000_000, Seed(300),
    )
    mu = {(r.j, r.k): r.mu for r in mod}
    ratio_j = mu[(16.0, 3)] / mu[(8.0, 3)]
    ratio_k = mu[(8.0, 3)] / mu[(8.0, 4)]

    large = mu_scaling_survey(
        n, EPSILON, DistanceClass.LARGE,
        [(D - 16.0, 3), (D - 32.0, 3), (D - 64.0, 3)], 2_000_000, Seed(301),
    )
    mul = {round(D - r.j): r.mu for r in large}
    ratio_u1 = mul[32] / mul[16]
    ratio_u2 = mul[64] / mul[32]

    target = 2.0 ** 1.25
    ok = (
        abs(ratio_j - 2.0) <= 0.4
        and abs(ratio_k - 2.0) <= 0.4
        and abs(ratio_u1 - target) <= 0.25 * target
        and abs(ratio_u2 - target) <= 0.25 * target
    )
    report(9, "mu scaling orders", ok,
           f"moderate j-doubling {ratio_j:.3f} (2 +/- 20%), "
           f"k-step {ratio_k:.3f} (2 +/- 20%), "
           f"large (D-j)-doubling {ratio_u1:.3f}, {ratio_u2:.3f} "
           f"({target:.3f} +/- 25%)")
    assert abs(ratio_j - 2.0) <= 0.4
    assert abs(ratio_k - 2.0) <= 0.4
    assert abs(ratio_u1 - target) <= 0.25 * target
    assert abs(ratio_u2 - target) <= 0.25 * target
    # nu/mu stays informative for the bracket in the surveyed range
    for r in mod + large:
        assert r.nu_over_mu < 1.0


def test_criterion_10_top_interval_exponent(grid_run):
    _, records, _ = grid_run
    by_n: dict[int, list[int]] = {}
    for rec in records:
        by_n.setdefault(rec.n_param, []).append(rec.count_top_interval)
    pts = [
        (nominal_diameter(n), float(np.mean(cnts))) for n, cnts in sorted(by_n.items())
    ]
    slope, _, r2 = fit_exponent(pts)
    ok = slope <= 1.7
    report(10, "top-interval count exponent", ok,
           f"fitted exponent {slope:.3f} <= 1.7 (r^2 {r2:.4f})")
    assert ok


def test_criterion_11_deletion_rate():
    n = 10**6
    rect_fracs = []
    lobe_fracs = []
    for s in range(20):
        rect_fracs.append(build_rect_points(n, EPSILON, Seed(s)).deleted_fraction)
        lobe_fracs.append(build_lobe_points(n, EPSILON, Seed(s)).deleted_fraction)
    mr, ml = float(np.mean(rect_fracs)), float(np.mean(lobe_fracs))
    oracle = 1.0 - math.exp(-EPSILON * math.pi)
    ok = mr <= 0.01 and ml <= 0.01
    report(11, "deletion rate", ok,
           f"mean deleted fraction rect {mr:.5f}, lobes {ml:.5f}, "
           f"per-point oracle {oracle:.5f}, threshold 0.01")
    assert mr <= 0.01
    assert ml <= 0.01


def test_supplementary_realized_count_stability(grid_run):
    # The Poisson parts (rect + lobes) sample at fixed density, so their
    # count/n stays within a factor 2 across the grid.  The circle part's
    # ~n^(4/7) points are left out: they make N/n fall by about half.
    _, records, _ = grid_run
    ratios = []
    for rec in records:
        con = assemble(rec.n_param, rec.epsilon, Seed(rec.seed))
        assert con.realized_points == rec.realized_points
        ratios.append((len(con.part("rect")) + len(con.part("lobes"))) / rec.n_param)
    spread = max(ratios) / min(ratios)
    report(0, "supplementary: Poisson-part count/n stability", spread <= 2.0,
           f"spread factor {spread:.3f}")
    assert spread <= 2.0
