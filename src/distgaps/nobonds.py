"""Zero-bond probability machinery.

Discrete side: exact verification of Janson's inequality on small edge
systems by full subset enumeration.  Continuous side: for a homogeneous
Poisson process on a region, with a "bond" meaning a point pair whose
distance falls in [lo, hi), the probability of seeing no bond is bracketed
by exp(-mu) from below and exp(-mu + nu) from above, where mu is the
expected bond count and nu the expected count of vees (ordered center,
unordered leaf pair, both leaves bonded to the center):

    mu = (eps^2 / 2) * IInt_{x,y in X, |y-x| in [lo,hi)} dy dx
    nu = (eps^3 / 2) * IIInt_{x in X; y,z in X bonded to x} dz dy dx

Both integrals are estimated by Monte Carlo with the pair partner drawn
uniformly on the annulus around the center point: x ~ U(X), y = x + (rho,
alpha) with rho^2 ~ U[lo^2, hi^2) and alpha ~ U[0, 2pi), so

    mu = (eps^2/2) * Area(X) * A_ann * P[y in X],   A_ann = pi*(hi^2-lo^2).

This is an unbiased estimator of the same integral as naive pair sampling
but keeps a usable hit rate when the bond interval is a narrow canonical
cell (naive sampling would see ~1e-7 hit rates there).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import regions
from .construction import DistanceClass, close_pairs, nominal_diameter
from .errors import ConfigError, ConvergenceError
from .poisson import as_seed, sample_poisson, uniform_in_region
from .regions import Density, Region

_WILSON_Z99 = 2.5758293035489004
_JANSON_SLACK = 1e-9            # absolute slack of janson_exact's comparisons
_MAX_REL_STDERR = 0.05          # largest relative stderr of mu estimate_mu_nu accepts
# count_bonds compares all n^2 ordered pairs up to this n (a few MB of
# temporaries) and uses the close-pair grid above it
_BRUTE_MAX_POINTS = 512
# janson_exact enumerates all 2**nv subsets of the ground set
MAX_GROUND_SET = 20


# ---------------------------------------------------------------------------
# Discrete: exact Janson on edge systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JansonInstance:
    """Ground set with per-element inclusion probabilities and edge events."""

    probs: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        nv = len(self.probs)
        if nv > MAX_GROUND_SET:
            raise ConfigError(f"ground set of {nv} exceeds the exact limit {MAX_GROUND_SET}")
        if any(not (0.0 <= p < 1.0) for p in self.probs):
            raise ConfigError("element probabilities must lie in [0, 1)")
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < nv and 0 <= b < nv) or a == b:
                raise ConfigError(f"bad edge ({a}, {b})")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ConfigError(f"duplicate edge {key}")
            seen.add(key)


@dataclass
class JansonExactResult:
    m_lower: float          # product of (1 - p_a p_b) over edges
    nu: float               # sum of p_x p_y p_z over vees (adjacent edge pairs)
    p_exact: float          # exact P[no edge fully included]
    epsilon_hat: float      # max edge probability
    upper: float            # m_lower * exp(2*nu / (2 - 2*eps_hat)), the valid bracket
    upper_half_exponent: float   # m_lower * exp(nu / (2 - 2*eps_hat))
    bounds_hold: bool            # m_lower <= p_exact <= upper
    bounds_hold_half_exponent: bool


def janson_exact(instance: JansonInstance) -> JansonExactResult:
    """Exact subset enumeration vs the two-sided Janson bracket.

    The pair term enters the classical multiplicative bound through the sum
    over ordered pairs of intersecting events, which for edge systems is
    2*nu (nu counts each adjacent edge pair once, as a vee).  ``bounds_hold``
    checks m_lower <= p_exact <= m_lower * exp(2*nu/(2 - 2*eps_hat)).  The
    half-exponent variant with nu in place of 2*nu is also evaluated and
    reported: it is NOT a theorem (a triangle with p = 0.2 already exceeds
    it), and ``bounds_hold_half_exponent`` records whether this instance
    happened to satisfy it.  Comparisons use an absolute slack.
    """
    p = np.asarray(instance.probs, dtype=float)
    nv = len(p)
    edges = instance.edges
    size = 1 << nv
    masks = np.arange(size, dtype=np.int64)

    blocked = np.zeros(size, dtype=bool)
    for a, b in edges:
        blocked |= ((masks >> a) & (masks >> b) & 1).astype(bool)
    weight = np.ones(size)
    for x in range(nv):
        bit = ((masks >> x) & 1).astype(bool)
        weight[bit] *= p[x]
        weight[~bit] *= 1.0 - p[x]
    p_exact = float(weight[~blocked].sum())

    edge_p = np.array([p[a] * p[b] for a, b in edges]) if edges else np.empty(0)
    m_lower = float(np.prod(1.0 - edge_p)) if len(edge_p) else 1.0
    eps_hat = float(edge_p.max()) if len(edge_p) else 0.0

    adj: list[list[int]] = [[] for _ in range(nv)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    nu = 0.0
    for x in range(nv):
        nbrs = adj[x]
        for i in range(len(nbrs)):
            for jj in range(i + 1, len(nbrs)):
                nu += p[x] * p[nbrs[i]] * p[nbrs[jj]]

    upper = m_lower * math.exp(2.0 * nu / (2.0 - 2.0 * eps_hat))
    upper_half = m_lower * math.exp(nu / (2.0 - 2.0 * eps_hat))
    lower_ok = m_lower <= p_exact + _JANSON_SLACK
    return JansonExactResult(
        m_lower=m_lower,
        nu=nu,
        p_exact=p_exact,
        epsilon_hat=eps_hat,
        upper=upper,
        upper_half_exponent=upper_half,
        bounds_hold=lower_ok and p_exact <= upper + _JANSON_SLACK,
        bounds_hold_half_exponent=lower_ok and p_exact <= upper_half + _JANSON_SLACK,
    )


def random_janson_instance(
    rng: np.random.Generator, max_ground_set: int = 12, max_prob: float = 0.3
) -> JansonInstance:
    """Random edge system for bulk verification runs; the ground set has
    2..max_ground_set elements."""
    if not 2 <= max_ground_set <= MAX_GROUND_SET:
        raise ConfigError(f"max_ground_set must lie in [2, {MAX_GROUND_SET}], got {max_ground_set}")
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


# ---------------------------------------------------------------------------
# Continuous: mu/nu estimation and the zero-bond bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BondSpec:
    """Point pairs bond iff their distance lies in [lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi):
            raise ConfigError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi})")
        if not math.isfinite(self.hi * self.hi):
            raise ConfigError(f"bond hi must have a finite square, got {self.hi}")


@dataclass
class MuNuEstimate:
    mu: float
    nu: float
    mu_stderr: float
    nu_stderr: float
    samples: int


@dataclass
class NoBondsVerdict:
    p_hat: float
    ci_halfwidth: float
    lower: float            # exp(-(mu + 3 sigma_mu))
    upper: float            # exp(-(mu - 3 sigma_mu) + (nu + 3 sigma_nu))
    passed: bool
    upper_half_nu: float    # alternative upper bound exp(-mu + nu/2), inflated
    passed_half_nu: bool


def estimate_mu_nu(
    region: Region, epsilon: float, bond: BondSpec, samples: int, seed,
) -> MuNuEstimate:
    """Monte Carlo mu and nu with standard errors; deterministic given seed."""
    if samples < 10_000:
        raise ConfigError(f"need >= 1e4 samples, got {samples}")
    Density(epsilon)                 # a NaN or infinite density fails before sampling
    if regions.diameter_upper_bound(region) < bond.lo:
        return MuNuEstimate(0.0, 0.0, 0.0, 0.0, samples)

    area = regions.area(region)
    a_ann = math.pi * (bond.hi**2 - bond.lo**2)
    try:
        c_mu = 0.5 * epsilon**2 * area * a_ann
        c_nu = 0.5 * epsilon**3 * area * a_ann**2
    except OverflowError:            # a float power past the float range
        c_mu = c_nu = math.inf
    if not (math.isfinite(c_mu) and math.isfinite(c_nu)):
        raise ConfigError(
            f"density {epsilon} with bond [{bond.lo}, {bond.hi}) overflows the mu/nu scales"
        )

    rng = as_seed(seed).substream("munu").generator()
    hit_y = 0
    hit_yz = 0
    done = 0
    lo2, hi2 = bond.lo**2, bond.hi**2
    while done < samples:
        c = min(1 << 19, samples - done)
        xs = uniform_in_region(region, c, rng)
        iy = _annulus_partner_inside(region, xs, lo2, hi2, rng)
        iz = _annulus_partner_inside(region, xs, lo2, hi2, rng)
        hit_y += int(iy.sum())
        hit_yz += int((iy & iz).sum())
        done += c

    py = hit_y / samples
    pyz = hit_yz / samples
    mu = c_mu * py
    nu = c_nu * pyz
    mu_se = c_mu * math.sqrt(max(py * (1 - py), 0.0) / samples)
    nu_se = c_nu * math.sqrt(max(pyz * (1 - pyz), 0.0) / samples)
    if hit_y == 0:
        raise ConvergenceError(
            "no bond hits at the requested sample count; "
            "mu is indistinguishable from zero"
        )
    if mu_se / mu > _MAX_REL_STDERR:
        raise ConvergenceError(
            f"relative stderr {mu_se / mu:.3f} exceeds {_MAX_REL_STDERR} "
            f"at {samples} samples"
        )
    return MuNuEstimate(mu, nu, mu_se, nu_se, samples)


def _annulus_partner_inside(
    region: Region, xs: np.ndarray, lo2: float, hi2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    c = len(xs)
    rho = np.sqrt(rng.uniform(lo2, hi2, c))
    alpha = rng.uniform(0.0, 2.0 * math.pi, c)
    # the partners, built in place in the rows of one array: cos(alpha) * rho
    # + x is the sum that xs + column_stack([rho * cos, rho * sin]) makes
    buf = np.empty((2, c))
    for row, trig, coord in zip(buf, (np.cos, np.sin), xs.T):
        trig(alpha, out=row)
        row *= rho
        row += coord
    return np.asarray(regions.contains(region, buf.T), dtype=bool)


def count_bonds(points: np.ndarray, bond: BondSpec) -> int:
    """Number of unordered index pairs with distance in [lo, hi)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        return 0
    if n <= _BRUTE_MAX_POINTS:
        lo2, hi2 = bond.lo**2, bond.hi**2
        dx = pts[:, 0, None] - pts[:, 0]
        dy = pts[:, 1, None] - pts[:, 1]
        d2 = dx * dx + dy * dy
        # d2 is exactly symmetric (a negated difference squares to the same
        # value), so ordered hits less the diagonal count each pair twice
        hits = int(np.count_nonzero((d2 >= lo2) & (d2 < hi2)))
        return (hits - (n if lo2 <= 0.0 < hi2 else 0)) // 2
    i, j = close_pairs(pts, bond.hi)
    if not len(i):
        return 0
    d2 = ((pts[i] - pts[j]) ** 2).sum(axis=1)
    return int((d2 >= bond.lo**2).sum())


def empirical_no_bond_prob(
    region: Region, epsilon: float, bond: BondSpec, trials: int, seed
) -> tuple[float, float]:
    """Share of Poisson samples containing no bond, with a Wilson 99% CI
    halfwidth."""
    if trials < 100:
        raise ConfigError(f"need >= 100 trials, got {trials}")
    seed = as_seed(seed)
    density = Density(epsilon)
    # one generator for every trial, rekeyed to each trial's substreams
    rng = seed.generator()
    zero = 0
    for t in range(trials):
        pts = sample_poisson(region, density, seed.substream(f"trial-{t:07d}"), rng)
        if count_bonds(pts, bond) == 0:
            zero += 1
    p_hat = zero / trials
    lo, hi = _wilson(zero, trials, _WILSON_Z99)
    return p_hat, max(p_hat - lo, hi - p_hat)


# Acceptance criterion 08: (region, density, bond lo, bond hi), covering
# both regions, the densities {2, 5, 10} and the bond widths {0.05, 0.1, 0.25}
CRITERION_08_CONFIGS: tuple[tuple[Region, float, float, float], ...] = (
    (regions.Rectangle(0.5, 0.5), 2.0, 0.40, 0.45),
    (regions.Rectangle(0.5, 0.5), 2.0, 0.30, 0.40),
    (regions.Rectangle(0.5, 0.5), 2.0, 0.20, 0.45),
    (regions.Rectangle(0.5, 0.5), 5.0, 0.10, 0.15),
    (regions.Rectangle(0.5, 0.5), 5.0, 0.05, 0.15),
    (regions.Rectangle(0.5, 0.5), 10.0, 0.02, 0.07),
    (regions.Disk(0.5), 5.0, 0.30, 0.40),
    (regions.Disk(0.5), 10.0, 0.70, 0.95),
    (regions.Disk(0.5), 2.0, 0.10, 0.35),
    (regions.Disk(0.5), 10.0, 0.85, 0.90),
)


def _wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def check_nobonds(est: MuNuEstimate, p_hat: float, ci: float) -> NoBondsVerdict:
    """Interval-intersection test of the zero-bond bracket.

    All compared quantities are estimates, so each side is inflated by three
    standard errors before intersecting with [p_hat - ci, p_hat + ci].
    """
    lower = math.exp(-(est.mu + 3.0 * est.mu_stderr))
    upper = min(1.0, math.exp(-(est.mu - 3.0 * est.mu_stderr) + est.nu + 3.0 * est.nu_stderr))
    passed = max(lower, p_hat - ci) <= min(upper, p_hat + ci)
    upper_half = min(1.0, math.exp(
        -(est.mu - 3.0 * est.mu_stderr) + 0.5 * (est.nu + 3.0 * est.nu_stderr)
    ))
    passed_half = max(lower, p_hat - ci) <= min(upper_half, p_hat + ci)
    return NoBondsVerdict(p_hat, ci, lower, upper, passed, upper_half, passed_half)


# ---------------------------------------------------------------------------
# Scaling survey of mu over canonical bonds
# ---------------------------------------------------------------------------


@dataclass
class SurveyPoint:
    dist_class: DistanceClass
    j: float
    k: int
    mu: float
    mu_stderr: float
    nu: float
    nu_stderr: float
    order_value: float      # the predicted parametric order at (j, k)
    ratio: float            # mu / order_value
    nu_over_mu: float


def mu_scaling_survey(
    n: int,
    epsilon: float,
    dist_class: DistanceClass,
    jk_pairs: Sequence[tuple[float, int]],
    samples: int,
    seed,
) -> list[SurveyPoint]:
    """mu (and nu) on canonical bonds [j, j + 2^-k), with the ratio to the
    predicted order: eps^2 * n * min(j, n^(3/7)) * 2^-k on the strip for
    moderate j, and eps^2 * n^(6/7) * (D-j)^(5/4) * 2^-k on the lobes for
    large j."""
    if dist_class is DistanceClass.EXTRA_LARGE:
        raise ConfigError("survey covers the moderate and large classes only")
    seed = as_seed(seed)
    D = nominal_diameter(n)
    if dist_class is DistanceClass.MODERATE:
        region: Region = regions.rect_domain(n)
    else:
        region = regions.lobe_domain(n)

    out: list[SurveyPoint] = []
    for idx, (j, k) in enumerate(jk_pairs):
        bond = BondSpec(float(j), float(j) + math.ldexp(1.0, -k))
        est = estimate_mu_nu(
            region, epsilon, bond, samples, seed.substream(f"survey-{idx}")
        )
        if dist_class is DistanceClass.MODERATE:
            order = epsilon**2 * n * min(j, float(n) ** (3.0 / 7.0)) * math.ldexp(1.0, -k)
        else:
            order = epsilon**2 * float(n) ** (6.0 / 7.0) * (D - j) ** 1.25 * math.ldexp(1.0, -k)
        out.append(SurveyPoint(
            dist_class=dist_class,
            j=float(j),
            k=k,
            mu=est.mu,
            mu_stderr=est.mu_stderr,
            nu=est.nu,
            nu_stderr=est.nu_stderr,
            order_value=order,
            ratio=est.mu / order,
            nu_over_mu=(est.nu / est.mu) if est.mu > 0 else math.inf,
        ))
    return out
