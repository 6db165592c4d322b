"""Dyadic (canonical) interval machinery and the gap-witness audit.

A canonical interval is I(j,k,l) = [j + (l-1)*2^-k, j + l*2^-k) with integer
j >= 1, level k >= 0 and 1 <= l <= 2^k: the l-th of the 2^k equal dyadic
cells of [j, j+1).  Any interval of length L <= 1 inside one unit interval
contains a canonical subinterval of length > L/4; the selection here is
exact in floating point because scaling by 2^k and integer ceil/floor are
exact operations.

The audit certifies, per spectrum, that the squared gap sum is at most 16
times the summed squared lengths of one disjoint family of empty canonical
witness intervals (one or more per positive gap).  Gaps crossing integer
boundaries are split at those boundaries; each boundary-touching piece is
aligned to the dyadic grid on that side, which preserves the factor-4
length guarantee, so a single global factor 16 suffices.  (For gaps longer
than ~12 the certificate can genuinely fail; the spectra this package
produces have gaps far below 1.)

One vectorized kernel handles every gap exactly, at any spectrum range,
by working on fractional parts.  For a gap (a, b) with 1 <= a < b < 2^52
and j = floor(a), fa = a - j is exact by Sterbenz's lemma (a/2 <= j <= a),
and fb = b - j is exact because j is a multiple of ulp(b).  A gap inside
one unit interval has fb <= 1 and a length of at least ulp(a); the levels
k its search needs keep ldexp(fa, k) below 2^53, so floor(...) + 1 and the
comparisons are exact.  A crossing gap needs only the binary exponents
(frexp) of its end pieces 1 - fa and b - (ceil(b) - 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .construction import DistanceClass, nominal_diameter
from .errors import AuditError, ConfigError
from .spectrum import DistanceSpectrum, iter_windows

@dataclass(frozen=True)
class CanonicalInterval:
    j: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ConfigError(f"j must be >= 1, got {self.j}")
        if not (0 <= self.k <= 52):
            raise ConfigError(f"k must be in [0, 52], got {self.k}")
        if not (1 <= self.l <= 2**self.k):
            raise ConfigError(f"l must be in [1, 2^{self.k}], got {self.l}")

    @property
    def length(self) -> float:
        return math.ldexp(1.0, -self.k)


def interval_bounds(ci: CanonicalInterval) -> tuple[float, float]:
    h = math.ldexp(1.0, -ci.k)
    return ci.j + (ci.l - 1) * h, ci.j + ci.l * h


def _first_level(length: float) -> int:
    # smallest k with 2^-k <= length (frexp: length = mant * 2^e, mant in [0.5, 1))
    _, e = math.frexp(length)
    return max(0, 1 - e)


def largest_canonical_subinterval(lo: float, hi: float) -> CanonicalInterval:
    """Canonical subinterval of [lo, hi) with the smallest level that fits.

    Requires 1 <= lo < hi, hi - lo <= 1, and [lo, hi) within one unit
    interval [j, j+1); the result has length > (hi - lo)/4 and, among
    fitting cells at the chosen level, the smallest l.
    """
    if not (1.0 <= lo < hi):
        raise ConfigError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi - lo > 1.0:
        raise ConfigError(f"interval longer than 1: [{lo}, {hi})")
    j = math.floor(lo)
    if hi > j + 1:
        raise AuditError(f"[{lo}, {hi}) crosses the integer boundary {j + 1}")
    for k in (k1 := _first_level(hi - lo), k1 + 1):
        c = math.ceil(math.ldexp(lo, k))        # exact: scaling by 2^k is exact
        if c + 1 <= math.ldexp(hi, k):
            return CanonicalInterval(j, k, c - (j << k) + 1)
    raise AssertionError("unreachable: level k1+1 always fits")


def is_empty(spectrum: DistanceSpectrum, lo: float, hi: float) -> bool:
    """True iff no distance lies in [lo, hi)."""
    if not lo < hi:
        raise ConfigError(f"need lo < hi, got [{lo}, {hi})")
    v = spectrum.values
    idx = np.searchsorted(v, lo, side="left")
    return bool(idx == len(v) or v[idx] >= hi)


# ---------------------------------------------------------------------------
# Witness audit
# ---------------------------------------------------------------------------


@dataclass
class WitnessAudit:
    gap_sum_sq: float
    witness_sum_sq: float
    holds: bool
    gap_count: int
    positive_gap_count: int
    crossing_count: int
    crossing_gap_sum_sq: float
    crossing_witness_sum_sq: float


def _check_inside(a: np.ndarray, b: np.ndarray, j: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise AuditError unless each witness [j + lo, j + hi) lies in its open
    gap (a, b).  Compared relative to the integer j, where a - j and b - j
    are exact; consecutive spectrum values bound each gap, so containment
    is the emptiness proof."""
    if np.any(lo <= a - j) or np.any(hi > b - j):
        raise AuditError("non-empty witness interval (containment failed)")


def _gap_witnesses(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared witness sum and crossing flag of each open gap (a_i, b_i),
    1 <= a_i < b_i, with j = floor(a_i).

    A gap inside [j, j+1] takes the best canonical interval of the two-level
    search.  A gap crossing integers takes the largest 2^-k strictly below
    its left piece (a, j+1), ending at j+1; the unit cells from j+1 to
    ceil(b)-1; and the largest 2^-k within its right piece
    [ceil(b)-1, b), starting at ceil(b)-1.
    """
    j = np.floor(a)
    cross = b - j > 1.0
    wsq = np.empty(len(a))

    # inside one unit interval: two-level search on the exact fractional parts
    ai, bi, ji = a[~cross], b[~cross], j[~cross]
    fa, fb = ai - ji, bi - ji
    _, e = np.frexp(fb - fa)
    k = np.maximum(1 - e, 0)                     # smallest k with 2^-k <= gap
    k += np.floor(np.ldexp(fa, k)) + 2.0 > np.ldexp(fb, k)    # misses: k+1 fits
    c = np.floor(np.ldexp(fa, k)) + 1.0          # first grid index above fa
    _check_inside(ai, bi, ji, np.ldexp(c, -k), np.ldexp(c + 1.0, -k))
    wsq[~cross] = np.ldexp(1.0, -2 * k)

    # crossing integers: closed form from the end pieces' binary exponents
    ac, bc, jc = a[cross], b[cross], j[cross]
    m, e = np.frexp(1.0 - (ac - jc))
    hl = np.ldexp(1.0, e - 1 - (m == 0.5))
    top = np.ceil(bc - jc) - 1.0                 # right piece starts at j + top
    _, e = np.frexp(bc - jc - top)
    hr = np.ldexp(1.0, e - 1)
    ones = np.ones(len(ac))
    for lo, hi in ((1.0 - hl, ones), (ones, top), (top, top + hr)):
        _check_inside(ac, bc, jc, lo, hi)
    # left piece, unit cells, right piece: the Fraction oracle's order
    wsq[cross] = (hl * hl + (top - 1.0)) + hr * hr
    return wsq, cross


def audit_gap_witnesses(spectrum: DistanceSpectrum, window: int = 1 << 24) -> WitnessAudit:
    """Certify gap_sum_sq <= 16 * witness_sum_sq over disjoint empty witnesses.

    Every positive gap (d_i, d_{i+1}) contributes the canonical witness(es)
    found inside it; containment in the open gap is verified explicitly, and
    containment implies emptiness because consecutive spectrum values bound
    the gap.  Crossing gaps are reported separately.
    """
    v = spectrum.values
    if len(v) < 2:
        raise ConfigError("need at least two distances to audit")
    if spectrum.d_min < 1.0:
        raise ConfigError(f"audit requires d_min >= 1, got {spectrum.d_min}")

    gap_total = 0.0
    gap_comp = 0.0
    wit_total = 0.0
    wit_comp = 0.0
    cross_gap_sq = 0.0
    cross_wit_sq = 0.0
    positive = 0
    crossing = 0
    gaps_seen = 0

    def kadd(val: float, which: int) -> None:
        nonlocal gap_total, gap_comp, wit_total, wit_comp
        if which == 0:
            yv = val - gap_comp
            t = gap_total + yv
            gap_comp = (t - gap_total) - yv
            gap_total = t
        else:
            yv = val - wit_comp
            t = wit_total + yv
            wit_comp = (t - wit_total) - yv
            wit_total = t

    for w in iter_windows(v, window):
        a = np.asarray(w[:-1], dtype=float)
        b = np.asarray(w[1:], dtype=float)
        g = b - a
        gaps_seen += len(g)
        pos = g > 0
        if not pos.any():
            continue
        a, b, g = a[pos], b[pos], g[pos]
        positive += len(g)
        kadd(float(np.dot(g, g)), 0)
        wsq, cross = _gap_witnesses(a, b)
        kadd(float(wsq.sum()), 1)
        gc = g[cross]
        crossing += len(gc)
        cross_gap_sq += float(np.dot(gc, gc))
        cross_wit_sq += float(wsq[cross].sum())

    holds = gap_total <= 16.0 * wit_total
    return WitnessAudit(
        gap_sum_sq=gap_total,
        witness_sum_sq=wit_total,
        holds=holds,
        gap_count=gaps_seen,
        positive_gap_count=positive,
        crossing_count=crossing,
        crossing_gap_sum_sq=cross_gap_sq,
        crossing_witness_sum_sq=cross_wit_sq,
    )


# ---------------------------------------------------------------------------
# Empty-interval survey
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyRow:
    dist_class: DistanceClass
    k: int
    count_empty: int
    sum_sq: float


def default_k_max(n: int) -> int:
    """Levels through (4/7)*log2(n) plus eight extra for the tail."""
    return math.ceil((4.0 / 7.0) * math.log2(n)) + 8


def empty_canonical_survey(
    spectrum: DistanceSpectrum, n: int, k_max: int
) -> list[SurveyRow]:
    """Count empty canonical intervals per (distance class, level).

    At level k the canonical cells over all j tile [1, J_end) uniformly with
    step 2^-k (integers are multiples of every such step), so empty-cell
    counts are total cells minus occupied cells.  A unit interval with no
    distances therefore contributes its full complement of cells at every
    level without being enumerated.

    Occupied cells come from one pass over each class's sorted values.  With
    the exact cell ids c = floor(d * 2^k_max), the level-k cell of d is
    c >> (k_max - k), so two adjacent values share a level-k cell unless
    their ids differ in a bit at or above k_max - k.  Each adjacent pair
    therefore first splits at level k_max - (top bit of the XOR of its ids),
    at 0 if that is negative, and stays split at every finer level; equal
    ids never split.  Occupied cells at level k are one plus the pairs that
    split at a level <= k.
    """
    if not (0 <= k_max <= 40):
        raise ConfigError(f"k_max must be in [0, 40], got {k_max}")
    v = spectrum.values
    D = nominal_diameter(n)
    d_max = spectrum.d_max
    J_end = max(math.ceil(D), math.floor(d_max) + 1)
    if math.ldexp(J_end, k_max) >= 2.0**53:
        raise ConfigError("k_max too deep for this spectrum range (cell ids inexact)")

    # class of a unit interval [j, j+1) by its left endpoint, clamped to [1, D]
    j_mod_hi = math.floor(1.96 * float(n) ** (4.0 / 7.0))
    j_large_hi = math.floor(D - 3.0)
    ranges = [
        (DistanceClass.MODERATE, 1, j_mod_hi),
        (DistanceClass.LARGE, j_mod_hi + 1, j_large_hi),
        (DistanceClass.EXTRA_LARGE, j_large_hi + 1, J_end - 1),
    ]

    rows: list[SurveyRow] = []
    for cls, ja, jb in ranges:
        if jb < ja:
            for k in range(k_max + 1):
                rows.append(SurveyRow(cls, k, 0, 0.0))
            continue
        i0 = int(np.searchsorted(v, float(ja), side="left"))
        i1 = int(np.searchsorted(v, float(jb + 1), side="left"))
        occupied = _occupied_cells(v[i0:i1], k_max)
        units = jb - ja + 1
        for k in range(k_max + 1):
            empty = (units << k) - occupied[k]
            rows.append(SurveyRow(cls, k, empty, empty * math.ldexp(1.0, -2 * k)))
    return rows


_SURVEY_WINDOW = 1 << 18


def _occupied_cells(sorted_vals: np.ndarray, k_max: int) -> list[int]:
    """Occupied level-k cells of sorted values below 2^(53 - k_max), for
    k = 0..k_max, from the first-split level of each adjacent pair."""
    if len(sorted_vals) == 0:
        return [0] * (k_max + 1)
    # pairs by the binary exponent e of their id XOR (top bit e - 1; e = 0
    # for equal ids), which is below 2^53 and so exact as a float
    by_exp = np.zeros(54, dtype=np.int64)
    for w in iter_windows(sorted_vals, _SURVEY_WINDOW):
        ids = np.floor(np.ldexp(w, k_max)).astype(np.int64)
        _, e = np.frexp((ids[1:] ^ ids[:-1]).astype(float))
        by_exp += np.bincount(e, minlength=54)
    # exponent e >= 1 splits at level max(k_max + 1 - e, 0)
    first_split = [0] * (k_max + 1)
    for e in range(1, 54):
        first_split[max(k_max + 1 - e, 0)] += int(by_exp[e])
    return (1 + np.cumsum(first_split)).tolist()


def survey_to_csv(rows: Iterable[SurveyRow], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("class,k,count_empty,sum_sq\n")
        for r in rows:
            fh.write(f"{r.dist_class.value},{r.k},{r.count_empty},{r.sum_sq!r}\n")
