"""Dyadic (canonical) intervals: the gap-witness audit and the empty-cell survey.

A canonical interval is I(j,k,l) = [j + (l-1)*2^-k, j + l*2^-k) with integer
j >= 1, level k >= 0 and 1 <= l <= 2^k: the l-th of the 2^k equal dyadic
cells of [j, j+1).  Any interval of length L <= 1 inside one unit interval
contains a canonical subinterval of length > L/4.

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

The audit walks the spectrum in the consumer windows of ``spectrum`` and
takes the squared gap sum of every window, zeros included, with the same
``SquaredGapSum`` as ``gap_stats``, so both report the same sum to the last
bit, and the largest gap from the same differences.  Per window, one mask
selects the positive gaps inside a unit interval and each of their arrays
is compressed once.  A crossing gap contains an integer, so there is at
most one per integer below d_max; they are kept until the walk ends and
witnessed in one call.  Every witness is counted by its level k (whole
unit cells apart), so the witness sum is sum(count[k] * 4^-k) + units over
exact products, rounded once at the end: it depends on neither window nor
order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .construction import DistanceClass, class_limits, nominal_diameter
from .errors import AuditError, ConfigError
from .spectrum import DistanceSpectrum, SquaredGapSum, iter_windows

# witness levels: a gap of a value >= 1 is at least 2^-52 long, so k <= 53
_LEVELS = 54


# ---------------------------------------------------------------------------
# Witness audit
# ---------------------------------------------------------------------------


@dataclass
class WitnessAudit:
    gap_sum_sq: float
    max_gap: float
    witness_sum_sq: float
    holds: bool
    gap_count: int
    positive_gap_count: int
    crossing_count: int
    crossing_gap_sum_sq: float
    crossing_witness_sum_sq: float


def _check_inside(j: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise AuditError unless each witness [j + lo, j + hi) lies in its open
    gap (j + fa, j + fb).  Compared relative to the integer j, where the
    fractional parts fa and fb are exact; consecutive spectrum values bound
    each gap, so containment is the emptiness proof."""
    if (lo <= fa).any() or (hi > fb).any():
        raise AuditError("non-empty witness interval (containment failed)")


def _unit_witnesses(j: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level k and grid index c of the witness [j + c*2^-k, j + (c+1)*2^-k)
    of each open gap (j + fa, j + fb) inside one unit interval,
    0 <= fa < fb <= 1: the coarsest dyadic cell that fits, leftmost at its
    level, from a two-level search.  Its length exceeds a quarter of the gap.
    """
    _, e = np.frexp(fb - fa)
    k = 1 - e                                    # smallest k with 2^-k <= gap <= 1
    k += np.floor(np.ldexp(fa, k)) + 2.0 > np.ldexp(fb, k)    # misses: k+1 fits
    c = np.floor(np.ldexp(fa, k)) + 1.0          # first grid index above fa
    _check_inside(j, fa, fb, np.ldexp(c, -k), np.ldexp(c + 1.0, -k))
    return k, c


def _crossing_witnesses(j: np.ndarray, fa: np.ndarray, fb: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Witnesses of each open gap (j + fa, j + fb) crossing integers,
    0 <= fa < 1 < fb, as (kl, units, kr): the largest 2^-kl strictly below
    the left piece (fa, 1), ending at 1; the unit cells from 1 to
    top = ceil(fb) - 1; and the largest 2^-kr within the right piece
    [top, fb), starting at top.
    """
    m, e = np.frexp(1.0 - fa)
    kl = 1 - e + (m == 0.5)
    top = np.ceil(fb) - 1.0
    _, e = np.frexp(fb - top)
    kr = 1 - e
    ones = np.ones(len(fa))
    for lo, hi in ((1.0 - np.ldexp(1.0, -kl), ones), (ones, top),
                   (top, top + np.ldexp(1.0, -kr))):
        _check_inside(j, fa, fb, lo, hi)
    return kl, top - 1.0, kr


def _dyadic_sum(levels: np.ndarray, units: int) -> float:
    """sum(levels[k] * 4^-k) + units, rounded once: each product is exact."""
    return math.fsum([float(units)] + [int(c) * math.ldexp(1.0, -2 * k)
                                       for k, c in enumerate(levels)])


def audit_gap_witnesses(spectrum: DistanceSpectrum) -> WitnessAudit:
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

    gap_sum = SquaredGapSum()
    max_gap = 0.0
    levels = np.zeros(_LEVELS, dtype=np.int64)   # witnesses inside a unit interval, per level
    cross_a: list[np.ndarray] = []               # crossing gaps, at most one per integer
    cross_b: list[np.ndarray] = []
    for w in iter_windows(v):
        a, b = w[:-1], w[1:]
        g = b - a
        if not len(g):
            continue
        gap_sum.add(g)
        max_gap = max(max_gap, float(g.max()))
        fb = b - np.floor(a)
        keep = g > 0.0
        keep &= fb <= 1.0                        # positive, inside one unit interval
        ak = a[keep]
        jk = np.floor(ak)
        k, _ = _unit_witnesses(jk, ak - jk, fb[keep])
        levels += np.bincount(k, minlength=_LEVELS)
        cross = fb > 1.0                         # positive, crossing an integer
        if cross.any():
            cross_a.append(a[cross])
            cross_b.append(b[cross])

    a = np.concatenate(cross_a) if cross_a else np.empty(0)
    b = np.concatenate(cross_b) if cross_b else np.empty(0)
    j = np.floor(a)
    kl, units, kr = _crossing_witnesses(j, a - j, b - j)
    cross_levels = np.bincount(np.concatenate([kl, kr]), minlength=_LEVELS)
    cross_units = int(units.sum())               # integers below 2^53: exact
    cross_g = b - a
    cross_sum = SquaredGapSum()
    cross_sum.add(cross_g)

    witness_sum_sq = _dyadic_sum(levels + cross_levels, cross_units)
    return WitnessAudit(
        gap_sum_sq=gap_sum.total,
        max_gap=max_gap,
        witness_sum_sq=witness_sum_sq,
        holds=gap_sum.total <= 16.0 * witness_sum_sq,
        gap_count=len(v) - 1,
        positive_gap_count=int(levels.sum()) + len(cross_g),
        crossing_count=len(cross_g),
        crossing_gap_sum_sq=cross_sum.total,
        crossing_witness_sum_sq=_dyadic_sum(cross_levels, cross_units),
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
    j_mod_hi, j_large_hi = map(math.floor, class_limits(n))
    ranges = [
        (DistanceClass.MODERATE, 1, j_mod_hi),
        (DistanceClass.LARGE, j_mod_hi + 1, j_large_hi),
        # at small n the moderate class reaches past D - 3 and the large
        # class is empty; extra-large starts after whichever ends later
        (DistanceClass.EXTRA_LARGE, max(j_mod_hi, j_large_hi) + 1, J_end - 1),
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


def _occupied_cells(sorted_vals: np.ndarray, k_max: int) -> list[int]:
    """Occupied level-k cells of sorted values below 2^(53 - k_max), for
    k = 0..k_max, from the first-split level of each adjacent pair."""
    if len(sorted_vals) == 0:
        return [0] * (k_max + 1)
    # pairs by the binary exponent e of their id XOR (top bit e - 1; e = 0
    # for equal ids), which is below 2^53 and so exact as a float
    by_exp = np.zeros(54, dtype=np.int64)
    for w in iter_windows(sorted_vals):
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
