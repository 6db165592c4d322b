import math
import mmap
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distgaps.canonical as canon
from distgaps import spectrum
from distgaps.canonical import audit_gap_witnesses, default_k_max, empty_canonical_survey
from distgaps.construction import DistanceClass, nominal_diameter
from distgaps.errors import AuditError, ConfigError
from distgaps.spectrum import DistanceSpectrum, gap_stats, map_spectrum, write_spectrum


def spectrum_of(values) -> DistanceSpectrum:
    return DistanceSpectrum(np.sort(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------------
# Scalar oracle: one canonical interval at a time, for half-open [lo, hi)
# ---------------------------------------------------------------------------


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


def enumerate_best_subinterval(lo: float, hi: float, k_cap: int = 14):
    """Oracle: smallest-k (then smallest-l) canonical interval inside [lo, hi),
    by exhaustive enumeration with exact rational arithmetic."""
    j = math.floor(lo)
    flo, fhi = Fraction(lo), Fraction(hi)
    for k in range(0, k_cap + 1):
        h = Fraction(1, 1 << k)
        for l in range(1, (1 << k) + 1):
            a = j + (l - 1) * h
            b = j + l * h
            if flo <= a and b <= fhi:
                return (j, k, l)
    return None


def test_interval_bounds_examples():
    assert interval_bounds(CanonicalInterval(1, 0, 1)) == (1.0, 2.0)
    assert interval_bounds(CanonicalInterval(3, 2, 3)) == (3.5, 3.75)
    assert interval_bounds(CanonicalInterval(1, 3, 4)) == (1.375, 1.5)


def test_canonical_interval_validation():
    with pytest.raises(ConfigError):
        CanonicalInterval(0, 0, 1)
    with pytest.raises(ConfigError):
        CanonicalInterval(1, 2, 5)
    with pytest.raises(ConfigError):
        CanonicalInterval(1, -1, 1)


def test_largest_subinterval_examples():
    ci = largest_canonical_subinterval(1.3, 1.7)
    assert (ci.j, ci.k, ci.l) == (1, 3, 4)
    assert interval_bounds(ci) == (1.375, 1.5)

    ci = largest_canonical_subinterval(2.0, 2.5)
    assert (ci.j, ci.k, ci.l) == (2, 1, 1)     # [2.0, 2.5) is itself canonical

    ci = largest_canonical_subinterval(5.25, 5.5)
    assert (ci.j, ci.k, ci.l) == (5, 2, 2)
    assert interval_bounds(ci) == (5.25, 5.5)


def test_largest_subinterval_crossing_rejected():
    with pytest.raises(AuditError):
        largest_canonical_subinterval(1.9, 2.1)


def test_largest_subinterval_matches_enumeration(rng_session):
    for _ in range(400):
        j = int(rng_session.integers(1, 50))
        lo = j + float(rng_session.uniform(0.0, 0.9))
        hi = min(lo + float(rng_session.uniform(2.0**-9, 1.0)), j + 1.0)
        if not lo < hi:
            continue
        ci = largest_canonical_subinterval(lo, hi)
        want = enumerate_best_subinterval(lo, hi)
        assert (ci.j, ci.k, ci.l) == want
        a, b = interval_bounds(ci)
        assert lo <= a and b <= hi
        assert ci.length >= (hi - lo) / 4.0


@given(
    st.integers(min_value=1, max_value=20_000),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=1e-9, max_value=1.0),
)
@settings(max_examples=300)
def test_subinterval_lemma_property(j, frac, length):
    lo = j + frac
    hi = min(lo + length, float(j + 1))
    if not lo < hi:
        return
    ci = largest_canonical_subinterval(lo, hi)
    a, b = interval_bounds(ci)
    assert lo <= a and b <= hi
    assert ci.length >= (hi - lo) / 4.0


def test_unit_witnesses_match_scalar_routine(rng_session):
    # the audit's kernel on the open gap (lo, hi) picks the scalar routine's
    # cell for [next float above lo, hi): with lengths >= 2^-30 and j < 2^15
    # every candidate cell starts on a float, so "starts above lo" and
    # "starts at or above the next float" agree
    j = rng_session.integers(1, 1 << 15, 3000).astype(float)
    lo = j + rng_session.uniform(0.0, 1.0, 3000)
    hi = np.minimum(lo + 2.0 ** rng_session.uniform(-30.0, 0.0, 3000), j + 1.0)
    ok = lo < hi
    j, lo, hi = j[ok], lo[ok], hi[ok]
    k, c = canon._unit_witnesses(j, lo - j, hi - j)
    for ji, a, b, ki, ci in zip(j, lo, hi, k, c):
        want = largest_canonical_subinterval(math.nextafter(a, math.inf), b)
        assert (want.j, want.k, want.l) == (int(ji), int(ki), int(ci) + 1)


# ---------------------------------------------------------------------------
# emptiness
# ---------------------------------------------------------------------------


def test_is_empty_examples():
    sp = spectrum_of([1.0, 1.0, 2.0])
    assert is_empty(sp, 1.2, 1.8)
    assert not is_empty(sp, 0.9, 1.1)
    assert not is_empty(sp, 2.0, 2.1)     # half-open: 2.0 is inside
    assert is_empty(sp, 1.0 + 1e-12, 2.0)


def test_is_empty_matches_linear_scan(rng_session):
    vals = np.sort(rng_session.uniform(1.0, 30.0, 2000))
    sp = spectrum_of(vals)
    for _ in range(10_000):
        lo = float(rng_session.uniform(0.5, 30.5))
        hi = lo + float(rng_session.uniform(1e-6, 2.0))
        want = not np.any((vals >= lo) & (vals < hi))
        assert is_empty(sp, lo, hi) == want


# ---------------------------------------------------------------------------
# witness audit
# ---------------------------------------------------------------------------


def test_audit_all_equal_values():
    audit = audit_gap_witnesses(spectrum_of([2.0] * 10))
    assert audit.gap_sum_sq == 0.0
    assert audit.witness_sum_sq == 0.0
    assert audit.holds


def test_audit_single_gap_hand_case():
    # gap (1.0, 1.5): the best strictly-inside dyadic interval is [1.25, 1.5),
    # length 0.25, so 16 * 0.0625 = 1.0 >= 0.25 = gap^2
    audit = audit_gap_witnesses(spectrum_of([1.0, 1.5]))
    assert audit.gap_sum_sq == pytest.approx(0.25)
    assert audit.witness_sum_sq == pytest.approx(0.0625)
    assert audit.holds
    assert audit.crossing_count == 0


def test_audit_crossing_gap():
    # gap (1.9, 2.3) crosses 2; aligned pieces give witnesses of length
    # >= piece/2 on each side: [1.9375, 2.0) wait - exact: left piece 0.1 ->
    # largest dyadic strictly inside ending at 2 is 1/16; right piece 0.3 ->
    # [2, 2.25), length 1/4
    audit = audit_gap_witnesses(spectrum_of([1.9, 2.3]))
    assert audit.crossing_count == 1
    assert audit.gap_sum_sq == pytest.approx((2.3 - 1.9) ** 2, rel=1e-12)
    assert audit.witness_sum_sq >= (0.4 / 4.0) ** 2
    assert audit.holds


def test_audit_gap_longer_than_one():
    # gap (1.2, 3.7): pieces (1.2, 2), [2, 3), [3, 3.7) -> witnesses
    # 1/2 (ending at 2), 1 (unit cell), 1/2 (starting at 3)
    audit = audit_gap_witnesses(spectrum_of([1.2, 3.7]))
    assert audit.crossing_count == 1
    assert audit.witness_sum_sq == pytest.approx(0.25 + 1.0 + 0.25)
    assert audit.holds


def test_audit_tiny_gaps_exact_path():
    base = 7.25
    vals = [base, base + 2.0**-45, base + 2.0**-45 + 2.0**-44, 8.0]
    audit = audit_gap_witnesses(spectrum_of(vals))
    assert audit.holds
    assert audit.positive_gap_count == 3


def test_audit_rejects_sub_unit_minimum():
    with pytest.raises(ConfigError):
        audit_gap_witnesses(spectrum_of([0.5, 1.5]))


def test_audit_window_invariance(rng_session, monkeypatch, tmp_path):
    vals = np.sort(rng_session.uniform(1.0, 40.0, 5000))
    sp = spectrum_of(vals)
    a = audit_gap_witnesses(sp)
    monkeypatch.setattr(spectrum, "_WINDOW", 311)
    b = audit_gap_witnesses(sp)
    assert a.gap_sum_sq == pytest.approx(b.gap_sum_sq, rel=1e-14)
    # per-level witness counts: the sum does not depend on the windows
    assert a.witness_sum_sq == b.witness_sum_sq
    assert a.crossing_witness_sum_sq == b.crossing_witness_sum_sq
    assert a.positive_gap_count == b.positive_gap_count
    assert a.crossing_count == b.crossing_count
    # a file-backed copy, whose walk drops the mapped pages behind it after
    # every page of values, gives every field to the last bit
    monkeypatch.setattr(spectrum, "_RELEASE_STRIDE", mmap.PAGESIZE // 8)
    path = tmp_path / "spec.bin"
    write_spectrum(sp, str(path))
    assert audit_gap_witnesses(map_spectrum(str(path))) == b


@pytest.mark.parametrize("window", [1, 2, 7, 311, 1 << 15])
def test_audit_gap_sum_is_gap_stats(rng_session, monkeypatch, window):
    # zero gaps, crossing gaps and windows smaller than a run of ties
    vals = np.sort(np.concatenate([
        rng_session.uniform(1.0, 30.0, 3000),
        np.repeat(rng_session.uniform(2.0, 20.0, 40), 25),
        np.arange(31.0, 45.0, 1.75),
    ]))
    monkeypatch.setattr(spectrum, "_WINDOW", window)
    sp = spectrum_of(vals)
    audit, gs = audit_gap_witnesses(sp), gap_stats(sp)
    assert audit.gap_sum_sq == gs.gap_sum_sq
    assert audit.max_gap == gs.max_gap == np.diff(vals).max()
    assert audit.gap_count == gs.gap_count == len(vals) - 1
    assert audit.positive_gap_count == np.count_nonzero(np.diff(vals))


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150)
def test_audit_holds_on_random_spectra(count, seed):
    # certified domain: max gap <= 13 (beyond that the per-gap witness family
    # cannot make up a factor 16; construction spectra have gaps far below 1)
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        vals = rng.uniform(1.0, 1.0 + min(20.0, 0.5 * count), count)
    elif kind == 1:
        vals = 1.0 + np.cumsum(rng.exponential(0.05, count))
    else:
        vals = np.round(rng.uniform(1.0, 10.0, count) * 64) / 64.0  # dyadic ties
    vals = np.sort(vals)
    if len(vals) > 1 and np.diff(vals).max() > 13.0:
        return
    audit = audit_gap_witnesses(spectrum_of(vals))
    assert audit.holds
    assert audit.gap_sum_sq <= 16.0 * audit.witness_sum_sq or audit.gap_sum_sq == 0.0


def test_audit_reports_honest_failure_beyond_domain():
    # a lone 16-long gap has only 14 unit-cell witnesses plus two aligned end
    # pieces: 16 * witness_sum < gap^2, and the audit must say so
    audit = audit_gap_witnesses(spectrum_of([1.5, 17.5]))
    assert not audit.holds
    assert audit.crossing_count == 1


def test_audit_witnesses_disjoint(rng_session, monkeypatch):
    # every witness the containment check sees, crossing pieces and unit-cell
    # runs included, is canonical, lies inside its gap and overlaps no other,
    # and the audit's witness sum is their exact squared sum, rounded once
    collected = []
    orig = canon._check_inside

    def record(j, fa, fb, lo, hi):
        orig(j, fa, fb, lo, hi)
        for ji, ai, bi, l, h in zip(j, fa, fb, lo, hi):
            if l < h:        # a crossing gap may have no whole unit cell
                ji = Fraction(ji)
                collected.append((ji + Fraction(l), ji + Fraction(h),
                                  ji + Fraction(ai), ji + Fraction(bi)))

    monkeypatch.setattr(canon, "_check_inside", record)
    vals = np.sort(np.concatenate([
        rng_session.uniform(1.0, 25.0, 4000),
        np.arange(26.0, 60.0, 2.5),      # gaps crossing 2-3 integers, integer ends
        [60.0 + 2.0**-40, 61.0 - 2.0**-30],
    ]))
    audit = audit_gap_witnesses(spectrum_of(vals))
    assert audit.crossing_count >= 14
    assert len(collected) >= audit.positive_gap_count + audit.crossing_count
    collected.sort()
    for lo, hi, a, b in collected:
        assert a < lo < hi <= b
        length = hi - lo
        if length <= 1:
            assert length.numerator == 1 and length.denominator & (length.denominator - 1) == 0
            assert (lo / length).denominator == 1
        else:
            assert length.denominator == 1 and lo.denominator == 1
    for (_, h1, _, _), (l2, _, _, _) in zip(collected, collected[1:]):
        assert h1 <= l2
    # a unit-cell run of length u holds u witnesses of length 1
    exact = sum(hi - lo if hi - lo > 1 else (hi - lo) ** 2 for lo, hi, _, _ in collected)
    assert audit.witness_sum_sq == float(exact)


# Reference for the witness kernel: exact per-gap arithmetic on Fractions.
def _witness_pieces_exact(a: float, b: float) -> tuple[float, int]:
    """Exact per-gap witness handling: split the open gap (a, b) at interior
    integers; return (sum of squared witness lengths, 1 if crossing else 0).

    Boundary-touching pieces take the aligned dyadic interval on that side
    (length >= piece/2); interior unit pieces contribute length-1 witnesses;
    a gap inside one unit interval falls back to the open-interval search.
    All arithmetic is exact (Fraction on the float values).
    """
    af, bf = Fraction(a), Fraction(b)
    ia = math.floor(a) + 1
    interior = list(range(ia, math.ceil(b))) if ia < b else []
    interior = [t for t in interior if af < t < bf]
    if not interior:
        # single-unit-interval gap, exact open search
        L = bf - af
        k = 0
        while Fraction(1, 1 << k) > L:
            k += 1
        for kk in (k, k + 1):
            c = (af * (1 << kk)).__floor__() + 1
            if Fraction(c + 1, 1 << kk) <= bf:
                return float(Fraction(1, 1 << kk)) ** 2, 0
        raise AssertionError("unreachable")
    total = 0.0
    # left piece (a, interior[0]): dyadic interval ending at the boundary
    left_len = Fraction(interior[0]) - af
    if left_len > 0:
        k = 0
        while Fraction(1, 1 << k) >= left_len:   # strict: witness start > a
            k += 1
        total += float(Fraction(1, 1 << k)) ** 2
    # full unit pieces [t, t+1)
    total += max(0, len(interior) - 1) * 1.0
    # right piece [interior[-1], b): dyadic interval starting at the boundary
    right_len = bf - Fraction(interior[-1])
    if right_len > 0:
        k = 0
        while Fraction(1, 1 << k) > right_len:
            k += 1
        total += float(Fraction(1, 1 << k)) ** 2
    return total, 1


def _gap(a: float, b: float) -> tuple[float, float]:
    return a, max(b, math.nextafter(a, math.inf))


def _ulps_above(a: float, count: int) -> float:
    for _ in range(count):
        a = math.nextafter(a, math.inf)
    return a


_BASE = st.floats(min_value=1.0, max_value=2.0**20)
_FRAC = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
_GAPS = st.one_of(
    # 1-40 ulps
    st.builds(lambda a, c: (a, _ulps_above(a, c)), _BASE, st.integers(1, 40)),
    # starting or ending on an integer
    st.builds(lambda j, f: _gap(float(j), j + f), st.integers(1, 2**20), _FRAC),
    st.builds(lambda j, f: _gap(j - f, float(j)), st.integers(2, 2**20), _FRAC),
    # crossing one or several integers
    st.builds(lambda j, fa, t, fb: _gap(j + fa, j + t + fb),
              st.integers(1, 2**20), _FRAC, st.integers(1, 40), _FRAC),
    # lengths 2^-1 .. 2^-49
    st.builds(lambda a, p: _gap(a, a + 2.0**-p), _BASE, st.integers(1, 49)),
)


def kernel_per_gap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared witness sum and crossing flag of each positive gap (a_i, b_i),
    from the audit's kernel: a gap inside [j, j+1], j = floor(a_i), has one
    witness of level k; a crossing gap has end pieces of levels kl and kr
    and ``units`` whole unit cells."""
    j = np.floor(a)
    fa, fb = a - j, b - j
    cross = fb > 1.0
    wsq = np.empty(len(a))
    k, _ = canon._unit_witnesses(j[~cross], fa[~cross], fb[~cross])
    wsq[~cross] = np.ldexp(1.0, -2 * k)
    kl, units, kr = canon._crossing_witnesses(j[cross], fa[cross], fb[cross])
    wsq[cross] = (np.ldexp(1.0, -2 * kl) + units) + np.ldexp(1.0, -2 * kr)
    return wsq, cross


@given(st.lists(_GAPS, min_size=1, max_size=40))
@settings(max_examples=400, deadline=None)
def test_gap_witnesses_match_fraction_oracle(gaps):
    a = np.array([g[0] for g in gaps])
    b = np.array([g[1] for g in gaps])
    wsq, cross = kernel_per_gap(a, b)
    want = [_witness_pieces_exact(x, y) for x, y in gaps]
    assert wsq.tolist() == [w for w, _ in want]
    assert cross.tolist() == [c == 1 for _, c in want]


def _seam_spectrum(rng: np.random.Generator) -> np.ndarray:
    """Sorted values in [2.75, 16003] with more crossing gaps than a default
    window holds: integers (some tied, the last one d_max), fixed fractions
    above them and empty runs of units, so gaps end on an integer, start on
    one, or cross one or several."""
    j = np.arange(3, 16003)
    present = j[rng.random(len(j)) < 0.85]         # the rest leave empty units
    ints = present[rng.random(len(present)) < 0.25].astype(float)
    fracs = np.array([0.125, 0.3, 0.5, 0.9, 0.99])
    inner = (present[:, None] + fracs)[rng.random((len(present), len(fracs))) < 0.3]
    return np.sort(np.concatenate([[2.75, 16003.0], ints, np.repeat(ints[::7], 2), inner]))


@pytest.mark.parametrize("window", [1, 2, 7, 311, 1 << 13])
def test_audit_crossings_across_window_seams(rng_session, monkeypatch, window):
    vals = _seam_spectrum(rng_session)
    a, b = vals[:-1], vals[1:]
    pos = b > a
    wsq, cross = kernel_per_gap(a[pos], b[pos])
    ap, bp = a[pos][cross], b[pos][cross]
    assert cross.sum() > 1 << 13
    assert (np.floor(ap) == ap).any()                      # crossings from an integer
    assert (np.ceil(bp) - np.floor(ap) > 2).any()          # across several integers
    assert ((b == np.floor(b)) & (a < b) & (b - np.floor(a) == 1.0)).any()   # fb == 1
    assert ((a == b) & (a == np.floor(a))).any()           # ties at integers
    monkeypatch.setattr(spectrum, "_WINDOW", window)
    audit = audit_gap_witnesses(spectrum_of(vals))
    assert audit.crossing_count == cross.sum()
    assert audit.positive_gap_count == pos.sum()
    # the witness lengths sit on a coarse grid, so every term and sum is exact
    assert audit.crossing_witness_sum_sq == math.fsum(wsq[cross])
    assert audit.witness_sum_sq == math.fsum(wsq)
    assert audit.crossing_gap_sum_sq == pytest.approx(np.dot(bp - ap, bp - ap), rel=1e-13)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


def test_survey_empty_unit_interval_closed_form():
    # spectrum leaves [2, 3) empty; its cells contribute
    # sum_{k<=K} 2^k * 2^-2k = 2 - 2^-K to that region's sum_sq
    n = 10**4
    vals = np.concatenate([np.linspace(1.0, 1.999, 500), np.linspace(3.0, 3.999, 500)])
    k_max = 10
    rows = empty_canonical_survey(spectrum_of(vals), n, k_max)
    mod = {r.k: r for r in rows if r.dist_class is DistanceClass.MODERATE}
    dense = np.sort(np.concatenate([vals, np.linspace(2.0, 2.999, 500)]))
    rows2 = empty_canonical_survey(spectrum_of(dense), n, k_max)
    mod2 = {r.k: r for r in rows2 if r.dist_class is DistanceClass.MODERATE}
    diff = sum(mod[k].sum_sq - mod2[k].sum_sq for k in range(k_max + 1))
    # the dense spectrum has ~0.001-wide coverage, so the difference is
    # dominated by [2, 3) being fully empty: between (2 - 2^-K) minus the
    # residual fine-level emptiness of the dense interval
    assert diff <= 2.0 - 2.0**-k_max
    assert diff > 1.0


def test_survey_level0_full_coverage():
    n = 10**4
    D = 2.0 * n ** (4.0 / 7.0)
    vals = np.arange(1.0, math.ceil(D)) + 0.5
    rows = empty_canonical_survey(spectrum_of(vals), n, 3)
    at0 = [r for r in rows if r.k == 0]
    assert sum(r.count_empty for r in at0) == 0


def test_survey_classes_partition_units_at_small_n(tmp_path):
    # at n = 1e3 the moderate class ends at 101 > floor(D - 3) = 100, so the
    # large class is empty and extra-large must start at 102, not 101; read
    # back from a dump, the empty class is an empty view of a file mapping
    n = 10**3
    sp = spectrum_of([1.5, 2.5])
    write_spectrum(sp, str(tmp_path / "s.bin"))
    mapped = map_spectrum(str(tmp_path / "s.bin"))
    units = max(math.ceil(nominal_diameter(n)), 3) - 1
    for k_max in (0, 3):
        rows = empty_canonical_survey(sp, n, k_max)
        assert sum(r.count_empty for r in rows if r.k == 0) == units - 2
        assert sum(r.count_empty for r in rows if r.k == k_max) == (units << k_max) - 2
        assert [r for r in rows if r.dist_class is DistanceClass.LARGE] == [
            canon.SurveyRow(DistanceClass.LARGE, k, 0, 0.0) for k in range(k_max + 1)]
        assert empty_canonical_survey(mapped, n, k_max) == rows
    ranges = _class_ranges(n, sp.d_max)
    assert [r[1:] for r in ranges] == [(1, 101), (102, 100), (102, units)]


def test_survey_matches_bruteforce_counts(rng_session):
    n = 10**4
    vals = np.sort(rng_session.uniform(1.0, 30.0, 300))
    sp = spectrum_of(vals)
    k_max = 6
    rows = empty_canonical_survey(sp, n, k_max)
    D = 2.0 * n ** (4.0 / 7.0)
    j_end = max(math.ceil(D), math.floor(sp.d_max) + 1)
    for k in range(k_max + 1):
        want = 0
        h = 2.0**-k
        for j in range(1, j_end):
            for l in range(1 << k):
                a = j + l * h
                if not np.any((vals >= a) & (vals < a + h)):
                    want += 1
        got = sum(r.count_empty for r in rows if r.k == k)
        assert got == want


def _distinct_cells(sorted_vals: np.ndarray, k: int, window: int = 1 << 24) -> int:
    if len(sorted_vals) == 0:
        return 0
    count = 0
    prev_cell = -1.0
    for i in range(0, len(sorted_vals), window):
        cells = np.floor(np.ldexp(sorted_vals[i:i + window], k))
        count += 1 + int(np.count_nonzero(np.diff(cells)))
        if i and cells[0] == prev_cell:
            count -= 1
        prev_cell = cells[-1]
    return count


def _class_ranges(n: int, d_max: float) -> list[tuple[DistanceClass, int, int]]:
    D = nominal_diameter(n)
    j_end = max(math.ceil(D), math.floor(d_max) + 1)
    j_mod_hi = math.floor(1.96 * float(n) ** (4.0 / 7.0))
    j_large_hi = math.floor(D - 3.0)
    return [(DistanceClass.MODERATE, 1, j_mod_hi),
            (DistanceClass.LARGE, j_mod_hi + 1, j_large_hi),
            (DistanceClass.EXTRA_LARGE, max(j_mod_hi, j_large_hi) + 1, j_end - 1)]


def survey_by_rescans(sp: DistanceSpectrum, n: int, k_max: int) -> list[tuple]:
    """Oracle: occupied cells are the distinct values of floor(d * 2^k),
    counted by one rescan of the class's values per level."""
    v = sp.values
    rows = []
    for cls, ja, jb in _class_ranges(n, sp.d_max):
        if jb < ja:
            rows += [(cls, k, 0, 0.0) for k in range(k_max + 1)]
            continue
        sub = v[np.searchsorted(v, float(ja)):np.searchsorted(v, float(jb + 1))]
        for k in range(k_max + 1):
            empty = ((jb - ja + 1) << k) - _distinct_cells(sub, k)
            rows.append((cls, k, empty, empty * math.ldexp(1.0, -2 * k)))
    return rows


def _rows(rows) -> list[tuple]:
    return [(r.dist_class, r.k, r.count_empty, r.sum_sq) for r in rows]


def _survey_value(ja: int, jb: int, k_max: int):
    """Values in [ja, jb + 1): exact cell edges, the class's boundary
    integers, 2^e and 2^e - ulp, and arbitrary floats."""
    top = float(jb + 1)
    powers = [x for e in range(10) for x in (2.0**e, math.nextafter(2.0**e, 0.0))
              if ja <= x < top]
    edges = st.tuples(st.integers(ja, jb), st.integers(0, k_max + 1)).flatmap(
        lambda jk: st.builds(lambda l: jk[0] + l * 2.0**-jk[1],
                             st.integers(0, 2**min(jk[1], 20) - 1)))
    return st.one_of(
        edges,
        st.sampled_from([float(ja), float(jb), math.nextafter(top, 0.0)]),
        st.sampled_from(powers) if powers else st.nothing(),
        st.floats(min_value=float(ja), max_value=top, exclude_max=True),
    )


@st.composite
def _survey_cases(draw):
    n = draw(st.sampled_from([10**3, 10**4]))
    k_max = draw(st.integers(0, 40))
    # values reach two units past D, so the extra-large class grows with d_max
    top = math.ceil(nominal_diameter(n)) + 2
    vals: list[float] = []
    for _, ja, jb in _class_ranges(n, top - 1.0):
        if jb >= ja:       # n = 1e3 has no large class
            count = draw(st.sampled_from([0, 1, 2, 5, 30]))    # empty and one-value classes
            vals += draw(st.lists(_survey_value(ja, jb, k_max),
                                  min_size=count, max_size=count))
    if not vals:
        vals = [1.0]
    vals += draw(st.lists(st.sampled_from(vals), max_size=20))     # repeated values
    # values below 1, which no class surveys, before the first class
    vals += draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=3))
    vals = np.sort(np.asarray(vals))
    # windows that put a class start or an integer on a seam: with window w
    # the pair (vals[i - 1], vals[i]) is the last of one window at w = i + 1
    # and the first of the next at w = i
    steps = [i for i in range(1, len(vals)) if math.floor(vals[i - 1]) < math.floor(vals[i])]
    seams = [w for i in steps for w in (i, i + 1)]
    window = draw(st.sampled_from([1, 2, 3, 7, 1 << 18] + seams))
    return n, k_max, vals, window


@given(_survey_cases())
@settings(max_examples=300, deadline=None)
def test_survey_matches_per_level_rescans(case):
    n, k_max, vals, window = case
    sp = spectrum_of(vals)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_WINDOW", window)          # windows smaller than a class
        got = _rows(empty_canonical_survey(sp, n, k_max))
    assert got == survey_by_rescans(sp, n, k_max)


def test_survey_guards():
    n = 10**4                          # J_end = ceil(D) = 387 for d_max below 386
    sp = spectrum_of([1.5, 2.25, 300.0])
    for k_max in (-1, 41):
        with pytest.raises(ConfigError, match="k_max must be"):
            empty_canonical_survey(sp, n, k_max)
    # J_end = 8192 = 2^13 puts the ids of level 40 at 2^53 ...
    with pytest.raises(ConfigError, match="inexact"):
        empty_canonical_survey(spectrum_of([1.5, 8191.0]), n, 40)
    with pytest.raises(ConfigError, match="inexact"):
        empty_canonical_survey(spectrum_of([1.5, 2.0**20]), n, 33)
    # ... while J_end = 8191 keeps every id below 2^53, the last one exact
    sp = spectrum_of([1.5, 8000.0, math.nextafter(8191.0, 0.0)])
    assert _rows(empty_canonical_survey(sp, n, 40)) == survey_by_rescans(sp, n, 40)


def test_default_k_max():
    assert default_k_max(10**6) == math.ceil((4.0 / 7.0) * math.log2(10**6)) + 8
    assert default_k_max(10**6) <= 40
