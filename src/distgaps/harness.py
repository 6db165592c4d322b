"""Experiment orchestration: end-to-end runs, records, and scaling fits."""
from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from . import __version__, canonical
from .construction import Construction, assemble
from .errors import ConfigError, InvariantViolation
from .poisson import Seed, as_seed
from .spectrum import (
    DEFAULT_MEMORY_BUDGET,
    all_pair_distances,
    count_in_range,
    equal_spacing_lower_bound,
    gap_stats,  # not called here; perfbench's tracer rebinds it by this name
)

MIN_DISTANCE_TOLERANCE = 1e-12


@dataclass
class RunRecord:
    n_param: int
    epsilon: float
    seed: int
    realized_points: int
    diameter_nominal: float
    d_min: float
    d_max: float
    gap_sum_sq: float
    max_gap: float
    count_top_interval: int
    gap_bound_holds: bool
    deleted_fraction_rect: float
    deleted_fraction_lobes: float
    elapsed_ms: int

    @property
    def pair_count(self) -> int:
        return self.realized_points * (self.realized_points - 1) // 2

    def validate(self) -> None:
        if self.d_min < 1.0 - MIN_DISTANCE_TOLERANCE:
            raise InvariantViolation(f"d_min {self.d_min!r} below 1")
        bound = equal_spacing_lower_bound(self.d_max, self.pair_count, self.d_min)
        if self.gap_sum_sq < bound:
            raise InvariantViolation(
                f"gap_sum_sq {self.gap_sum_sq!r} below the equal-spacing bound {bound!r}"
            )


CSV_FIELDS = [f.name for f in fields(RunRecord)]


@dataclass
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float
    n_grid: list[int]
    seeds_per_n: int
    slope_vs_realized: float
    # |slope - slope_vs_realized| > 0.1; raised on the default grid, where
    # the circle part's ~n^(4/7) points keep the realized count from
    # growing in proportion to n
    slope_discrepancy_flag: bool


@dataclass
class HarnessConfig:
    """The five settings that shape a run's results; ``config_hash`` hashes them."""

    n_grid: list[int] = field(default_factory=lambda: [100_000, 300_000, 1_000_000, 3_000_000])
    seeds_per_n: int = 3
    epsilon: float = 1e-3
    base_seed: int = 1
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def record_from_construction(
    con: Construction,
    *,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
    started_at: float,
) -> RunRecord:
    """Spectrum, witness audit, and validation for one assembled
    construction; ``elapsed_ms`` counts from ``started_at`` (perf_counter)."""
    spec = all_pair_distances(con.points, memory_budget_bytes=memory_budget_bytes)
    audit = canonical.audit_gap_witnesses(spec)
    D = con.diameter_nominal
    rec = RunRecord(
        n_param=con.n_param,
        epsilon=con.epsilon,
        seed=con.seed.value,
        realized_points=con.realized_points,
        diameter_nominal=D,
        d_min=spec.d_min,
        d_max=spec.d_max,
        gap_sum_sq=audit.gap_sum_sq,
        max_gap=audit.max_gap,
        count_top_interval=count_in_range(spec, D - 1.0, D),
        gap_bound_holds=audit.holds,
        deleted_fraction_rect=con.deleted_fraction_rect,
        deleted_fraction_lobes=con.deleted_fraction_lobes,
        elapsed_ms=int(round((time.perf_counter() - started_at) * 1000.0)),
    )
    rec.validate()
    return rec


def run_construct(
    n: int,
    epsilon: float,
    seed,
    *,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> RunRecord:
    """Assemble, measure, audit, and validate one construction."""
    t0 = time.perf_counter()
    con = assemble(n, epsilon, as_seed(seed))
    return record_from_construction(con, memory_budget_bytes=memory_budget_bytes, started_at=t0)


def fit_exponent(pairs: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS of log y on log x; returns (slope, intercept, r_squared)."""
    if len(pairs) < 2:
        raise ConfigError("need at least two points to fit")
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([p[1] for p in pairs], dtype=float)
    if (xs <= 0).any() or (ys <= 0).any():
        raise ConfigError("log-log fit requires positive coordinates")
    lx, ly = np.log(xs), np.log(ys)
    A = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def run_scaling(
    n_grid: Sequence[int],
    seeds_per_n: int,
    epsilon: float,
    *,
    base_seed: int = 1,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> tuple[ScalingFit, list[RunRecord]]:
    """Average gap sums per n over seeds and fit the log-log slope.

    Fits against both the parameter n and the realized point count, which
    is the n of the -6/7 law.  The two are not proportional on grids such as
    1e5..3e6 at eps = 1e-3: the circle part's ~n^(4/7) points are a large
    share of the count at small n, so the slopes differ there and the
    discrepancy flag (a gap above 0.1) is expected to be raised.
    """
    grid = [int(v) for v in n_grid]
    if len(grid) < 4:
        raise ConfigError("scaling grid needs at least 4 values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("scaling grid must be strictly ascending")
    if seeds_per_n < 3:
        raise ConfigError("need at least 3 seeds per n")

    records: list[RunRecord] = []
    mean_points: list[tuple[float, float]] = []
    realized_points: list[tuple[float, float]] = []
    for n in grid:
        sums = []
        realized = []
        for s in range(seeds_per_n):
            rec = run_construct(
                n, epsilon, Seed(base_seed + s), memory_budget_bytes=memory_budget_bytes
            )
            records.append(rec)
            sums.append(rec.gap_sum_sq)
            realized.append(rec.realized_points)
        mean_points.append((float(n), float(np.mean(sums))))
        realized_points.append((float(np.mean(realized)), float(np.mean(sums))))

    slope, intercept, r2 = fit_exponent(mean_points)
    slope_real, _, _ = fit_exponent(realized_points)
    return ScalingFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        n_grid=grid,
        seeds_per_n=seeds_per_n,
        slope_vs_realized=slope_real,
        slope_discrepancy_flag=abs(slope - slope_real) > 0.1,
    ), records


# ---------------------------------------------------------------------------
# Record IO
# ---------------------------------------------------------------------------


def record_to_csv_row(rec: RunRecord) -> list[str]:
    vals = asdict(rec)
    out = []
    for f in CSV_FIELDS:
        v = vals[f]
        if isinstance(v, bool):
            out.append("true" if v else "false")
        elif isinstance(v, float):
            out.append(repr(v))
        else:
            out.append(str(v))
    return out


def write_records_csv(records: Iterable[RunRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for rec in records:
            w.writerow(record_to_csv_row(rec))


def record_to_json(rec: RunRecord, config: HarnessConfig | None = None) -> str:
    data = asdict(rec)
    data["package_version"] = __version__
    data["config_hash"] = (config or HarnessConfig()).config_hash()
    return json.dumps(data, sort_keys=True)
