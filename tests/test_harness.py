import csv
import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distgaps import harness
from distgaps.errors import ConfigError, InvariantViolation
from distgaps.harness import (
    CSV_FIELDS,
    RunRecord,
    fit_exponent,
    record_to_json,
    run_construct,
    write_records_csv,
)
from distgaps.poisson import Seed
from distgaps.spectrum import equal_spacing_lower_bound


def test_fit_exponent_examples():
    assert fit_exponent([(1.0, 1.0), (2.0, 2.0)])[0] == pytest.approx(1.0)
    assert fit_exponent([(1.0, 1.0), (4.0, 0.5)])[0] == pytest.approx(-0.5)
    slope, _, r2 = fit_exponent([(10.0, 1e3), (100.0, 1e5)])
    assert slope == pytest.approx(2.0)
    assert r2 == pytest.approx(1.0)


def test_fit_exponent_exact_power_law():
    pts = [(float(n), float(n) ** (-6.0 / 7.0)) for n in (10**5, 3 * 10**5, 10**6, 3 * 10**6)]
    slope, _, r2 = fit_exponent(pts)
    assert slope == pytest.approx(-6.0 / 7.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_rejects_nonpositive():
    with pytest.raises(ConfigError):
        fit_exponent([(1.0, 0.0), (2.0, 1.0)])
    with pytest.raises(ConfigError):
        fit_exponent([(1.0, 1.0)])


@given(
    st.floats(min_value=0.01, max_value=3.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=60)
def test_fit_exponent_recovers_planted_law(mag, sign, scale):
    slope = mag * sign
    xs = [1.0, 3.0, 10.0, 30.0, 100.0]
    pts = [(x, scale * x**slope) for x in xs]
    got, _, r2 = fit_exponent(pts)
    assert got == pytest.approx(slope, abs=1e-9)
    assert r2 >= 1.0 - 1e-9


def test_run_construct_record_invariants():
    rec = run_construct(2 * 10**4, 1e-3, Seed(1))
    assert rec.d_min >= 1.0 - 1e-12
    assert rec.gap_bound_holds
    bound = equal_spacing_lower_bound(rec.d_max, rec.pair_count, rec.d_min)
    assert rec.gap_sum_sq >= bound
    assert rec.realized_points > 300
    assert rec.diameter_nominal == pytest.approx(2.0 * (2 * 10**4) ** (4.0 / 7.0))


def test_run_construct_deterministic_modulo_elapsed():
    a = run_construct(2 * 10**4, 1e-3, Seed(3))
    b = run_construct(2 * 10**4, 1e-3, Seed(3))
    da, db = a.__dict__.copy(), b.__dict__.copy()
    da.pop("elapsed_ms")
    db.pop("elapsed_ms")
    assert da == db


def test_records_do_not_depend_on_budget():
    # 4 MiB holds 393,216 distances: n = 1e5 (about 6.8e5) spills there
    records = []
    for budget in (1 << 22, 128 << 20, 2 << 30):
        fields = run_construct(10**5, 1e-3, Seed(1), memory_budget_bytes=budget).__dict__
        fields.pop("elapsed_ms")
        records.append(fields)
    assert records[0]["realized_points"] ** 2 // 2 > (3 << 20) // 8
    assert records[0] == records[1] == records[2]


def test_validate_rejects_bad_records():
    rec = RunRecord(
        n_param=10**4, epsilon=1e-3, seed=1, realized_points=100,
        diameter_nominal=100.0, d_min=0.5, d_max=90.0, gap_sum_sq=10.0,
        max_gap=1.0, count_top_interval=5, gap_bound_holds=True,
        deleted_fraction_rect=0.0, deleted_fraction_lobes=0.0, elapsed_ms=1,
    )
    with pytest.raises(InvariantViolation):
        rec.validate()     # d_min below 1
    rec.d_min = 1.0
    rec.gap_sum_sq = 1e-9
    with pytest.raises(InvariantViolation):
        rec.validate()     # below the equal-spacing bound


# the run-record header as the README documents it
README_RECORD_HEADER = (
    "n_param,epsilon,seed,realized_points,diameter_nominal,d_min,d_max,gap_sum_sq,"
    "max_gap,count_top_interval,gap_bound_holds,deleted_fraction_rect,"
    "deleted_fraction_lobes,elapsed_ms"
)


def test_csv_roundtrip(tmp_path):
    # the run-record CSV as any reader sees it: the README's header, floats
    # that float() gives back bit for bit, true/false and int() integers
    rec = run_construct(2 * 10**4, 1e-3, Seed(5))
    recs = [rec, dataclasses.replace(rec, gap_bound_holds=False)]
    path = tmp_path / "records.csv"
    write_records_csv(recs, str(path))
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert ",".join(reader.fieldnames) == README_RECORD_HEADER
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    assert f"`{README_RECORD_HEADER}`" in readme
    assert len(rows) == len(recs)
    for row, want in zip(rows, recs):
        for f in dataclasses.fields(RunRecord):
            cell, value = row[f.name], getattr(want, f.name)
            if f.type == "float":
                assert float(cell).hex() == value.hex()
            elif f.type == "bool":
                assert cell == ("true" if value else "false")
            else:
                assert f.type == "int" and int(cell) == value


def test_json_record_fields():
    rec = run_construct(2 * 10**4, 1e-3, Seed(7))
    data = json.loads(record_to_json(rec))
    for f in CSV_FIELDS:
        assert f in data
    assert data["package_version"]
    assert len(data["config_hash"]) == 12


def test_run_scaling_validation():
    with pytest.raises(ConfigError):
        harness.run_scaling([10**4, 2 * 10**4, 3 * 10**4], 3, 1e-3)
    with pytest.raises(ConfigError):
        harness.run_scaling([10**4, 2 * 10**4, 3 * 10**4, 3 * 10**4], 3, 1e-3)
    with pytest.raises(ConfigError):
        harness.run_scaling([10**4, 2 * 10**4, 3 * 10**4, 4 * 10**4], 2, 1e-3)


def test_run_scaling_small_grid_reproducible():
    grid = [10**4, 2 * 10**4, 4 * 10**4, 8 * 10**4]
    fit_a, recs_a = harness.run_scaling(grid, 3, 1e-3, base_seed=7)
    fit_b, recs_b = harness.run_scaling(grid, 3, 1e-3, base_seed=7)
    assert fit_a == fit_b
    assert [dataclasses.replace(r, elapsed_ms=0) for r in recs_a] == \
        [dataclasses.replace(r, elapsed_ms=0) for r in recs_b]
    assert [(r.n_param, r.seed) for r in recs_a] == [(n, 7 + s) for n in grid for s in range(3)]
    assert fit_a.n_grid == grid
    assert 0.0 <= fit_a.r_squared <= 1.0
    assert math.isfinite(fit_a.slope_vs_realized)
