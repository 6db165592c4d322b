import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from distgaps import construction, harness, nobonds, spectrum
from distgaps.canonical import default_k_max, empty_canonical_survey, survey_to_csv
from distgaps.cli import main
from distgaps.poisson import Seed
from distgaps.spectrum import DistanceSpectrum, all_pair_distances, map_spectrum, write_spectrum


def test_construct_and_spectrum_roundtrip(tmp_path, capsys):
    pts_path = tmp_path / "pts.txt"
    rc = main([
        "construct", "--n", "20000", "--epsilon", "0.001", "--seed", "3",
        "--out", str(pts_path),
    ])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["n_param"] == 20000
    assert rec["gap_bound_holds"] is True
    assert rec["d_min"] >= 1.0 - 1e-12

    dump = tmp_path / "spec.bin"
    csv_out = tmp_path / "summary.csv"
    rc = main([
        "spectrum", "--points-file", str(pts_path),
        "--out", str(csv_out), "--dump", str(dump),
    ])
    assert rc == 0
    header, line = csv_out.read_text().splitlines()
    assert header.startswith("points,m,")
    sp = map_spectrum(str(dump))
    assert sp.m == rec["realized_points"] * (rec["realized_points"] - 1) // 2
    # the dump must agree with a fresh in-process spectrum of the same seed
    con = construction.assemble(20000, 1e-3, Seed(3))
    assert sp.m == con.realized_points * (con.realized_points - 1) // 2


def test_canonical_audit_command(tmp_path, capsys):
    pts_path = tmp_path / "pts.txt"
    dump = tmp_path / "spec.bin"
    main(["construct", "--n", "20000", "--seed", "4", "--out", str(pts_path)])
    capsys.readouterr()
    main(["spectrum", "--points-file", str(pts_path), "--dump", str(dump)])
    capsys.readouterr()
    rc = main(["canonical-audit", "--spectrum-file", str(dump)])
    out = json.loads(capsys.readouterr().out.strip())
    assert rc == 0
    assert out["holds"] is True
    assert out["gap_sum_sq"] > 0


def test_one_gap_sum_across_commands(tmp_path, capsys):
    # construct, spectrum and canonical-audit walk one point set in the same
    # windows with the same sum, so they print the same gap_sum_sq
    pts_path, dump = tmp_path / "pts.txt", tmp_path / "spec.bin"
    assert main(["construct", "--n", "20000", "--seed", "6", "--out", str(pts_path)]) == 0
    constructed = json.loads(capsys.readouterr().out.strip())["gap_sum_sq"]
    assert main(["spectrum", "--points-file", str(pts_path), "--dump", str(dump),
                 "--memory-budget", str(1 << 22)]) == 0
    header, line = capsys.readouterr().out.splitlines()
    summary = dict(zip(header.split(","), line.split(",")))
    assert main(["canonical-audit", "--spectrum-file", str(dump)]) == 0
    audited = json.loads(capsys.readouterr().out.strip())["gap_sum_sq"]
    assert constructed == float(summary["gap_sum_sq"]) == audited


@pytest.mark.parametrize("values", [
    [1.5, 1.2, 3.0, 3.1], [1.5, 2.0, math.inf], [1.5, math.nan, 3.0],
    # past the first window of two gaps; the audit alone would print
    # holds=false for either and exit 1
    [30.0, 30.5, 31.0, 31.5, 1.5], [1.5, 2.0, 2.5, math.nan, 3.0, 3.5],
    [0.5, 1.5, 2.0],
], ids=["unsorted", "inf", "nan", "unsorted-late", "nan-late", "below-one"])
def test_canonical_audit_rejects_bad_dump(tmp_path, capsys, monkeypatch, values):
    # the order check and the audit share one walk: the check sees each
    # window first, so a bad dump exits 2 wherever its fault lies
    monkeypatch.setattr(spectrum, "_WINDOW", 2)
    dump = tmp_path / "spec.bin"
    write_spectrum(DistanceSpectrum(np.array(values)), str(dump))
    assert main(["canonical-audit", "--spectrum-file", str(dump)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error" in err


def test_janson_verify_command(capsys):
    rc = main(["janson-verify", "--instances", "50", "--max-ground-set", "10", "--seed", "2"])
    out = json.loads(capsys.readouterr().out.strip())
    assert rc == 0
    assert out["failures"] == 0
    assert out["instances"] == 50


@pytest.mark.parametrize("max_ground_set", ["1", "21", "25"])
def test_janson_verify_ground_set_range(capsys, max_ground_set):
    rc = main(["janson-verify", "--instances", "3", "--max-ground-set", max_ground_set])
    assert rc == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_janson_verify_needs_an_instance(capsys, instances):
    rc = main(["janson-verify", "--instances", instances])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_nobonds_verify_command(capsys):
    rc = main([
        "nobonds-verify", "--region", '{"kind": "rectangle", "half_width": 0.5, "half_height": 0.5}',
        "--density", "5.0", "--bond-lo", "0.4", "--bond-hi", "0.5",
        "--trials", "500", "--samples", "100000", "--seed", "5",
    ])
    out = json.loads(capsys.readouterr().out.strip())
    assert rc == 0
    assert out["passed"] is True
    fields = {f.name for cls in (nobonds.MuNuEstimate, nobonds.NoBondsVerdict)
              for f in dataclasses.fields(cls)}
    assert set(out) == fields | {"trials", "seed"}
    assert (out["trials"], out["samples"], out["seed"]) == (500, 100_000, 5)


def test_bad_region_json_is_config_error(capsys):
    for region in ('{"kind": "hexagon"}', "{", "[1,2]", '{"kind": "disk"}',
                   '{"kind": "disk", "radius": "x"}', '{"kind": "disk", "radius": 1e400}'):
        rc = main([
            "nobonds-verify", "--region", region,
            "--density", "1.0", "--bond-lo", "0.1", "--bond-hi", "0.2",
        ])
        assert rc == 2, region
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--bond-hi", "inf"), ("--bond-hi", "1e200"), ("--density", "nan"), ("--density", "inf"),
    ("--density", "1e30"), ("--density", "1e200"),
])
def test_bad_bond_or_density_is_config_error(capsys, flag, value):
    # valid counts, so that only the bad value can fail the run
    args = {"--density": "1.0", "--bond-lo": "0.1", "--bond-hi": "0.2", flag: value}
    rc = main(["nobonds-verify", "--region", '{"kind": "disk", "radius": 1}',
               *[a for kv in args.items() for a in kv], "--samples", "10000", "--trials", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert str(float(value)) in err


@pytest.mark.parametrize("bad_line", [
    "nan 0.5 rect", "1.0 inf circle", "1.0 2.0", "1.0 2.0 hexagon", "one 2.0 rect",
])
def test_bad_point_file_is_config_error(tmp_path, capsys, bad_line):
    pts_path = tmp_path / "pts.txt"
    pts_path.write_text(f"# n=1\n0.0 0.0 rect\n{bad_line}\n3.0 0.0 rect\n")
    assert main(["spectrum", "--points-file", str(pts_path)]) == 2
    assert f"{pts_path}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--points-file", "{missing}/pts.txt"],
    ["spectrum", "--points-file", "{dir}"],
    ["spectrum", "--points-file", "{points}", "--out", "{missing}/summary.csv"],
    ["spectrum", "--points-file", "{points}", "--dump", "{missing}/spec.bin"],
    ["spectrum", "--points-file", "{points}", "--dump", "{dir}"],
    ["canonical-audit", "--spectrum-file", "{missing}/spec.bin"],
    ["canonical-audit", "--spectrum-file", "{dir}"],
    ["scaling", "--grid", "10000", "20000", "40000", "80000", "--seeds", "3",
     "--out", "{missing}/runs.csv"],
    ["construct", "--n", "20000", "--out", "{missing}/pts.txt"],
    ["survey", "--n", "20000", "--out", "{missing}/survey.csv"],
    ["survey", "--n", "20000", "--out", "{dir}"],
    ["spectrum", "--points-file", "{points}", "--out", "{dir}/same", "--dump", "{dir}/./same"],
], ids=["spectrum-points-missing", "spectrum-points-dir", "spectrum-out-no-dir",
        "spectrum-dump-no-dir", "spectrum-dump-is-dir", "audit-missing", "audit-dir",
        "scaling-out-no-dir", "construct-out-no-dir", "survey-out-no-dir", "survey-out-is-dir",
        "spectrum-out-is-dump"])
def test_bad_path_fails_early(tmp_path, capsys, argv):
    # a missing file, a directory where a file belongs, a missing output
    # directory or two outputs of one command in one file exits 2 before
    # any work, naming the path, and writes nothing
    points = tmp_path / "pts.txt"
    points.write_text("0.0 0.0 rect\n3.0 0.0 rect\n0.0 4.0 circle\n")
    paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path), "points": str(points)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error" in err and str(tmp_path) in err
    assert os.listdir(tmp_path) == ["pts.txt"]


def test_spectrum_of_one_distance_writes_no_dump(tmp_path, capsys):
    # gap statistics need two distances; their check runs before the dump
    # fold opens its file
    points, dump = tmp_path / "pts.txt", tmp_path / "spec.bin"
    points.write_text("0.0 0.0 rect\n3.0 0.0 rect\n")
    assert main(["spectrum", "--points-file", str(points), "--dump", str(dump)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at least two distances" in err
    assert not dump.exists()


def test_budget_floor(tmp_path, capsys):
    pts_path = tmp_path / "pts.txt"
    pts_path.write_text("0.0 0.0 rect\n3.0 0.0 rect\n0.0 4.0 circle\n")
    floor = 1 << 22
    assert main(["spectrum", "--points-file", str(pts_path),
                 "--memory-budget", str(floor - 1)]) == 2
    assert main(["spectrum", "--points-file", str(pts_path),
                 "--memory-budget", str(floor)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("3,3,3.0,5.0,")


def test_construct_config_hash_follows_settings(capsys):
    def config_hash(*flags):
        assert main(["construct", "--n", "20000", "--seed", "3", *flags]) == 0
        return json.loads(capsys.readouterr().out.strip())["config_hash"]

    first = config_hash()
    assert config_hash("--memory-budget", str(64 << 20)) != first
    assert config_hash() == first


def test_construct_times_the_assembly(monkeypatch, capsys):
    # elapsed_ms covers assemble, as in run_construct and the scaling records
    assemble = construction.assemble

    def slow_assemble(*args):
        time.sleep(0.25)
        return assemble(*args)

    monkeypatch.setattr(construction, "assemble", slow_assemble)
    assert main(["construct", "--n", "20000", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["elapsed_ms"] >= 250


def test_config_error_exit_code():
    # n below the construction minimum
    rc = main(["construct", "--n", "100", "--seed", "1"])
    assert rc == 2


def test_audit_failure_exit_code(tmp_path, capsys):
    # a lone 16-long gap defeats the factor-16 certificate; the CLI must
    # report holds=false and exit 1
    import numpy as np

    from distgaps.spectrum import DistanceSpectrum, write_spectrum

    dump = tmp_path / "bad.bin"
    write_spectrum(DistanceSpectrum(np.array([1.5, 17.5])), str(dump))
    rc = main(["canonical-audit", "--spectrum-file", str(dump)])
    out = json.loads(capsys.readouterr().out.strip())
    assert rc == 1
    assert out["holds"] is False


def test_scaling_command_small(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    rc = main([
        "scaling", "--grid", "10000", "20000", "40000", "80000",
        "--seeds", "3", "--epsilon", "0.001", "--out", str(out_csv),
    ])
    data = json.loads(capsys.readouterr().out.strip())
    assert rc == 0
    assert set(data) == {f.name for f in dataclasses.fields(harness.ScalingFit)} | {"config_hash"}
    assert len(out_csv.read_text().splitlines()) == 13  # header + 12 runs


def test_survey_on_a_spilled_spectrum(tmp_path, capsys):
    # 4,294,967 bytes (0.004 GiB) hold fewer than the m = 681,528 distances
    # of n = 1e5, seed 1, so that spectrum is file-backed
    def survey(budget):
        out = tmp_path / f"survey_{budget}.csv"
        assert main(["survey", "--n", "100000", "--memory-budget", str(budget),
                     "--out", str(out)]) == 0
        return json.loads(capsys.readouterr().out), out.read_text()

    spilled = 4_294_967
    summary, got = survey(spilled)
    m = summary["m"]
    assert m == summary["points"] * (summary["points"] - 1) // 2
    assert 8 * m > 0.75 * spilled                # more than the budget's cap: spilled
    assert summary["k_max"] == default_k_max(100_000)
    assert survey(2 << 30) == (summary, got)     # in memory: the same summary and CSV

    con = construction.assemble(100_000, 1e-3, Seed(1))
    spec = all_pair_distances(con.points, memory_budget_bytes=2 << 30)
    assert not isinstance(spec.values, np.memmap)
    want = tmp_path / "direct.csv"
    survey_to_csv(empty_canonical_survey(spec, 100_000, default_k_max(100_000)), str(want))
    assert got == want.read_text()


@pytest.mark.parametrize("flags", [
    ["--k-max", "41"], ["--k-max", "-1"], ["--n", "9999"], ["--n", "0"],
    ["--n", "3000000", "--k-max", "40"],         # level-40 cell ids of D ~ 1e4 pass 2^53
])
def test_survey_checks_before_any_work(tmp_path, monkeypatch, capsys, flags):
    def no_assemble(*args):
        raise AssertionError("assemble ran")

    monkeypatch.setattr(construction, "assemble", no_assemble)
    out = tmp_path / "survey.csv"
    assert main(["survey", "--n", "20000", "--out", str(out), *flags]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "configuration error" in err
    assert not out.exists()


def test_scaling_flags_are_its_config(tmp_path, capsys):
    grid = ["--grid", "10000", "20000", "30000", "40000"]
    # a budget below the 4 MiB floor exits 2, so the flag is the one in force
    assert main(["scaling", *grid, "--memory-budget", "1024"]) == 2
    capsys.readouterr()

    def run(seeds, out):
        rc = main(["scaling", *grid, "--seeds", seeds, "--epsilon", "0.002", "--base-seed", "7",
                   "--memory-budget", str(64 << 20), "--out", str(out)])
        assert rc == 0
        return json.loads(capsys.readouterr().out.strip())

    # the hash covers the settings that shape results: --seeds changes it,
    # equal flags keep it and the --out destination is not one of them
    other = run("4", tmp_path / "four.csv")["config_hash"]
    printed = run("3", tmp_path / "runs.csv")
    assert printed["config_hash"] != other
    assert run("3", tmp_path / "again.csv")["config_hash"] == printed["config_hash"]
    assert printed["n_grid"] == [10000, 20000, 30000, 40000]
    assert printed["seeds_per_n"] == 3
    rows = [line.split(",") for line in (tmp_path / "runs.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12
    assert {float(r[1]) for r in rows} == {0.002}
    assert {int(r[2]) for r in rows} == {7, 8, 9}


def test_import_leaves_scipy_out():
    # scipy is a test dependency only; the library and CLI must not load it
    import distgaps

    src = os.path.dirname(os.path.dirname(distgaps.__file__))
    code = ("import sys, distgaps.cli, distgaps.harness; "
            "print('scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
