import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from distgaps import construction, harness, nobonds
from distgaps.cli import main
from distgaps.poisson import Seed
from distgaps.spectrum import DistanceSpectrum, read_spectrum, write_spectrum


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
    sp = read_spectrum(str(dump))
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
], ids=["unsorted", "inf", "nan"])
def test_canonical_audit_rejects_bad_dump(tmp_path, capsys, values):
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
    ["scaling", "--config", "{missing}/cfg.yaml"],
    ["scaling", "--config", "{dir}"],
    ["scaling", "--grid", "10000", "20000", "40000", "80000", "--seeds", "3",
     "--out", "{missing}/runs.csv"],
    ["construct", "--n", "20000", "--out", "{missing}/pts.txt"],
], ids=["spectrum-points-missing", "spectrum-points-dir", "spectrum-out-no-dir",
        "spectrum-dump-no-dir", "spectrum-dump-is-dir", "audit-missing", "audit-dir",
        "scaling-config-missing", "scaling-config-dir", "scaling-out-no-dir",
        "construct-out-no-dir"])
def test_bad_path_fails_early(tmp_path, capsys, argv):
    # a missing file, a directory where a file belongs or a missing output
    # directory exits 2 before any work, naming the path
    points = tmp_path / "pts.txt"
    points.write_text("0.0 0.0 rect\n3.0 0.0 rect\n0.0 4.0 circle\n")
    paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path), "points": str(points)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error" in err and str(tmp_path) in err


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


def test_scaling_config_precedence(tmp_path, capsys):
    # a flag beats the YAML value, which beats the HarnessConfig default
    out_csv, out_json = tmp_path / "runs.csv", tmp_path / "fit.json"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "n_grid: [10000, 20000, 40000, 80000]\n"
        "seeds_per_n: 4\n"
        "epsilon: 0.002\n"
        "base_seed: 7\n"
        "memory_budget_bytes: 1024\n"
        f"out_csv: {out_csv}\n"
        f"out_json: {out_json}\n"
    )
    # the YAML budget is below the 4 MiB floor, so it must be the one in force
    assert main(["scaling", "--config", str(cfg)]) == 2
    capsys.readouterr()

    def run(seeds):
        rc = main(["scaling", "--config", str(cfg), "--seeds", seeds,
                   "--memory-budget", str(64 << 20)])
        printed = json.loads(capsys.readouterr().out.strip())
        assert rc == 0
        assert json.loads(out_json.read_text()) == printed
        return printed

    # the hash is the merged config's: the --seeds flag changes it
    other = run("4")["config_hash"]
    printed = run("3")
    assert printed["config_hash"] != other
    assert printed["n_grid"] == [10000, 20000, 40000, 80000]
    assert printed["seeds_per_n"] == 3
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 12
    assert {float(r[1]) for r in rows} == {0.002}
    assert {int(r[2]) for r in rows} == {7, 8, 9}


@pytest.mark.parametrize("line", [
    "memory_budget_bytes: 1G",
    "n_grid: 10000",
    "n_grid: [10000, 2.5e4]",
    "seeds_per_n: 3.5",
    "base_seed: true",
    "epsilon: 1e-3",           # YAML 1.1 reads this as a string
    "out_csv: [a, b]",
])
def test_scaling_config_wrong_type_is_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(line + "\n")
    assert main(["scaling", "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_import_leaves_scipy_out():
    # scipy is a test dependency only; the library and CLI must not load it,
    # nor pyyaml until a config file is read
    import distgaps

    src = os.path.dirname(os.path.dirname(distgaps.__file__))
    code = ("import sys, distgaps.cli, distgaps.harness; "
            "print('scipy' in sys.modules, 'yaml' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False False"
