import importlib.util
import re
from pathlib import Path

import numpy as np

from distgaps.canonical import default_k_max, empty_canonical_survey, survey_to_csv
from distgaps.construction import assemble
from distgaps.poisson import Seed
from distgaps.spectrum import all_pair_distances

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_script_on_a_spilled_spectrum(tmp_path, capsys):
    # 0.004 GiB holds fewer than the m = 681,528 distances of n = 1e5, seed 1,
    # so the spectrum is file-backed
    out = tmp_path / "survey.csv"
    script = load_script("survey_empty_intervals")
    assert script.main(["--n", "100000", "--budget-gib", "0.004", "--out", str(out)]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    points = int(re.search(r"points=(\d+)", head).group(1))
    m = int(re.search(r" m=(\d+)", head).group(1))
    assert m == points * (points - 1) // 2
    assert 8 * m > 0.75 * 0.004 * (1 << 30)      # more than the budget's cap: spilled

    con = assemble(100_000, 1e-3, Seed(1))
    spec = all_pair_distances(con.points, memory_budget_bytes=2 << 30)
    assert not isinstance(spec.values, np.memmap)
    want = tmp_path / "in_memory.csv"
    survey_to_csv(empty_canonical_survey(spec, 100_000, default_k_max(100_000)), str(want))
    assert out.read_text() == want.read_text()
