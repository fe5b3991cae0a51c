"""The scripts run end to end against the package in `src/`."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sawsps.scenarios import list_scenarios

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name,args,header", [
    pytest.param("sweep_overflow_rule.py", (),
                 ["g", "rule", "intensity_1X", "onset_1X", "intensity_2X",
                  "onset_2X", "intensity_3X", "onset_3X"],
                 id="overflow_rule"),
    pytest.param("sweep_capture_probability.py", ("--pulses", "200"),
                 ["capture_prob", "photons_spot", "photons_7um",
                  "photons_14um", "far_over_near"],
                 id="capture_probability"),
])
def test_script_writes_csv(tmp_path, name, args, header):
    out = tmp_path / "sweep.csv"
    proc = run_script(name, *args, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1


def test_run_all_scenarios_writes_every_manifest(tmp_path):
    proc = run_script("run_all_scenarios.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name, _ in list_scenarios():
        assert (tmp_path / name / "manifest.json").is_file(), name
