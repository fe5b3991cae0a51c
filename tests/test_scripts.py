"""The scripts run end to end against the package in `src/`."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sawsps.scenarios import list_scenarios

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


# In one fresh interpreter: the scipy modules (any named scipy*) loaded
# after each step of a start-up that runs nothing, then after small runs of
# three presets.  The steps share the process, so each sees what the earlier
# ones loaded.
STARTUP_PROBE = """
import json, sys
from pathlib import Path

def scipy_loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

out = Path(sys.argv[1])
import sawsps
from sawsps import cli
from sawsps.scenarios import ScenarioConfig, list_scenarios, run_scenario
for name, _ in list_scenarios():
    ScenarioConfig.preset(name)
assert cli.main(["list"]) == 0
bad = out / "bad.json"
bad.write_text(json.dumps({"scenario": "fig7_remote", "params": {"nope": 1}}))
assert cli.main(["run", "--config", str(bad), "--out", str(out / "bad")]) == 2
seen = {"start": scipy_loaded()}
for name, over in (("fig7_remote", {"num_pulses": 50}),
                   ("g2_antibunching", {"num_cycles": 5000}),
                   ("fig5_ensemble", {"num_pulses": 10})):
    run_scenario(ScenarioConfig.preset(name, over), out / name)
    seen[name] = scipy_loaded()
print(json.dumps(seen))
"""


def test_start_up_loads_scipy_only_where_called(tmp_path):
    # scipy is imported only inside poisson_tail and fit_rise_fall, so
    # listing, config errors, fig7, g2 and fig5 load no scipy module
    proc = run_python("-c", STARTUP_PROBE, str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "start": [], "fig7_remote": [], "g2_antibunching": [],
        "fig5_ensemble": []}


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
