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


# In one fresh interpreter with scipy blocked (an import of it raises
# ImportError): the scipy modules (any named scipy*) loaded after each step
# of a start-up that runs nothing, then after every preset at its golden
# config, whose output hashes must match the golden ones, then after
# criterion 3's rise/fall fit of a noisy IRF-blurred trace.  The steps share
# the process, so each sees what the earlier ones loaded.
STARTUP_PROBE = """
import hashlib, json, sys
from pathlib import Path
sys.modules["scipy"] = None

def scipy_loaded():
    return sorted(m for m, module in sys.modules.items()
                  if m.startswith("scipy") and module is not None)

out, golden_dir = Path(sys.argv[1]), Path(sys.argv[2])
import numpy as np
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
for name, _ in list_scenarios():
    golden = json.loads((golden_dir / f"{name}.json").read_text())
    run_scenario(ScenarioConfig.from_dict(golden["config"]), out / name)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted((out / name).iterdir())}
    assert hashes == golden["sha256"], name
    seen[name] = scipy_loaded()

from sawsps.analysis import fit_rise_fall
from sawsps.cascade import CascadeModel, Transient, solve_cascade_analytic
from sawsps.detector import Irf, convolve_irf
from sawsps.rng import substream
sol = solve_cascade_analytic(CascadeModel((1.5, 1.4, 0.9)), 3)
t = np.arange(0.0, 12.0, 0.02)
blurred = convolve_irf(Transient(t, sol.emission_rate(2, t)), Irf(0.35))
scale = 4000.0 / blurred.intensity.max()
noisy = substream(333, 0).poisson(blurred.intensity * scale).astype(float)
fit = fit_rise_fall(Transient(blurred.time_ns, noisy))
assert abs(fit.t_rise_ns - 0.9) <= 0.35
seen["fit_rise_fall"] = scipy_loaded()
print(json.dumps(seen))
"""


def test_start_up_loads_scipy_only_where_called(tmp_path):
    # sawsps imports no scipy: every preset and fit_rise_fall run with it
    # blocked, reproduce the goldens, and load no scipy module
    proc = run_python("-c", STARTUP_PROBE, str(tmp_path),
                      str(ROOT / "tests" / "golden"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    steps = ["start", *(name for name, _ in list_scenarios()), "fit_rise_fall"]
    assert json.loads(proc.stdout.splitlines()[-1]) == dict.fromkeys(steps, [])


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
