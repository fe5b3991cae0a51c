"""The scripts run end to end against the package in `src/`."""

import csv
import importlib.util
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


def test_fig5_scale_prints_one_json_line():
    # the preset's default 200 pulses meet criterion 8 as the full run does
    proc = run_script("fig5_scale.py", "--pulses", "200")
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    report = json.loads(line)
    assert report["pulses"] == 200 and report["photons"] > 0
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0
    assert report["upstream_fraction"] >= 0.6
    assert 0.12 <= report["illuminated_fraction"] <= 0.50
    assert run_script("fig5_scale.py", "--pulses", "0").returncode == 2


def test_run_all_scenarios_writes_every_manifest(tmp_path):
    proc = run_script("run_all_scenarios.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name, _ in list_scenarios():
        assert (tmp_path / name / "manifest.json").is_file(), name


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    # canned results in the shape perfbench/run.py writes them: the change
    # lowers peak_rss_mb in 2 of 3 pairs and raises pulses_per_cal in all
    def result(rss, pps, run_s, failed=0):
        return {"failed": failed, "attempted": 10, "correct": failed == 0,
                "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                            "pulses_per_cal": {"value": pps, "unit": "1/cal"}},
                "info": {"run_s": run_s}}

    pairs = [{"parent": result(47.0, 100.0, 0.10),
              "change": result(43.0, 110.0, 0.10)},
             {"parent": result(47.2, 100.0, 0.12),
              "change": result(47.2, 101.0, 0.09)},
             {"parent": result(47.1, 102.0, 0.11),
              "change": result(43.2, 105.0, 0.10, failed=1)}]
    metrics = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
               {"name": "pulses_per_cal", "unit": "1/cal", "better": "higher"}]
    summary = _bench_pairs().summarise(pairs, metrics)
    assert summary["pairs"] == 3 and summary["correct"] is False
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 30, "change": 30}
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"median": 47.1, "q1": pytest.approx(47.05),
                             "q3": pytest.approx(47.15),
                             "runs": [47.0, 47.2, 47.1]}
    assert rss["change"]["median"] == 43.2 and rss["change"]["runs"][1] == 47.2
    # a tie wins for neither side
    assert rss["change_better_in"] == 2
    assert rss["median_change_pct"] == pytest.approx(-100 * 3.9 / 47.1)
    assert rss["median_gap_over_parent_iqr"] == pytest.approx(3.9 / 0.1)
    pps = summary["metrics"]["pulses_per_cal"]
    assert pps["better"] == "higher" and pps["change_better_in"] == 3
    assert pps["median_change_pct"] == pytest.approx(5.0)
    # run_s is read from the raw wall time next to the metrics
    assert summary["metrics"]["run_s"]["change_better_in"] == 2
    assert summary["metrics"]["run_s"]["parent"]["median"] == 0.11
    # one pair gives its one value as median and quartiles; an IQR of 0 has
    # no gap ratio
    one = _bench_pairs().summarise(pairs[:1], metrics)["metrics"]["peak_rss_mb"]
    assert one["parent"] == {"median": 47.0, "q1": 47.0, "q3": 47.0,
                             "runs": [47.0]}
    assert one["median_gap_over_parent_iqr"] is None


def test_bench_pairs_runs_both_sides_from_snapshots(tmp_path, monkeypatch):
    # in a scratch repository: the change side is a snapshot of the tracked
    # files, a staged new file included, or HEAD once the tree is clean; the
    # working tree is left as it was, and both sides unpack to paths of one
    # length
    bench = _bench_pairs()
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "OUT", tmp_path / ".bench_out")
    for who in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{who}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{who}_EMAIL", "bench@example.invalid")
    run_py = tmp_path / "perfbench" / "run.py"
    run_py.parent.mkdir()
    run_py.write_text("old\n")
    bench.git("init", "-q")
    bench.git("add", "-A")
    bench.git("commit", "-q", "-m", "parent")
    parent = bench.git("rev-parse", "HEAD")
    assert bench.snapshot() == parent
    run_py.write_text("new\n")
    (tmp_path / "staged.txt").write_text("staged\n")
    bench.git("add", "staged.txt")
    (tmp_path / "untracked.txt").write_text("untracked\n")
    status = bench.git("status", "--porcelain")
    change = bench.snapshot()
    assert change != parent and bench.git("status", "--porcelain") == status
    assert bench.git("stash", "list") == ""
    roots = {side: bench.checkout(bench.git("rev-parse", f"{rev}^{{tree}}"),
                                  side)
             for side, rev in (("parent", parent), ("change", change))}
    assert roots["parent"].parent == roots["change"].parent == bench.OUT
    assert len(str(roots["parent"])) == len(str(roots["change"]))
    assert (roots["parent"] / "perfbench" / "run.py").read_text() == "old\n"
    assert (roots["change"] / "perfbench" / "run.py").read_text() == "new\n"
    assert (roots["change"] / "staged.txt").is_file()
    assert not (roots["change"] / "untracked.txt").exists()
    assert run_py.read_text() == "new\n"


# the tail of a Tier-1 run as pytest prints it with -q and --durations=5
PYTEST_TAIL = """\
........................................................................ [ 98%]
.....F..                                                                 [100%]
=================================== FAILURES ===================================
___________________________ test_slow_but_wrong ________________________________
E       assert 0.5 == 1.5s call
============================= slowest 5 durations ==============================
2.41s call     tests/test_scripts.py::test_run_all_scenarios_writes_every_manifest
1.30s call     tests/test_detector.py::TestPlImage::test_matches_per_position_oracle_bitwise
0.92s setup    tests/test_acceptance.py::test_criterion_8[fig5 ensemble]
0.50s call     tests/test_transport.py::test_draw_block_never_shows
0.01s teardown tests/test_cli.py::test_run
=========================== short test summary info ============================
FAILED tests/test_x.py::test_slow_but_wrong - assert 0.5 == 1.5s call
1 failed, 425 passed, 2 warnings in 21.37s
"""


def test_bench_pairs_parses_tier1_output():
    parsed = _bench_pairs().parse_pytest(PYTEST_TAIL)
    assert parsed["summary"] == "1 failed, 425 passed, 2 warnings in 21.37s"
    assert parsed["counts"] == {"failed": 1, "passed": 425, "warnings": 2}
    # only the durations section's lines, in pytest's order
    assert [t["seconds"] for t in parsed["slowest"]] == [2.41, 1.30, 0.92,
                                                         0.50, 0.01]
    assert parsed["slowest"][2] == {
        "seconds": 0.92, "phase": "setup",
        "test": "tests/test_acceptance.py::test_criterion_8[fig5 ensemble]"}
    assert parsed["slowest"][4]["phase"] == "teardown"
    # a framed summary, hidden durations, and output with no summary at all
    quiet = _bench_pairs().parse_pytest(
        "=== slowest 5 durations ===\n\n(5 durations < 0.005s hidden.  "
        "Use -vv to show these durations.)\n"
        "============ 39 passed in 0.91s (0:00:00) ============\n")
    assert quiet == {"summary": "39 passed in 0.91s (0:00:00)", "slowest": [],
                     "counts": {"passed": 39}}
    assert _bench_pairs().parse_pytest("") == {"summary": "", "slowest": [],
                                               "counts": {}}
