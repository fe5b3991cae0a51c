"""Golden manifests: byte-for-byte regression anchors across changes.

Each `tests/golden/<preset>.json` holds one small config of a preset and the
SHA-256 of every file a run of it writes.  A change that alters any output
byte fails here; a change that alters the random stream on purpose
regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change notes.  The hashes were recorded with numpy 2.4;
numpy does not promise the same random streams across versions, so a numpy
upgrade can also require regenerating them.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from sawsps.scenarios import ScenarioConfig, list_scenarios, run_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"

# One small config per preset: every output kind, a few seconds in total.
CONFIGS = {
    "fig3_power_series": {"mc_pulses_per_point": 20000},
    "fig4_transients": {"g_values": [0.2, 1.9], "horizon_ns": 6.0},
    "fig4c_delays": {},
    "fig5_ensemble": {"num_pulses": 20, "write_photons": True},
    "fig7_remote": {"num_pulses": 300},
    "g2_antibunching": {"num_cycles": 20000},
}


def output_hashes(config: dict, out: Path) -> dict:
    run_scenario(ScenarioConfig.from_dict(config), out)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_every_preset_has_a_golden():
    assert sorted(CONFIGS) == sorted(name for name, _ in list_scenarios())
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden(name, tmp_path):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert golden["config"] == {"scenario": name, "params": CONFIGS[name]}
    assert output_hashes(golden["config"], tmp_path / "out") == golden["sha256"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, params in CONFIGS.items():
        config = {"scenario": name, "params": params}
        with tempfile.TemporaryDirectory() as tmp:
            hashes = output_hashes(config, Path(tmp) / "out")
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps({"config": config, "sha256": hashes},
                                   indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
