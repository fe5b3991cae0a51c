"""Fresh-interpreter probe, started by run.py.

    python3 perfbench/fresh.py WORKLOAD SEED [OUT_DIR]

Imports `sawsps` from the checkout's `src/`, validates the workload's
configs and prints `ready` as soon as a run could start; run.py times the
interval from process start to that line (set-up time).  With OUT_DIR it
then runs the workload once at threads=1 and prints one JSON line with the
process's peak resident memory and the output hashes.
"""

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sawsps.scenarios import ScenarioConfig, run_scenario  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    workload = WORKLOADS[argv[0]]
    seed = int(argv[1])
    configs = workload.configs(ScenarioConfig, seed)
    print("ready", flush=True)
    if len(argv) < 3:
        return 0
    out = Path(argv[2])
    manifests = {cfg.name: run_scenario(cfg, out / cfg.name, threads=1)
                 for cfg in configs}
    print(json.dumps({"peak_rss_mb": peak_rss_kb() / 1024.0, "manifests": manifests}),
          flush=True)
    return 0


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  VmHWM starts afresh at exec;
    ru_maxrss, the fallback, also counts the parent's size at fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
