#!/usr/bin/env python3
"""fig5 at scale: one run of the ensemble preset at many pulses.

    python scripts/fig5_scale.py [--pulses N] [--seed S]

Runs `fig5_ensemble` at N pulses (default 10**4) into a temporary
directory and prints one JSON line: the run's wall seconds, the process's
peak resident set in MB (VmHWM from /proc/self/status, else ru_maxrss),
the photon count and the upstream and illuminated fractions of
`depletion_stats.csv`.  Exits 1 if those fractions miss criterion 8's
bounds (upstream >= 0.6, illuminated in [0.12, 0.50]), 2 on a bad
argument, else 0.  Run it in a fresh process: the peak counts everything
the process did before.
"""

import argparse
import csv
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from sawsps.scenarios import (DEFAULT_SEED, ConfigError, ScenarioConfig,
                              run_scenario)


def peak_rss_mb() -> float:
    """VmHWM of this process in MB, or ru_maxrss where /proc has none."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pulses", type=int, default=10 ** 4)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    try:
        config = ScenarioConfig.preset("fig5_ensemble",
                                       {"num_pulses": args.pulses}, args.seed)
    except ConfigError as err:
        parser.error(str(err))
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        run_scenario(config, Path(tmp) / "fig5")
        wall = time.perf_counter() - start
        with open(Path(tmp) / "fig5" / "depletion_stats.csv",
                  encoding="utf-8", newline="") as fh:
            stats = next(csv.DictReader(fh))
    upstream = float(stats["upstream_fraction"])
    illuminated = float(stats["illuminated_fraction"])
    print(json.dumps({"pulses": args.pulses, "seed": args.seed,
                      "wall_s": round(wall, 3),
                      "peak_rss_mb": round(peak_rss_mb(), 1),
                      "photons": int(stats["total_photons"]),
                      "upstream_fraction": upstream,
                      "illuminated_fraction": illuminated}))
    return 0 if upstream >= 0.6 and 0.12 <= illuminated <= 0.50 else 1


if __name__ == "__main__":
    sys.exit(main())
