#!/usr/bin/env python3
"""Sensitivity sweep of the per-pass capture probability.

The capture probability is a free parameter of the transport model, so this
sweeps it over a decade on the remote-pumping geometry and reports how the
per-site photon yield and the nearest/farthest site ratio respond.
"""

import argparse
import csv
import sys

import numpy as np

from sawsps.cascade import CascadeModel
from sawsps.transport import ChannelLayout, LaserSpot, QdSite, SawWave, run_device


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="capture_prob_sweep.csv")
    parser.add_argument("--pulses", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()

    model = CascadeModel((1.5, 1.4, 0.9))
    saw = SawWave(193.0, 15.0, direction=-1)

    rows = []
    for prob in (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0):
        sites = tuple(QdSite(i, x, 0.5, prob, model)
                      for i, x in enumerate((0.0, -7.0, -14.0)))
        layout = ChannelLayout((-20.0, 6.0), LaserSpot(0.0, 1.0, 1.0), sites)
        result = run_device(layout, saw, saw.period_ns, args.pulses, args.seed)
        counts = np.bincount(result.photons["emitter_id"],
                             minlength=len(sites)).tolist()
        ratio = counts[2] / counts[1] if counts[1] else float("nan")
        rows.append([prob, counts[0], counts[1], counts[2], ratio])
        print(f"p = {prob:4.2f}: spot {counts[0]:6d}  7um {counts[1]:6d}  "
              f"14um {counts[2]:6d}  far/near {ratio:5.3f}")

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["capture_prob", "photons_spot", "photons_7um",
                         "photons_14um", "far_over_near"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
