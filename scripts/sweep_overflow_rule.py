#!/usr/bin/env python3
"""Sensitivity of observables to the top-level overflow rule.

Pulses generating more excitons than the chain has levels either load the top
level ("fold", the default) or are discarded above the bare pmf ("drop").
This compares time-integrated intensities and onset delays under both rules
across pump strengths.
"""

import argparse
import csv
import sys

import numpy as np

from sawsps.analysis import expected_emission_trace
from sawsps.cascade import CascadeModel, onset_time


def observables(model, g, overflow):
    t = np.arange(0.0, 8.0 * sum(model.lifetimes_ns),
                  min(model.lifetimes_ns) / 50.0)
    out = []
    for level in range(1, model.num_levels + 1):
        trace = expected_emission_trace(model, g, level, t, overflow=overflow)
        intensity = trace.integral()
        onset = onset_time(trace, 0.1) if intensity > 0 else float("nan")
        out.extend([intensity, onset])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="overflow_rule_sweep.csv")
    args = parser.parse_args()

    model = CascadeModel((1.5, 1.4, 0.9))
    header = ["g", "rule"]
    for label in model.labels:
        header.extend([f"intensity_{label}", f"onset_{label}"])

    rows = []
    for g in (0.1, 0.3, 1.0, 1.9, 3.0, 10.0):
        for rule in ("fold", "drop"):
            rows.append([g, rule, *observables(model, g, rule)])
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    for row in rows:
        print(f"g = {row[0]:5.2f} {row[1]:4s}  " +
              "  ".join(f"{v:8.4f}" for v in row[2:]))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
