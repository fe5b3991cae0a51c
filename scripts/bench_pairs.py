#!/usr/bin/env python3
"""Paired benchmark runs of this working tree against an earlier commit.

    python3 scripts/bench_pairs.py --against REV --pairs N --out BENCH.json \\
        [--workload W ...] [--seed S]

Each pair runs the unchanged `perfbench/run.py --workload W --trace 0` once
on each side, one after the other.  Both sides run from a `git archive`
snapshot unpacked under `.bench_out/`, in sibling directories whose paths
have one length, because the directory alone moves `peak_rss_mb` by about
1 %.  The earlier side is REV.  The change is `git stash create` of this
working tree, or HEAD when the tree is clean; that snapshot holds the
tracked files, staged new files included, but no untracked file.  The
summary records each side's commit, tree and directory.  The side that
goes first alternates from pair to pair, so a drift in the host's speed
falls on both sides alike.  run.py rewrites its `results-*.json` at every
call, so each is copied under `.bench_out/pairs/` as soon as its run ends.

The output file holds, per workload and for each end-to-end metric of
BENCHMARK.json plus the raw `run_s`: both sides' runs, median and
quartiles, the number of pairs the change won, the median change in
percent and the gap between the medians over the earlier side's
interquartile range.  Before the pairs, each side's Tier-1 suite runs once
(its own `src/` first on PYTHONPATH); its wall time, closing summary and
five slowest tests go into that side's `env`.  Without --workload every
workload of BENCHMARK.json runs.  Needs git and no network.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SIDES = ("parent", "change")
# run.py's raw wall time, reported next to the gated run_cal
RAW = {"name": "run_s", "unit": "s", "better": "lower"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def snapshot() -> str:
    """The commit the change runs from: `git stash create` of the working
    tree (it leaves the tree and the stash list as they are), or HEAD when
    the tree is clean."""
    return git("stash", "create") or git("rev-parse", "HEAD")


def checkout(tree: str, side: str) -> Path:
    """TREE's files under .bench_out/<side>-<tree>/, unpacked once per tree;
    every side's name has six letters, so every such path has one length."""
    path = OUT / f"{side}-{tree[:12]}"
    if not (path / "perfbench" / "run.py").is_file():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", tree], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(path, filter="data")
        if archive.wait():
            raise SystemExit(f"git archive {tree} failed")
    return path


def run_once(root: Path, workload: str, seed: int, keep: Path) -> dict:
    """One `perfbench/run.py` call in `root`; its results file is copied to
    `keep` and its one result returned."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           workload, "--trace", "0", "--seed", str(seed)],
                          cwd=root, capture_output=True, text=True)
    results = root / ".bench_out" / f"results-{workload}-seed{seed}-trace0.json"
    if proc.returncode or not results.is_file():
        raise SystemExit(f"perfbench/run.py failed in {root} "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    keep.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(results, keep)
    saved = json.loads(keep.read_text(encoding="utf-8"))
    return {"env": saved["env"], **saved["results"][0]}


def parse_pytest(output: str) -> dict:
    """pytest's closing summary line with its counts by outcome, and the
    tests of its "slowest durations" section as (seconds, phase, test)."""
    lines = output.splitlines()
    summary = next((line.strip("= ") for line in reversed(lines)
                    if re.search(r" in [\d.]+s\b", line)), "")
    head = next((k for k, line in enumerate(lines)
                 if re.search(r"slowest \d* ?durations", line)), len(lines))
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in (re.match(r"([\d.]+)s (\w+) +(\S.*)$", line)
                         for line in lines[head + 1:]) if m]
    return {"summary": summary, "slowest": slowest,
            "counts": {word: int(n) for n, word in
                       re.findall(r"(\d+) ([a-z]+)", summary.split(" in ")[0])}}


def tier1(root: Path) -> dict:
    """The Tier-1 suite in `root`, run once: its wall time, exit code and
    `parse_pytest` of its output with the five slowest tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors", "--durations=5"],
                          cwd=root, env=env, capture_output=True, text=True)
    return {"wall_s": round(time.perf_counter() - start, 3),
            "exit": proc.returncode, **parse_pytest(proc.stdout)}


def _spread(runs: list) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarise(pairs: list, metrics: list) -> dict:
    """One workload's summary from its pairs, each {"parent": result,
    "change": result} with a result as run.py writes it; `metrics` are
    BENCHMARK.json's end-to-end entries (name, unit, better)."""
    out = {"pairs": len(pairs),
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
           "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
           "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
           "metrics": {}}
    for metric in [*metrics, RAW]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1

        def value(result):
            return (result["info"][name] if metric is RAW
                    else result["metrics"][name]["value"])

        runs = {s: [value(p[s]) for p in pairs] for s in SIDES}
        parent, change = (_spread(runs[s]) for s in SIDES)
        iqr = parent["q3"] - parent["q1"]
        gap = parent["median"] - change["median"]
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change,
            "change_better_in": sum(sign * (p - c) > 0 for p, c in
                                    zip(runs["parent"], runs["change"])),
            "median_change_pct": (-100.0 * gap / parent["median"]
                                  if parent["median"] else None),
            "median_gap_over_parent_iqr": abs(gap) / iqr if iqr else None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True,
                        help="the earlier commit, any git revision")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="summary JSON file to write")
    parser.add_argument("--workload", action="append",
                        help="workload to run, repeatable (default: all)")
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    chosen = args.workload or known
    for name in set(chosen) - set(known):
        parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")

    rev = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    revs = {"parent": rev, "change": snapshot()}
    trees = {side: git("rev-parse", f"{revs[side]}^{{tree}}") for side in SIDES}
    roots = {side: checkout(trees[side], side) for side in SIDES}
    label = f"{rev[:12]}-seed{args.seed}"
    summary = {"against": rev, "change": "snapshot of the working tree at "
               + git("describe", "--always", "--dirty"),
               "sides": {side: {"commit": revs[side], "tree": trees[side],
                                "dir": str(roots[side].relative_to(ROOT))}
                         for side in SIDES},
               "protocol": {"command": "python3 perfbench/run.py --workload W "
                                       f"--trace 0 --seed {args.seed}",
                            "run_seconds": bench["run_seconds"],
                            "pairs": args.pairs,
                            "order": "parent first in even pairs (0, 2, ...), "
                                     "change first in odd ones"},
               "workloads": {}, "env": {}}
    suites = {side: tier1(roots[side]) for side in SIDES}
    for side, suite in suites.items():
        print(f"{side} Tier-1: {suite['summary']} ({suite['wall_s']} s wall)",
              flush=True)
    for workload in chosen:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                keep = OUT / "pairs" / label / f"{workload}-{i:02d}-{side}.json"
                pair[side] = run_once(roots[side], workload, args.seed, keep)
                print(f"{workload} pair {i} {side}: "
                      + ", ".join(f"{k} {m['value']:.6g}" for k, m in
                                  pair[side]["metrics"].items()), flush=True)
            pairs.append(pair)
        summary["workloads"][workload] = summarise(pairs, bench["end_to_end"])
        summary["env"] = {s: {**pairs[-1][s]["env"], "tier1": suites[s]}
                          for s in SIDES}
        args.out.write_text(json.dumps(summary, indent=1) + "\n",
                            encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
