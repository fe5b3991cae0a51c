"""sawsps benchmark: end-to-end and per-layer figures of the preset pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py                        # all workloads, both passes
    python3 perfbench/run.py --workload device_field --seed 7 --trace 0
    python3 perfbench/run.py --compare OLD.json     # also print changes vs OLD
    python3 perfbench/run.py --write-reference      # re-record reference.json

Each workload runs its presets through `ScenarioConfig.from_dict` and
`run_scenario`, imported from the checkout's `src/`, and checks every run's
outputs (manifest hashes, the acceptance criteria of workloads.py, equal
hashes across repeats and thread counts).

`--trace 0` measures, with no tracing installed, and reports as metrics:
  run_cal         median of (wall time of one workload run at threads=1 /
                  calibration time around it), in calibrations ("cal")
  pulses_per_cal  median simulated pulses per calibration time at threads=2
  peak_rss_mb     peak resident memory of a fresh process doing one run
  setup_s         median time for a fresh interpreter to import sawsps and
                  validate the workload's configs, divided by the start-up
                  time of a bare interpreter importing what sawsps imports
                  from outside itself (numpy, scipy), timed right after it;
                  times NOMINAL_BARE_START_S, so in seconds at the speed of
                  the host the benchmark was tuned on
and prints the raw wall-clock figures next to them: run_s (median of one
run's wall seconds at threads=1, with the sample count), pulses_per_s and
the raw set-up seconds.  run_s has no tail percentile: that needs at least
eleven runs at threads=1 and a measuring window holds about six.

The calibration is a fixed computation that does not use sawsps
(`calibration_s`), timed before and after every run.  On a shared host the
speed of the whole machine drifts by up to 2x over tens of seconds; the
ratio cancels that drift, the raw wall time does not, so only the ratios
are gated.  A program that gets slower moves the ratio as much as the wall
time.

Runs at threads=1 and threads=2 alternate for `--seconds` (by default
BENCHMARK.json's run_seconds) after one warm-up run; then FRESH_PROBES fresh
interpreters are timed, each followed by a bare one, and the last also runs
the workload for peak_rss_mb.

`--trace 1` alternates untraced and traced runs at threads=1 and reports the
per-layer metrics of spans.py (medians over the traced runs) and the tracing
overhead, trace.overhead_s = traced run_s - untraced run_s.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A run is failed if it raises, fails a check or its outputs differ
from the first run's; failed_ratio = failed / attempted.  Results, with the
environment and code size, are also written under .bench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import workloads
from spans import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
    "run_seconds"]
FRESH_PROBES = 4
# What sawsps imports from outside itself; the bare interpreter's start-up
# time tracks the host's speed at import-heavy work.
BARE_START = ("import concurrent.futures, csv, dataclasses, hashlib, json, numpy, "
              "scipy.optimize, scipy.special; print('ready', flush=True)")
# Median bare start-up on a 2-vCPU x86-64 host with Python 3.11.7, numpy
# 2.4.6 and scipy 1.17.1.
NOMINAL_BARE_START_S = 0.8
HELD_OUT_SEED = 2027  # never used to record reference.json
PPS_THREADS = 2

END_TO_END = (("run_cal", "cal"), ("pulses_per_cal", "1/cal"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

_CALIBRATION_DATA = numpy.random.default_rng(0).random(20_000)


def load_package():
    """Import sawsps from this checkout's src/, or exit 2 if it is absent."""
    init = SRC / "sawsps" / "__init__.py"
    if not init.is_file():
        print(f"error: no sawsps package at {init.relative_to(ROOT)}; run from "
              f"a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sawsps
    if Path(sawsps.__file__).resolve() != init.resolve():
        print(f"error: imported sawsps from {sawsps.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)
    return sawsps


def outputs_of(manifests: dict) -> dict:
    return {name: {"config_sha256": m["config_sha256"],
                   "files": {f["name"]: f["sha256"] for f in m["files"]}}
            for name, m in manifests.items()}


class Session:
    """Runs of one workload at one seed, with their checks and tallies."""

    def __init__(self, sawsps, workload, seed: int):
        # sawsps.scenarios names are looked up per call, so that a tracer's
        # wrappers are seen while they are installed
        self.sawsps = sawsps
        self.scenarios = sawsps.scenarios
        self.workload = workload
        self.seed = seed
        self.configs = self.validate()
        self.params = {c.name: c.params for c in self.configs}
        self.pulses = workload.pulses(self.params)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs = None  # hashes of the first good run
        self._dirs = 0

    def validate(self) -> list:
        return self.workload.configs(self.scenarios.ScenarioConfig, self.seed)

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        path = OUT / f"run-{os.getpid()}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)
        print(f"run failed: {problem}", file=sys.stderr)

    def accept(self, out: Path, manifests: dict, label: str) -> bool:
        """Check one run's outputs; count it failed if any check fails."""
        problems = []
        for name, manifest in manifests.items():
            problems += workloads.verify_manifest(out / name, manifest)
        if not problems:
            problems += self.workload.check({name: out / name for name in manifests},
                                            self.params)
        outputs = outputs_of(manifests)
        if not problems:
            if self.outputs is None:
                self.outputs = outputs
            elif outputs != self.outputs:
                problems.append("outputs differ from the first run of this seed")
        if problems:
            self._fail(f"{self.workload.name} {label}: " + "; ".join(problems))
            return False
        return True

    def _timed(self, configs, out: Path, threads: int):
        start = time.perf_counter()
        manifests = {cfg.name: self.scenarios.run_scenario(cfg, out / cfg.name,
                                                           threads=threads)
                     for cfg in configs}
        return time.perf_counter() - start, manifests

    def run(self, threads: int, tracer=None):
        """One workload run; returns its wall seconds, or None if it failed."""
        self.attempted += 1
        out = self._fresh_dir()
        label = f"threads={threads}" + (" traced" if tracer else "")
        try:
            if tracer is None:
                wall, manifests = self._timed(self.configs, out, threads)
            else:
                known = len(tracer.problems)
                with tracer.installed(self.sawsps), tracer.run("bench.run"):
                    wall, manifests = self._timed(self.validate(), out, threads)
                if len(tracer.problems) > known:
                    self._fail(f"{self.workload.name} {label}: "
                               + "; ".join(tracer.problems[known:]))
                    return None
            return wall if self.accept(out, manifests, label) else None
        except Exception:  # noqa: BLE001 - a raising run is a failed run
            self._fail(f"{self.workload.name} {label} raised:\n{traceback.format_exc()}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def fresh_probe(self, with_run: bool):
        """Start a fresh interpreter; returns (set-up seconds, peak RSS MB),
        with None for what it did not measure or what failed."""
        self.attempted += 1
        out = self._fresh_dir()
        args = [sys.executable, str(HERE / "fresh.py"), self.workload.name,
                str(self.seed)] + ([str(out)] if with_run else [])
        try:
            start = time.perf_counter()
            with subprocess.Popen(args, cwd=ROOT, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, text=True) as proc:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - start
                try:
                    rest, _ = proc.communicate(timeout=150)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    self._fail(f"{self.workload.name} fresh process timed out")
                    return None, None
            if ready.strip() != "ready" or proc.returncode != 0:
                self._fail(f"{self.workload.name} fresh process exited "
                           f"{proc.returncode} before or after set-up")
                return None, None
            if not with_run:
                return setup, None
            report = json.loads(rest.strip().splitlines()[-1])
            if not self.accept(out, report["manifests"], "fresh process"):
                return setup, None
            return setup, report["peak_rss_mb"]
        finally:
            shutil.rmtree(out, ignore_errors=True)


def bare_start_s() -> float:
    """Seconds from starting a bare interpreter that runs BARE_START to its
    first line of output."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", BARE_START], cwd=ROOT,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"bare interpreter exited {proc.returncode}")
    return elapsed


def calibration_s() -> float:
    """Wall seconds of a fixed computation that does not use sawsps: an
    interpreter loop with dict stores, numpy sorts of a cache-sized array
    and many small numpy allocations, a mix like the workloads' own.  Timed
    next to every run, it tracks how fast the host runs at that moment."""
    start = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(150_000):
        total += i * 0.5
        table[i & 1023] = total
    for _ in range(50):
        total += float(numpy.sort(_CALIBRATION_DATA)[100])
    pieces = [numpy.arange(1, 6) for _ in range(40_000)]
    total += float(numpy.concatenate(pieces)[-1])
    return time.perf_counter() - start


def measure_end_to_end(session, seconds: float) -> tuple[dict, dict]:
    session.run(1)  # warm-up; also the hashes later runs must repeat
    walls = {1: [], PPS_THREADS: []}
    ratios = {1: [], PPS_THREADS: []}  # wall / calibration around the run
    deadline = time.perf_counter() + seconds
    before = calibration_s()
    while True:
        for threads in walls:
            wall = session.run(threads)
            after = calibration_s()
            if wall is not None:
                walls[threads].append(wall)
                ratios[threads].append(wall / (0.5 * (before + after)))
            before = after
        if time.perf_counter() >= deadline:
            break
    probes = []  # (set-up s, peak RSS MB, bare start-up s)
    for i in range(FRESH_PROBES):
        setup, rss = session.fresh_probe(with_run=i == FRESH_PROBES - 1)
        probes.append((setup, rss, bare_start_s()))
    setups = [(s, b) for s, _, b in probes if s is not None]
    rss = [r for _, r, _ in probes if r is not None]
    if not (walls[1] and walls[PPS_THREADS] and setups and rss):
        return {}, {}
    values = {
        "run_cal": statistics.median(ratios[1]),
        "pulses_per_cal": statistics.median(session.pulses / r
                                            for r in ratios[PPS_THREADS]),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": NOMINAL_BARE_START_S * statistics.median(s / b for s, b in setups),
    }
    info = {"run_s": statistics.median(walls[1]),
            "setup_s_raw": statistics.median(s for s, _ in setups),
            "pulses_per_s": statistics.median(session.pulses / w
                                              for w in walls[PPS_THREADS]),
            "wall_s_threads1": walls[1], "run_cal_samples": ratios[1],
            f"wall_s_threads{PPS_THREADS}": walls[PPS_THREADS],
            "setup_s_samples": [s for s, _ in setups],
            "bare_start_s_samples": [b for _, b in setups],
            "pulses_per_run": session.pulses}
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, info


def measure_per_layer(session, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    session.run(1)
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall = session.run(1)
        if wall is not None:
            plain.append(wall)
        wall = session.run(1, tracer)
        if wall is not None:
            traced.append(wall)
            layers.append(tracer.per_layer(tracer.run_id))
        if time.perf_counter() >= deadline:
            break
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{session.workload.name}-seed{session.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    if not (plain and layers):
        return {}, {}
    values = {name: statistics.median(m[name] for m in layers)
              for name, _ in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = {"traced_runs": len(traced), "untraced_runs": len(plain),
            "traced_run_s": statistics.median(traced),
            "untraced_run_s": statistics.median(plain),
            "spans_file": str(spans_path.relative_to(ROOT))}
    units = dict(PER_LAYER)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, info


def environment(sawsps) -> dict:
    modules = type(sys)
    public = [n for n, v in vars(sawsps).items()
              if not n.startswith("_") and not isinstance(v, modules)]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sawsps": sawsps.__version__,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines,
            "public_names": len(public)}


def reference_outputs(workload_name: str, seed: int):
    """Reference hashes of the workload, if recorded for this seed."""
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if ref.get("seed") != seed:
        return None
    return ref["workloads"].get(workload_name)


def measure(sawsps, workload, seed: int, seconds: float, trace: int) -> dict:
    session = Session(sawsps, workload, seed)
    measure_fn = measure_per_layer if trace else measure_end_to_end
    metrics, info = measure_fn(session, seconds)
    reference = reference_outputs(workload.name, seed)
    info["outputs_match_reference"] = (None if reference is None or session.outputs is None
                                       else session.outputs == reference)
    info["problems"] = session.problems
    return {"workload": workload.name, "seed": seed, "trace": trace,
            "correct": session.failed == 0 and bool(metrics),
            "attempted": session.attempted, "failed": session.failed,
            "metrics": metrics, "info": info}


def figures(result: dict) -> dict:
    """Every figure of one measurement, name -> (value, unit): the metrics,
    the raw wall-clock figures and failed_ratio."""
    out = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    info = result["info"]
    if "run_s" in info:
        out["run_s"] = (info["run_s"], "s")
        out["pulses_per_s"] = (info["pulses_per_s"], "1/s")
        out["setup_s_raw"] = (info["setup_s_raw"], "s")
    out["failed_ratio"] = (result["failed"] / result["attempted"], "ratio")
    return out


def print_result(result: dict) -> None:
    info = result["info"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{'traced' if result['trace'] else 'untraced'}")
    for name, (value, unit) in figures(result).items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    if "run_s" in info:
        print(f"  run_s is the median of {len(info['wall_s_threads1'])} runs at "
              f"threads=1, pulses_per_s of {len(info[f'wall_s_threads{PPS_THREADS}'])} "
              f"at threads={PPS_THREADS}")
    match = info["outputs_match_reference"]
    print(f"  {result['failed']} of {result['attempted']} runs failed; "
          f"outputs_match_reference: "
          f"{'n/a (no reference for this seed)' if match is None else match}")
    for problem in info["problems"]:
        print(f"  problem: {problem.splitlines()[-1]}")


def compare(old_path: Path, results: list[dict]) -> None:
    old = json.loads(old_path.read_text(encoding="utf-8"))
    before = {(r["workload"], r["trace"], name): value
              for r in old["results"] for name, (value, _) in figures(r).items()}
    print(f"== change against {old_path}")
    for r in results:
        for name, (now, unit) in figures(r).items():
            was = before.get((r["workload"], r["trace"], name))
            if was is None:
                continue
            change = f"{(now - was) / abs(was):+.1%}" if was else "n/a"
            print(f"  {r['workload']:14s} {name:44s} {was:>12.6g} -> "
                  f"{now:>12.6g} {unit:6s} {change}")


def write_results(name: str, env: dict, results: list[dict]) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"results-{name}.json"
    path.write_text(json.dumps({"env": env, "results": results}, indent=2) + "\n",
                    encoding="utf-8")
    return path


def write_reference(sawsps) -> int:
    record = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS.values():
        session = Session(sawsps, workload, workloads.DEFAULT_SEED)
        if session.run(1) is None:
            return 1
        record["workloads"][workload.name] = session.outputs
    REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def run_all(sawsps, seed: int, seconds: float):
    results = [measure(sawsps, w, seed, seconds, trace)
               for trace in (0, 1) for w in workloads.WORKLOADS.values()]
    for result in results:
        print_result(result)
    print(f"== output checks at held-out seed {HELD_OUT_SEED}")
    held_out = []
    for workload in workloads.WORKLOADS.values():
        session = Session(sawsps, workload, HELD_OUT_SEED)
        session.run(1)
        session.run(PPS_THREADS)
        held_out.append(session)
        print(f"  {workload.name:14s} failed_ratio "
              f"{session.failed / session.attempted:g} "
              f"({session.failed} of {session.attempted} runs)")
    print("== summary")
    columns = ("run_s", "pulses_per_s", "peak_rss_mb", "setup_s", "failed_ratio",
               "run_cal", "pulses_per_cal", "trace.overhead_s")
    untraced = {r["workload"]: figures(r) for r in results if not r["trace"]}
    traced = {r["workload"]: figures(r) for r in results if r["trace"]}
    units = {}
    for table in (*untraced.values(), *traced.values()):
        units.update({name: unit for name, (_, unit) in table.items()})
    labels = [f"{c} [{units.get(c, '')}]" for c in columns]
    print(f"  {'workload':14s}" + "".join(f" {label:>22s}" for label in labels))
    for name, row in untraced.items():
        row = {**traced.get(name, {}), **row}
        print(f"  {name:14s}" + "".join(f" {row[c][0]:>22.6g}" if c in row
                                        else f" {'-':>22s}" for c in columns))
    attempted = sum(r["attempted"] for r in results) + sum(s.attempted for s in held_out)
    failed = sum(r["failed"] for r in results) + sum(s.failed for s in held_out)
    return results, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for every workload with "
                             "both passes (default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time per workload and pass (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--compare", type=Path,
                        help="earlier results file to print changes against")
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference.json at the default seed")
    args = parser.parse_args(argv)

    sawsps = load_package()
    if args.write_reference:
        return write_reference(sawsps)
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    env = environment(sawsps)
    print("env " + json.dumps(env))

    if args.workload == "all":
        results, attempted, failed = run_all(sawsps, seed, args.seconds)
        metrics = {f"{r['workload']}.{name}": m for r in results
                   for name, m in r["metrics"].items()}
        correct = failed == 0 and all(r["correct"] for r in results)
        name = f"all-seed{seed}"
    else:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: "
                         f"{', '.join(workloads.WORKLOADS)}, all")
        result = measure(sawsps, workloads.WORKLOADS[args.workload], seed,
                         args.seconds, args.trace)
        print_result(result)
        if not result["metrics"]:
            print("error: no run succeeded; no metrics to report", file=sys.stderr)
            return 1
        results = [result]
        metrics = result["metrics"]
        attempted, failed, correct = result["attempted"], result["failed"], result["correct"]
        name = f"{args.workload}-seed{seed}-trace{args.trace}"
    path = write_results(name, env, results)
    print(f"results written to {path.relative_to(ROOT)}")
    if args.compare:
        compare(args.compare, results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
