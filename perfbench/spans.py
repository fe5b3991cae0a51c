"""Spans and counters recorded from outside `sawsps`.

`Tracer.installed()` replaces selected public functions of the package with
timing wrappers for the duration of a `with` block.  A function imported by
name into another module (`from .transport import run_device` in
`scenarios`) is replaced there too, so calls through every module namespace
are seen.  Spans stay in memory until `write_jsonl`.

Self time is a span's duration minus the durations of its direct children.
Children of one span never overlap because the traced run uses one thread.

Two figures hold more than their names say:
- scenarios.self_s is run_scenario's own time: merging block results (g2
  concatenates and sorts ~500k emission times there), CSV formatting and
  manifest hashing.
- transport.us_per_crossing is run_device's self time per capture_pass
  call, and that self time includes the counting wrapper's cost on every
  call: about 0.5 us of the ~6 us per crossing on device_field (~210k
  calls per run), so a faster capture_pass shows in it diluted.
"""

import contextlib
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict

import numpy as np


def _device_result(tracer, args, result):
    log = result.log
    tracer.counts["transport.pulses"] += len(log.pulse_times)
    tracer.counts["transport.generated"] += sum(log.generated.values())
    tracer.counts["transport.captured"] += sum(log.captured.values())
    if not log.conservation_ok():
        tracer.problems.append("run_device: carrier conservation violated")


def _photons_out(tracer, args, result):
    tracer.counts["emitter.photons"] += len(result)


def _photon_rows(tracer, args, result):
    tracer.counts["emitter.rows"] += len(args["records"])


def _frame(tracer, args, result):
    tracer.counts["detector.frame_photons"] += len(args["records"])
    tracer.counts["detector.frame_overflow"] += result.overflow


def _g2_pairs(tracer, args, result):
    # photons and pairs within the maximum delay, counted as g2_histogram
    # defines them
    times = np.sort(np.asarray(args["times_or_records"], dtype=float))
    hi = np.searchsorted(times, times + args["max_delay_ns"], side="right")
    tracer.counts["analysis.g2.photons"] += times.size
    tracer.counts["analysis.g2.pairs"] += int(np.sum(hi - np.arange(times.size) - 1))


def _grid_points(tracer, args, result):
    tracer.counts["cascade.grid_points"] += np.size(args["time_ns"])


def _manifest(tracer, args, result):
    tracer.counts["scenarios.files_written"] += len(result["files"]) + 1
    tracer.counts["scenarios.bytes_written"] += sum(f["bytes"] for f in result["files"])


# (module, attribute path, span name, observer of the call).  An observer
# gets the call's arguments by parameter name and its result.
SPANNED = (
    ("scenarios", "run_scenario", "scenarios.run_scenario", _manifest),
    ("scenarios", "ScenarioConfig.from_dict", "scenarios.validate", None),
    ("transport", "run_device", "transport.run_device", _device_result),
    ("transport", "uniform_site_field", "transport.uniform_site_field", None),
    ("transport", "per_cycle_emission_times", "transport.per_cycle_emission_times", None),
    ("emitter", "sample_cascade_from_loads", "emitter.sample_cascade_from_loads", _photons_out),
    ("emitter", "write_photon_csv", "emitter.write_photon_csv", _photon_rows),
    ("emitter", "sample_start_levels", "emitter.sample_start_levels", None),
    ("detector", "render_spatial_spectral", "detector.render_spatial_spectral", _frame),
    ("detector", "render_pl_image", "detector.render_pl_image", None),
    ("detector", "convolve_irf", "detector.convolve_irf", None),
    ("detector", "write_pgm", "detector.write", None),
    ("detector", "write_axes_csv", "detector.write", None),
    ("detector", "write_transient_csv", "detector.write", None),
    ("analysis", "g2_histogram", "analysis.g2_histogram", _g2_pairs),
    ("analysis", "onset_delay_curve", "analysis.onset_delay_curve", None),
    ("analysis", "expected_emission_trace", "analysis.expected_emission_trace", None),
    ("cascade", "solve_cascade_analytic", "cascade.solve_cascade_analytic", None),
    ("cascade", "BatemanSolution.emission_rate", "cascade.emission_rate", None),
    ("cascade", "BatemanSolution.occupancy", "cascade.occupancy", _grid_points),
    ("cascade", "initial_loading", "cascade.initial_loading", None),
    ("cascade", "time_integrated_intensity", "cascade.time_integrated_intensity", None),
    ("cascade", "onset_time", "cascade.onset_time", None),
    ("rng", "substream", "rng.substream", None),
)

# Called once per pocket-site crossing: a span each would cost more than the
# call itself, so these are only counted.
COUNTED = (
    ("transport", "capture_pass", "transport.crossings"),
)

PER_LAYER = (
    ("scenarios.self_s", "s"), ("scenarios.validate_s", "s"),
    ("scenarios.bytes_written", "bytes"), ("scenarios.files_written", "count"),
    ("transport.run_device.self_s", "s"), ("transport.crossings", "count"),
    ("transport.us_per_crossing", "us"), ("transport.us_per_pulse", "us"),
    ("transport.capture_ratio", "ratio"),
    ("transport.uniform_site_field.self_s", "s"),
    ("transport.per_cycle_emission_times.self_s", "s"),
    ("emitter.sample_cascade_from_loads.self_s", "s"), ("emitter.photons", "count"),
    ("emitter.us_per_photon", "us"), ("emitter.write_photon_csv.self_s", "s"),
    ("emitter.us_per_row", "us"), ("emitter.sample_start_levels.self_s", "s"),
    ("detector.render_spatial_spectral.self_s", "s"), ("detector.us_per_photon", "us"),
    ("detector.frame_overflow", "count"), ("detector.render_pl_image.self_s", "s"),
    ("detector.convolve_irf.self_s", "s"), ("detector.write.self_s", "s"),
    ("analysis.g2_histogram.self_s", "s"), ("analysis.g2.photons", "count"),
    ("analysis.g2.pairs", "count"), ("analysis.g2.ns_per_pair", "ns"),
    ("analysis.onset_delay_curve.self_s", "s"),
    ("analysis.expected_emission_trace.self_s", "s"),
    ("cascade.self_s", "s"), ("cascade.solve_cascade_analytic.calls", "count"),
    ("cascade.grid_points", "count"), ("cascade.ns_per_grid_point", "ns"),
    ("rng.substream.calls", "count"), ("rng.substream.self_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)


def _per(value: float, count: float, scale: float) -> float:
    return value / count * scale if count else 0.0


class Tracer:
    """Span and counter recorder for traced runs of one workload."""

    def __init__(self):
        self.spans: list[tuple] = []  # (run id, span id, parent id, name, start ns, end ns)
        self.counts_by_run: defaultdict = defaultdict(lambda: defaultdict(int))
        self.counts = self.counts_by_run[0]
        self.problems: list[str] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._stack: list[int] = []  # ids of the open spans

    def _spanned(self, name, func, observe):
        tracer = self
        signature = inspect.signature(func) if observe is not None else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((tracer.run_id, span_id, parent, name, start, end))
                tracer.counts[name + ".calls"] += 1
            if observe is not None:
                # the observer's own time is a sibling span, so it is not
                # charged to the caller's self time
                start = time.perf_counter_ns()
                observe(tracer, signature.bind(*args, **kwargs).arguments, result)
                tracer.spans.append((tracer.run_id, next(tracer._ids), parent,
                                     "trace.observe", start, time.perf_counter_ns()))
            return result
        return wrapper

    def _counted(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap the traced functions of `package` for the block's duration."""
        modules = [m for m in vars(package).values()
                   if getattr(m, "__name__", "").startswith(package.__name__ + ".")]
        modules.append(package)
        patches = []  # (owner, attribute, original)

        def patch(module_name, path, make):
            owner = getattr(package, module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = vars(owner)[attr]
            patches.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
                return
            wrapped = make(raw)
            setattr(owner, attr, wrapped)
            if not classes:  # names imported into other modules
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            patches.append((module, key, raw))
                            setattr(module, key, wrapped)

        try:
            for module_name, path, name, observe in SPANNED:
                patch(module_name, path,
                      lambda f, n=name, o=observe: self._spanned(n, f, o))
            for module_name, path, name in COUNTED:
                patch(module_name, path, lambda f, n=name: self._counted(n, f))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def run(self, name: str):
        """One traced workload run: a root span that the package's spans
        hang from, with its own counters."""
        self.run_id += 1
        self.counts = self.counts_by_run[self.run_id]
        stack = self._stack
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((self.run_id, span_id, None, name,
                               start, time.perf_counter_ns()))

    def per_layer(self, run_id: int) -> dict:
        """Per-layer metrics of one traced run, from its spans and counters."""
        spans = [s for s in self.spans if s[0] == run_id]
        child_ns = defaultdict(int)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_ns[parent] += end - start
        self_s = defaultdict(float)
        for _, span_id, _, name, start, end in spans:
            self_s[name] += (end - start - child_ns[span_id]) * 1e-9
        c = self.counts_by_run[run_id]
        layer_self = defaultdict(float)
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value
        return {
            "scenarios.self_s": self_s["scenarios.run_scenario"],
            "scenarios.validate_s": self_s["scenarios.validate"],
            "scenarios.bytes_written": c["scenarios.bytes_written"],
            "scenarios.files_written": c["scenarios.files_written"],
            "transport.run_device.self_s": self_s["transport.run_device"],
            "transport.crossings": c["transport.crossings"],
            "transport.us_per_crossing": _per(self_s["transport.run_device"],
                                              c["transport.crossings"], 1e6),
            "transport.us_per_pulse": _per(self_s["transport.run_device"],
                                           c["transport.pulses"], 1e6),
            "transport.capture_ratio": _per(c["transport.captured"],
                                            c["transport.generated"], 1.0),
            "transport.uniform_site_field.self_s": self_s["transport.uniform_site_field"],
            "transport.per_cycle_emission_times.self_s":
                self_s["transport.per_cycle_emission_times"],
            "emitter.sample_cascade_from_loads.self_s":
                self_s["emitter.sample_cascade_from_loads"],
            "emitter.photons": c["emitter.photons"],
            "emitter.us_per_photon": _per(self_s["emitter.sample_cascade_from_loads"],
                                          c["emitter.photons"], 1e6),
            "emitter.write_photon_csv.self_s": self_s["emitter.write_photon_csv"],
            "emitter.us_per_row": _per(self_s["emitter.write_photon_csv"],
                                       c["emitter.rows"], 1e6),
            "emitter.sample_start_levels.self_s": self_s["emitter.sample_start_levels"],
            "detector.render_spatial_spectral.self_s":
                self_s["detector.render_spatial_spectral"],
            "detector.us_per_photon": _per(self_s["detector.render_spatial_spectral"],
                                           c["detector.frame_photons"], 1e6),
            "detector.frame_overflow": c["detector.frame_overflow"],
            "detector.render_pl_image.self_s": self_s["detector.render_pl_image"],
            "detector.convolve_irf.self_s": self_s["detector.convolve_irf"],
            "detector.write.self_s": self_s["detector.write"],
            "analysis.g2_histogram.self_s": self_s["analysis.g2_histogram"],
            "analysis.g2.photons": c["analysis.g2.photons"],
            "analysis.g2.pairs": c["analysis.g2.pairs"],
            "analysis.g2.ns_per_pair": _per(self_s["analysis.g2_histogram"],
                                            c["analysis.g2.pairs"], 1e9),
            "analysis.onset_delay_curve.self_s": self_s["analysis.onset_delay_curve"],
            "analysis.expected_emission_trace.self_s":
                self_s["analysis.expected_emission_trace"],
            "cascade.self_s": layer_self["cascade"],
            "cascade.solve_cascade_analytic.calls": c["cascade.solve_cascade_analytic.calls"],
            "cascade.grid_points": c["cascade.grid_points"],
            "cascade.ns_per_grid_point": _per(layer_self["cascade"],
                                              c["cascade.grid_points"], 1e9),
            "rng.substream.calls": c["rng.substream.calls"],
            "rng.substream.self_s": self_s["rng.substream"],
            "trace.spans": len(spans),
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": run_id, "id": span_id, "parent": parent,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")
