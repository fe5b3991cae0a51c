"""Reproducible experiment presets wired end to end.

Every scenario is defined by a JSON-serializable config (explicit units in
key names) plus a master seed; running one writes CSV/PGM outputs and a
manifest with content hashes.  Identical (config, seed) produce byte-identical
outputs regardless of worker thread count: all randomness flows through
counter-based substreams keyed by fixed block indices.
"""

import hashlib
import json
import math
import numbers
import re
import secrets
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._csvfile import write_csv
from .analysis import (g2_histogram, onset_delay_curve, powerlaw_exponent,
                       pumped_traces)
from .cascade import CascadeModel, time_integrated_intensity
from .detector import (Irf, TransitionSpectrum, convolve_irf, render_pl_image,
                       render_spatial_spectral, whole_bins, write_axes_csv,
                       write_pgm, write_transient_csv)
from .emitter import sample_start_levels, write_photon_csv
from .rng import _map_blocks, substream
from .transport import (LaserSpot, SawWave, SiteField,
                        per_cycle_emission_times, run_device,
                        uniform_site_field)


class ConfigError(ValueError):
    """Invalid scenario configuration (reported with the offending key path)."""


DEFAULT_SEED = 12345

_CASCADE_DEFAULTS = {"lifetimes_ns": [1.5, 1.4, 0.9],
                     "labels": ["1X", "2X", "3X"]}

# Every key a preset takes, with its default; the default's type is the
# key's type (see `_typed`).
_PRESETS: dict[str, dict] = {
    "fig3_power_series": {
        "description": "Photons per pulse vs pump for every transition: "
                       "model curve, Monte Carlo points and low-pump "
                       "power-law exponents.",
        "params": {
            "cascade": _CASCADE_DEFAULTS,
            "g_values": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0],
            "mc_pulses_per_point": 1000000,
            "powerlaw_g_max": 0.1,
        },
    },
    "fig4_transients": {
        "description": "Time-resolved emission traces of each transition at "
                       "three pump levels, raw and IRF-convolved.",
        "params": {
            "cascade": _CASCADE_DEFAULTS,
            "g_values": [0.2, 0.7, 1.9],
            "irf_fwhm_ns": 0.35,
            "horizon_ns": 12.0,
            "step_ns": 0.02,
        },
    },
    "fig4c_delays": {
        "description": "Onset and mean emission delay of every transition "
                       "versus pump strength.",
        "params": {
            "cascade": _CASCADE_DEFAULTS,
            "g_values": [0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 1.9, 3.0, 5.0, 10.0,
                         20.0],
            "onset_threshold": 0.1,
        },
    },
    "fig5_ensemble": {
        "description": "Acoustic pumping of a dot field with finite carrier "
                       "pockets: upstream depletion image and statistics.",
        "params": {
            "cascade": {"lifetimes_ns": [1.5], "labels": ["1X"]},
            "saw": {"frequency_mhz": 193.0, "wavelength_um": 15.0,
                    "amplitude": 1.0, "direction": 1},
            "field": {"density_per_um2": 30.0,
                      "extent_um": ((0.0, 10.0), (-5.0, 5.0)),
                      "capture_radius_um": 0.05, "capture_prob": 0.2},
            "spot": {"center_um": -12.0, "radius_um": 1.5,
                     "pairs_per_pulse": 75.0},
            "num_pulses": 200,
            "pulses_per_saw_cycle": 1.0,
            "image": {"psf_sigma_um": 0.4, "pixel_um": 0.25},
            "write_photons": False,
        },
    },
    "fig7_remote": {
        "description": "Remote pumping of individual posts 7 and 14 um from "
                       "the spot: CCD frames without SAW and for both "
                       "propagation directions.",
        "params": {
            "cascade": _CASCADE_DEFAULTS,
            "saw": {"frequency_mhz": 193.0, "wavelength_um": 15.0,
                    "amplitude": 1.0},
            "sites": {"positions_um": [0.0, -7.0, -14.0],
                      "capture_radius_um": 0.5, "capture_prob": 0.5},
            "spot": {"center_um": 0.0, "radius_um": 1.0,
                     "pairs_per_pulse": 2.0},
            "num_pulses": 2000,
            "emitter_shifts_nm": {1: 1.6, 2: -2.4},  # by site id
            "frame": {"row_extent_um": (-16.0, 4.0), "row_bin_um": 0.5,
                      "col_extent_nm": (858.0, 884.0), "col_bin_nm": 0.2},
            "write_photons": True,
        },
    },
    "g2_antibunching": {
        "description": "Pulsed second-order correlation of a capacity-1 site "
                       "injected once per SAW cycle.",
        "params": {
            "saw": {"frequency_mhz": 193.0, "wavelength_um": 15.0},
            "site": {"capture_prob": 0.5, "lifetime_ns": 0.5},
            "num_cycles": 2000000,
            "g2_bin_ns": 0.1,
            "g2_periods": 10.5,
        },
    },
}

_MC_BLOCKS = 16
# fig7's spectral lines, by transition label, and its default emitter shifts
_LINES = TransitionSpectrum.default().lines
_SHIFTS = _PRESETS["fig7_remote"]["params"]["emitter_shifts_nm"]


# What each key may hold beyond its type: (what is needed, test of the typed
# value).  A bound is keyed by the parameter name and applies wherever that
# name occurs; a key qualified with its preset adds a condition for that
# preset only.  The bound of a group or a preset is checked after its
# members, so it can relate them.
_BOUNDS: dict[str, tuple] = {
    **dict.fromkeys(("frequency_mhz", "wavelength_um", "radius_um",
                     "capture_radius_um", "lifetime_ns", "irf_fwhm_ns",
                     "horizon_ns", "step_ns", "powerlaw_g_max",
                     "pulses_per_saw_cycle", "psf_sigma_um", "pixel_um",
                     "row_bin_um", "col_bin_nm", "g2_bin_ns", "g2_periods"),
                    ("a value > 0", lambda x: x > 0)),
    **dict.fromkeys(("density_per_um2", "pairs_per_pulse"),
                    ("a value >= 0", lambda x: x >= 0)),
    **dict.fromkeys(("amplitude", "capture_prob"),
                    ("a value in [0, 1]", lambda x: 0 <= x <= 1)),
    **dict.fromkeys(("num_pulses", "mc_pulses_per_point", "num_cycles"),
                    ("an integer >= 1", lambda n: n >= 1)),
    **dict.fromkeys(("row_extent_um", "col_extent_nm"),
                    ("an increasing [low, high] pair", lambda v: v[0] < v[1])),
    **dict.fromkeys(("lifetimes_ns", "g_values"),
                    ("a non-empty list of values > 0",
                     lambda v: len(v) > 0 and min(v) > 0)),
    "master_seed": ("an integer >= 0", lambda n: n >= 0),
    "direction": ("+1 or -1", lambda d: d in (-1, 1)),
    "onset_threshold": ("a fraction in (0, 1)", lambda x: 0 < x < 1),
    "extent_um": ("two increasing [low, high] pairs",
                  lambda v: all(lo < hi for lo, hi in v)),
    # labels name output files and CSV columns
    "labels": ("non-empty labels of letters, digits, '+', '-' or '_'",
               lambda v: all(re.fullmatch(r"[\w+-]+", lab, re.ASCII)
                             for lab in v)),
    "cascade": ("labels unique and one per entry of lifetimes_ns",
                lambda c: len(set(c["labels"])) == len(c["labels"])
                == len(c["lifetimes_ns"])),
    # the bin edges must tile the extent, or photons past the last edge
    # fall outside the frame
    "frame": ("row_bin_um and col_bin_nm each dividing its extent into "
              "whole bins",
              lambda f: whole_bins(f["row_extent_um"], f["row_bin_um"])
              and whole_bins(f["col_extent_nm"], f["col_bin_nm"])),
    "fig4c_delays.g_values": ("strictly ascending values",
                              lambda v: all(a < b for a, b in zip(v, v[1:]))),
    "fig4_transients.g_values": ("values distinct in format 'g' (file names)",
                                 lambda v: len({f"{g:g}" for g in v}) == len(v)),
    "fig4_transients": ("step_ns < horizon_ns and step_ns <= irf_fwhm_ns",
                        lambda p: p["irf_fwhm_ns"] >= p["step_ns"]
                        < p["horizon_ns"]),
    # fig7 draws each photon's wavelength from its transition's line,
    # shifted by its emitter's shift; a shift given for a site that does not
    # exist would change no output (a default one may stay, so runs with
    # fewer sites keep their defaults)
    "fig7_remote": ("cascade labels that have a spectral line, and "
                    "emitter_shifts_nm keyed by ids of sites in "
                    "sites.positions_um and keeping their centers > 0 nm",
                    lambda p: set(p["cascade"]["labels"]) <= _LINES.keys()
                    and all(i < len(p["sites"]["positions_um"])
                            or _SHIFTS.get(i) == shift
                            for i, shift in p["emitter_shifts_nm"].items())
                    and all(_LINES[label].center_nm + shift > 0
                            for label in p["cascade"]["labels"]
                            for shift in p["emitter_shifts_nm"].values())),
    # the PL image spans field.extent_um in whole pixels, as a frame does
    "fig5_ensemble": ("image.pixel_um dividing each axis of field.extent_um "
                      "into whole pixels",
                      lambda p: all(whole_bins(axis, p["image"]["pixel_um"])
                                    for axis in p["field"]["extent_um"])),
}

# What a scalar key accepts, by the type of its default; only a bool key
# takes a bool.
_SCALARS = {bool: ("true or false", bool), int: ("an integer", numbers.Integral),
            float: ("a finite number", numbers.Real), str: ("a string", str)}


def _typed(default, value, path: str):
    """`value` given the type of `default` and checked against `_BOUNDS`;
    `ConfigError` names the key.  A mapping merges into the default: a group
    has fixed string keys, integer keys take any non-negative id.  A tuple
    has the default's length, a list entries typed like the default's first.
    An int rejects bools and fractions; a float takes any finite number."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping, got {value!r}")
        if all(type(k) is int for k in default):
            if not all(isinstance(k, (int, str)) and str(k).isdecimal()
                       for k in value):
                raise ConfigError(f"{path}: expected non-negative integer "
                                  f"ids, got {list(value)}")
            entry = next(iter(default.values()))
            merged = {**default, **{int(k): v for k, v in value.items()}}
            typed = {k: _typed(entry, v, f"{path}.{k}")
                     for k, v in merged.items()}
        else:
            for key in value.keys() - default.keys():
                raise ConfigError(f"unknown config key '{path}.{key}'")
            typed = {k: _typed(d, value.get(k, d), f"{path}.{k}")
                     for k, d in default.items()}
    elif isinstance(default, (list, tuple)):
        fixed = isinstance(default, tuple)
        if not isinstance(value, (list, tuple)) \
                or fixed and len(value) != len(default):
            size = f" of {len(default)}" if fixed else ""
            raise ConfigError(f"{path}: expected a list{size}, got {value!r}")
        entries = default if fixed else [default[0]] * len(value)
        typed = type(default)(_typed(d, v, f"{path}[{i}]")
                              for i, (d, v) in enumerate(zip(entries, value)))
    else:
        what, kind = _SCALARS[type(default)]
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool) \
                or kind is numbers.Real and not math.isfinite(value):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        typed = type(default)(value)
    for key in dict.fromkeys((path.rsplit(".", 1)[-1], path)):
        what, test = _BOUNDS.get(key, (None, None))
        if test and not test(typed):
            got = "" if isinstance(typed, dict) else f", got {typed!r}"
            raise ConfigError(f"{path}: need {what}{got}")
    return typed


@dataclass(frozen=True)
class ScenarioConfig:
    """A named preset, its parameters and the master seed.

    Building one validates it: `params` may give any subset of the preset's
    keys and is replaced by the complete typed parameters, so a bad key or
    value raises `ConfigError` here and never reaches a run.
    """

    name: str
    master_seed: int
    params: dict

    def __post_init__(self):
        if self.name not in _PRESETS:
            raise ConfigError(f"unknown scenario '{self.name}'; "
                              f"known: {', '.join(_PRESETS)}")
        object.__setattr__(self, "master_seed",
                           _typed(DEFAULT_SEED, self.master_seed, "master_seed"))
        object.__setattr__(self, "params",
                           _typed(_PRESETS[self.name]["params"], self.params,
                                  self.name))

    @classmethod
    def preset(cls, name: str, overrides: dict | None = None,
               master_seed: int = DEFAULT_SEED) -> "ScenarioConfig":
        return cls(name, master_seed, {} if overrides is None else overrides)

    def to_dict(self) -> dict:
        return {"scenario": self.name, "master_seed": self.master_seed,
                "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        unknown = set(data) - {"scenario", "master_seed", "params"}
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError("config needs a 'scenario' name")
        return cls.preset(data["scenario"], data.get("params"),
                          data.get("master_seed", DEFAULT_SEED))


def list_scenarios() -> list[tuple[str, str]]:
    """Stable ordered listing of preset names and descriptions."""
    return [(name, entry["description"]) for name, entry in _PRESETS.items()]


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _block_sizes(total: int, blocks: int) -> list[int]:
    base = total // blocks
    sizes = [base] * blocks
    sizes[-1] += total - base * blocks
    return sizes


# ---------------------------------------------------------------------------
# Scenario runners: they read the typed, validated `cfg.params` and write
# their files into `out`, all of which the manifest lists
# ---------------------------------------------------------------------------

def _run_fig3(cfg: ScenarioConfig, out: Path, threads: int) -> None:
    p = cfg.params
    model = CascadeModel(**p["cascade"])
    g_values = p["g_values"]
    pulses = p["mc_pulses_per_point"]
    nlev = model.num_levels

    def mc_counts(gi: int) -> np.ndarray:
        g = g_values[gi]
        sizes = _block_sizes(pulses, _MC_BLOCKS)

        def block(b: int) -> np.ndarray:
            rng = substream(cfg.master_seed, 10 + gi, b)
            levels = sample_start_levels(g, sizes[b], nlev, rng)
            return np.array([np.count_nonzero(levels >= i)
                             for i in range(1, nlev + 1)])

        return np.sum(_map_blocks(block, _MC_BLOCKS, threads), axis=0)

    mc_rates = [mc_counts(gi) / pulses for gi in range(len(g_values))]
    header = (["g"] + [f"model_{lab}" for lab in model.labels]
              + [f"mc_{lab}" for lab in model.labels])
    write_csv(out / "intensity_vs_g.csv", header,
              [g_values]
              + [[time_integrated_intensity(model, g, i) for g in g_values]
                 for i in range(1, nlev + 1)]
              + list(np.transpose(mc_rates)))

    sel = [i for i, g in enumerate(g_values) if g <= p["powerlaw_g_max"]]
    slopes = {}
    for level in range(1, nlev + 1):
        xs = [g_values[i] for i in sel]
        ys = [mc_rates[i][level - 1] for i in sel]
        if len(xs) >= 3 and all(y > 0 for y in ys):
            slopes[model.labels[level - 1]] = powerlaw_exponent(xs, ys)
    write_csv(out / "powerlaw.csv", ["transition", "slope", "stderr"],
              [list(slopes), [f.slope for f in slopes.values()],
               [f.stderr for f in slopes.values()]])


def _run_fig4(cfg: ScenarioConfig, out: Path, threads: int) -> None:
    p = cfg.params
    model = CascadeModel(**p["cascade"])
    irf = Irf(p["irf_fwhm_ns"])
    grid = np.arange(0.0, p["horizon_ns"], p["step_ns"])
    for g, _, level, trace in pumped_traces(model, p["g_values"], grid):
        label = model.labels[level - 1]
        write_transient_csv(out / f"transient_g{g:g}_{label}.csv", trace)
        write_transient_csv(out / f"transient_g{g:g}_{label}_irf.csv",
                            convolve_irf(trace, irf))


def _run_fig4c(cfg: ScenarioConfig, out: Path, threads: int) -> None:
    p = cfg.params
    model = CascadeModel(**p["cascade"])
    curve = onset_delay_curve(model, p["g_values"],
                              threshold_fraction=p["onset_threshold"])
    header = (["g"] + [f"onset_{lab}" for lab in model.labels]
              + [f"mean_{lab}" for lab in model.labels])
    write_csv(out / "delays.csv", header,
              [curve.g_values, *curve.onset_ns.T, *curve.mean_time_ns.T])


def _run_fig5(cfg: ScenarioConfig, out: Path, threads: int) -> None:
    p = cfg.params
    model = CascadeModel(**p["cascade"])
    saw = SawWave(**p["saw"])
    (fx0, fx1), _ = extent = p["field"]["extent_um"]
    sites = uniform_site_field(model=model, rng=substream(cfg.master_seed, 99),
                               **p["field"])
    period = saw.period_ns / p["pulses_per_saw_cycle"]
    result = run_device(LaserSpot(**p["spot"]), sites, saw, period,
                        p["num_pulses"], cfg.master_seed)

    per_site = np.bincount(result.photons["emitter_id"], minlength=len(sites))
    write_csv(out / "site_emission.csv",
              ["site_id", "x_um", "y_um", "photons"],
              [np.arange(len(sites)), sites.x_um, sites.y_um, per_site])

    counts = per_site.astype(float)
    total = counts.sum()
    mid = 0.5 * (fx0 + fx1)
    upstream = sites.x_um < mid if saw.direction > 0 else sites.x_um > mid
    upstream_fraction = float(counts[upstream].sum() / total) if total else 0.0
    illuminated = float(total ** 2 / (counts.size * np.sum(counts ** 2))) \
        if total else 0.0
    write_csv(out / "depletion_stats.csv",
              ["total_photons", "num_sites", "upstream_fraction",
               "illuminated_fraction"],
              [[int(total)], [counts.size], [upstream_fraction],
               [illuminated]])

    # the sites that emitted, in id order, each with its photon count
    lit = np.flatnonzero(per_site)
    image = render_pl_image(sites.x_um[lit], sites.y_um[lit], per_site[lit],
                            extent_um=extent, **p["image"])
    write_pgm(out / "pl_image.pgm", image.intensity)
    write_axes_csv(out / "pl_image_axes.csv",
                   0.5 * (image.y_edges_um[:-1] + image.y_edges_um[1:]),
                   0.5 * (image.x_edges_um[:-1] + image.x_edges_um[1:]),
                   row_name="row_center_um", col_name="col_center_um")
    if p["write_photons"]:
        write_photon_csv(out / "photons.csv", result.photons)


def _run_fig7(cfg: ScenarioConfig, out: Path, threads: int) -> None:
    p = cfg.params
    model = CascadeModel(**p["cascade"])
    sp = p["sites"]
    spot = LaserSpot(**p["spot"])
    n = len(sp["positions_um"])
    sites = SiteField(sp["positions_um"], np.zeros(n),
                      np.full(n, sp["capture_radius_um"]),
                      np.full(n, sp["capture_prob"]), (model,) * n)
    spectrum = TransitionSpectrum(_LINES, p["emitter_shifts_nm"])
    fr = p["frame"]
    row_edges = np.arange(fr["row_extent_um"][0],
                          fr["row_extent_um"][1] + fr["row_bin_um"] / 2,
                          fr["row_bin_um"])
    col_edges = np.arange(fr["col_extent_nm"][0],
                          fr["col_extent_nm"][1] + fr["col_bin_nm"] / 2,
                          fr["col_bin_nm"])

    base = SawWave(**p["saw"])
    variants = [("saw_off", replace(base, amplitude=0.0, direction=1)),
                ("idt1", replace(base, direction=-1)),
                ("idt2", replace(base, direction=1))]
    for vi, (tag, saw) in enumerate(variants):
        result = run_device(spot, sites, saw, saw.period_ns, p["num_pulses"],
                            cfg.master_seed, variant=vi)
        frame = render_spatial_spectral(result.photons, row_edges, col_edges,
                                        spectrum,
                                        substream(cfg.master_seed, 7, vi))
        write_pgm(out / f"frame_{tag}.pgm", frame.counts)
        write_axes_csv(out / f"frame_{tag}_axes.csv", frame.row_centers_um,
                       frame.col_centers_nm)
        counts = np.bincount(result.photons["emitter_id"],
                             minlength=len(sites))
        write_csv(out / f"site_counts_{tag}.csv", ["site_id", "x_um", "photons"],
                  [np.arange(n), sites.x_um, counts])
        if p["write_photons"]:
            write_photon_csv(out / f"photons_{tag}.csv", result.photons)


def _run_g2(cfg: ScenarioConfig, out: Path, threads: int) -> None:
    p = cfg.params
    period = SawWave(**p["saw"]).period_ns
    cycles = p["num_cycles"]
    times = per_cycle_emission_times(cycles, period,
                                     rng=substream(cfg.master_seed, 2),
                                     **p["site"])
    hist = g2_histogram(times, p["g2_periods"] * period, p["g2_bin_ns"],
                        period, threads=threads)
    write_csv(out / "g2_histogram.csv", ["delay_ns", "coincidences"],
              [hist.delay_ns, hist.counts])
    ratio = hist.zero_peak_ratio
    write_csv(out / "g2_summary.csv",
              ["num_photons", "num_cycles", "zero_peak_ratio"],
              [[times.size], [cycles],
               [float(ratio) if ratio is not None else float("nan")]])


_RUNNERS = {
    "fig3_power_series": _run_fig3,
    "fig4_transients": _run_fig4,
    "fig4c_delays": _run_fig4c,
    "fig5_ensemble": _run_fig5,
    "fig7_remote": _run_fig7,
    "g2_antibunching": _run_g2,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_scenario(config: ScenarioConfig, out_dir, force: bool = False,
                 threads: int = 1) -> dict:
    """Execute a scenario and write its outputs plus a manifest.

    Refuses a non-empty output directory unless `force`.  The outputs are
    written into a new sibling directory that replaces the output directory
    only once the manifest is written, so a run that fails leaves the
    output directory as it was.  The previous outputs are renamed aside
    and deleted only once the new ones are in place, together with any
    set renamed aside by an earlier run whose delete was interrupted.
    Returns the manifest dictionary.
    """
    if type(threads) is not int or threads < 1:
        raise ConfigError(f"threads must be an int >= 1, got {threads!r}")
    out = Path(out_dir).resolve()
    if out.exists():
        if not out.is_dir():
            raise ConfigError(f"output path {out} exists and is not a directory")
        if not force and any(out.iterdir()):
            raise ConfigError(
                f"output directory {out} is not empty (use force to overwrite)")
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = out.with_name(f".{out.name}.partial-{secrets.token_hex(4)}")
    stage.mkdir()
    old = None
    try:
        _RUNNERS[config.name](config, stage, threads)
        canonical = json.dumps(config.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        manifest = {
            "scenario": config.name,
            "master_seed": config.master_seed,
            "package_version": __version__,
            "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "files": [{"name": name, "sha256": _sha256(stage / name),
                       "bytes": (stage / name).stat().st_size}
                      for name in sorted(p.name for p in stage.iterdir())],
        }
        with open(stage / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        if out.exists():
            old = stage.with_name(f"{stage.name}-old")
            out.rename(old)
        stage.rename(out)
    except BaseException:
        if old is not None and not out.exists():
            old.rename(out)
        shutil.rmtree(stage, ignore_errors=True)
        raise
    # `out` is complete now, so every `-old` sibling of a stage name (8 hex
    # digits of token), this run's or one left by an interrupted delete,
    # holds superseded outputs
    superseded = re.compile(re.escape(f".{out.name}.partial-")
                            + "[0-9a-f]{8}-old")
    for path in out.parent.iterdir():
        if superseded.fullmatch(path.name):
            shutil.rmtree(path)
    return manifest
