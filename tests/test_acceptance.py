"""Acceptance suite: one test per criterion, printed as a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Monte Carlo criteria use fixed master seeds, so every run is
reproducible; tolerances are the stated ones, not calibrated ones.
"""

import hashlib
import time

import numpy as np
import pytest

from sawsps.analysis import fit_rise_fall, g2_histogram
from sawsps.cascade import (CascadeModel, Transient,
                            solve_cascade_analytic, solve_cascade_numeric)
from sawsps.detector import Irf, convolve_irf
from sawsps.emitter import (ensemble_histogram, sample_cascade_from_loads,
                            sample_start_levels)
from sawsps.rng import substream, substreams
from sawsps.scenarios import ScenarioConfig, run_scenario
from sawsps.transport import (ChannelLayout, LaserSpot, QdSite, SawWave,
                              arrival_delay, per_cycle_emission_times,
                              run_device)

THREE_LEVEL = CascadeModel((1.5, 1.4, 0.9))


def report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {text}")


def test_criterion_1_bateman_ode_oracle():
    """Numeric RK4 matches the closed form within 1e-6 relative (dt = 1e-3)
    over 100 random lifetime sets in [0.1, 10] ns, near-degenerate included."""
    t_start = time.perf_counter()
    rng = substream(20240101, 0)
    sets = rng.uniform(0.1, 10.0, size=(100, 3))
    # plant near-degenerate pairs (within the confluent-switch tolerance)
    for i, eps in zip(range(20), [0.0, 1e-12, 1e-10, 1e-9] * 5):
        sets[i, 1] = sets[i, 0] * (1.0 + eps)
    worst = 0.0
    for lifetimes in sets:
        model = CascadeModel(tuple(lifetimes))
        trace = solve_cascade_numeric(model, 3, 5.0, 1e-3)
        sol = solve_cascade_analytic(model, 3)
        for level in (1, 2, 3):
            exact = sol.occupancy(level, trace.time_ns)
            err = np.max(np.abs(trace.level(level) - exact)) / exact.max()
            worst = max(worst, err)
    elapsed = time.perf_counter() - t_start
    assert worst < 1e-6, f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    report(1, f"100 lifetime sets, worst relative error {worst:.2e}, "
              f"{elapsed:.1f} s")


def test_criterion_2_mc_ode_convergence():
    """1e5 stochastic trajectories from level 3 sit inside 3-sigma Poisson
    bands of the analytic emission traces for all three transitions.  Each
    trajectory is one load of three excitons at t = 0, from its own
    substream (777, i), all drawn in one sampler call."""
    t_start = time.perf_counter()
    num = 100000
    period = 50.0
    bin_ns = 0.2
    photons = sample_cascade_from_loads(
        [THREE_LEVEL] * num, np.zeros(num), np.full(num, 3),
        substreams(777, np.arange(num)), np.arange(num))
    sol = solve_cascade_analytic(THREE_LEVEL, 3)
    worst_z = 0.0
    for level, label in enumerate(THREE_LEVEL.labels, start=1):
        hist = ensemble_histogram(photons, label, bin_ns, period)
        # integrate the analytic rate over each bin
        expected = np.array([
            np.trapezoid(sol.emission_rate(level,
                                           np.linspace(lo, lo + bin_ns, 21)),
                         np.linspace(lo, lo + bin_ns, 21))
            for lo in hist.time_ns - bin_ns / 2]) * num
        sel = expected >= 25.0
        z = (hist.intensity[sel] - expected[sel]) / np.sqrt(expected[sel])
        worst_z = max(worst_z, float(np.max(np.abs(z))))
        assert np.all(np.abs(z) <= 3.0), \
            f"{label}: worst |z| = {np.max(np.abs(z)):.2f}"
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(2, f"{num} trajectories, worst bin |z| = {worst_z:.2f}, "
              f"{elapsed:.1f} s")


def test_criterion_3_rise_fall_identity():
    """Fitted rise of the simulated 2X transient equals the top-level fall
    time: within 5% noiseless, within +-0.35 ns after IRF and Poisson noise."""
    sol = solve_cascade_analytic(THREE_LEVEL, 3)
    t = np.arange(0.0, 12.0, 0.02)
    clean = Transient(t, sol.emission_rate(2, t))
    fit = fit_rise_fall(clean)
    assert abs(fit.t_rise_ns - 0.9) / 0.9 < 0.05

    blurred = convolve_irf(clean, Irf(0.35))
    # counts on the scale of the measured transients (thousands at the peak)
    scale = 4000.0 / blurred.intensity.max()
    rng = substream(333, 0)
    noisy = rng.poisson(blurred.intensity * scale).astype(float)
    fit_noisy = fit_rise_fall(Transient(blurred.time_ns, noisy))
    assert abs(fit_noisy.t_rise_ns - 0.9) <= 0.35
    report(3, f"noiseless rise {fit.t_rise_ns:.4f} ns, "
              f"noisy+IRF rise {fit_noisy.t_rise_ns:.3f} ns vs 0.9 +- 0.35")


def test_criterion_4_delay_identity():
    """Mean 1X (2X) emission time at saturating pump equals the sum of the
    fall times above it, within 2 standard errors over 1e5 pulses.  The
    pulses are loads 100 ns apart on one dot; every cascade must end before
    the next load, so each pulse is measured on its own."""
    rng = substream(444, 0)
    num = 100000
    period = 100.0
    levels = sample_start_levels(50.0, num, 3, rng)
    photons = sample_cascade_from_loads([THREE_LEVEL], np.arange(num) * period,
                                        levels, [rng])
    # each window [k T, (k + 1) T) holds exactly the photons of pulse k
    pulse = (photons["time_ns"] // period).astype(int)
    assert np.array_equal(np.bincount(pulse, minlength=num), levels)
    for level, expected in ((1, 3.8), (2, 2.3)):
        label = THREE_LEVEL.labels[level - 1]
        sample = photons["time_ns"][photons["transition"] == label] % period
        se = sample.std(ddof=1) / np.sqrt(sample.size)
        assert abs(sample.mean() - expected) <= 2.0 * se, \
            f"level {level}: {sample.mean():.4f} vs {expected} (2se = {2 * se:.4f})"
    report(4, "mean 1X/2X delays match tau sums within 2 standard errors")


def test_criterion_5_power_laws():
    """Log-log slopes of photons per pulse over g in [0.01, 0.1]:
    1X = 1.00 +- 0.05, 2X = 2.00 +- 0.10 (1e6 pulses per point)."""
    from sawsps.analysis import powerlaw_exponent
    g_values = [0.01, 0.02, 0.05, 0.1]
    pulses = 10 ** 6
    rates = {1: [], 2: []}
    for gi, g in enumerate(g_values):
        rng = substream(555, gi)
        levels = sample_start_levels(g, pulses, 3, rng)
        for level in (1, 2):
            rates[level].append(np.mean(levels >= level))
    slope_1x = powerlaw_exponent(g_values, rates[1]).slope
    slope_2x = powerlaw_exponent(g_values, rates[2]).slope
    assert abs(slope_1x - 1.0) <= 0.05, f"1X slope {slope_1x:.3f}"
    assert abs(slope_2x - 2.0) <= 0.10, f"2X slope {slope_2x:.3f}"
    report(5, f"1X slope {slope_1x:.3f}, 2X slope {slope_2x:.3f}")


def test_criterion_6_remote_pumping_geometry():
    """193 MHz / 15 um device with sites 7 and 14 um away: conveyance delays
    are exact, causality holds per capture, the reversed direction leaves the
    wrong side dark over 1e5 cycles, amplitude 0 pumps only the spot."""
    saw_fwd = SawWave(193.0, 15.0, direction=-1)
    assert arrival_delay(7.0, saw_fwd) == pytest.approx(7.0 / 2.895, rel=1e-12)
    assert arrival_delay(14.0, saw_fwd) == pytest.approx(14.0 / 2.895, rel=1e-12)

    cycles = 100000
    sites = tuple(QdSite(i, x, 0.5, 0.5, THREE_LEVEL)
                  for i, x in enumerate((0.0, -7.0, -14.0)))
    layout = ChannelLayout((-20.0, 6.0), LaserSpot(0.0, 1.0, 1.0), sites)
    period = saw_fwd.period_ns

    res = run_device(layout, saw_fwd, period, cycles, 606)
    emitted = set(res.photons["emitter_id"].tolist())
    assert emitted == {0, 1, 2}
    pos = np.array([s.position_um for s in sites])  # by site id
    v = saw_fwd.velocity_um_per_ns
    caps = res.log.captures
    dist = np.abs(pos[caps["site_id"]] - caps["pocket_birth_um"])
    far = dist > 0.5
    assert np.all(caps["time_ns"][far]
                  >= caps["pocket_birth_ns"][far] + dist[far] / v - 1e-9)
    assert res.log.conservation_ok()

    res_rev = run_device(layout, SawWave(193.0, 15.0, direction=+1), period,
                         cycles, 606)
    wrong_side = np.isin(res_rev.photons["emitter_id"], (1, 2))
    assert not np.any(wrong_side)

    res_off = run_device(layout, SawWave(193.0, 15.0, amplitude=0.0), period,
                         cycles, 606)
    assert set(res_off.photons["emitter_id"].tolist()) == {0}
    report(6, f"delays exact, {len(res.log.captures)} captures causal, "
              f"reversed side dark over {cycles} cycles, amplitude 0 local only")


def test_criterion_7_antibunching():
    """Capacity-1 per-cycle injection: pulsed g2 zero-peak ratio < 0.1 over
    1e6 SAW cycles."""
    t_start = time.perf_counter()
    saw = SawWave(193.0, 15.0)
    cycles = 10 ** 6
    times = per_cycle_emission_times(cycles, saw.period_ns, 0.5, 0.5,
                                     substream(707, 0))
    hist = g2_histogram(times, 10.5 * saw.period_ns, 0.1, saw.period_ns)
    elapsed = time.perf_counter() - t_start
    assert hist.zero_peak_ratio is not None
    assert hist.zero_peak_ratio < 0.1, f"ratio {hist.zero_peak_ratio:.4f}"
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    report(7, f"zero-peak ratio {hist.zero_peak_ratio:.4f} over {cycles} "
              f"cycles, {elapsed:.1f} s")


def test_criterion_8_ensemble_depletion(tmp_path):
    """10x10 um field at 30 dots/um^2 with finite pockets: at least 60% of
    the emission from the upstream half, emission-weighted illuminated
    fraction inside the 12-50% band."""
    cfg = ScenarioConfig.preset("fig5_ensemble", master_seed=808)
    run_scenario(cfg, tmp_path / "fig5")
    rows = (tmp_path / "fig5" / "depletion_stats.csv").read_text().strip()
    header, values = [line.split(",") for line in rows.splitlines()]
    stats = dict(zip(header, values))
    num_sites = int(stats["num_sites"])
    upstream = float(stats["upstream_fraction"])
    illuminated = float(stats["illuminated_fraction"])
    assert 2500 <= num_sites <= 3500  # ~3000 dots at the stated density
    assert upstream >= 0.6, f"upstream fraction {upstream:.3f}"
    assert 0.12 <= illuminated <= 0.50, f"illuminated fraction {illuminated:.3f}"
    report(8, f"{num_sites} dots, upstream fraction {upstream:.2f}, "
              f"illuminated fraction {illuminated:.2f}")


def test_criterion_9_determinism(tmp_path):
    """Equal seed and different thread counts give byte-identical CSV, PGM
    and manifest outputs."""
    cases = [
        ("g2_antibunching", {"num_cycles": 200000}),
        ("fig3_power_series", {"mc_pulses_per_point": 50000,
                               "g_values": [0.02, 0.05, 0.1, 0.5]}),
        ("fig7_remote", {"num_pulses": 400}),
    ]
    for name, overrides in cases:
        cfg = ScenarioConfig.preset(name, overrides, master_seed=909)
        digests = []
        for threads in (1, 3):
            out = tmp_path / f"{name}_t{threads}"
            run_scenario(cfg, out, threads=threads)
            digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(out.iterdir())})
        assert digests[0] == digests[1], f"{name} differs across thread counts"
    report(9, f"{len(cases)} presets byte-identical across thread counts")
