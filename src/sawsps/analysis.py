"""Extraction of reported quantities from simulated data.

Rise/fall fits use the difference-of-exponentials model
A * (exp(-(t-t0)/t_fall) - exp(-(t-t0)/t_rise)), which is the exact shape of
a two-step chain, so "rise" and "fall" are unambiguous: the fall constant is
the one controlling the tail.  Fits are derivative-based local least squares
with a fixed set of heuristic starts, hence deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .cascade import (CascadeModel, NoSignalError, Transient, initial_loading,
                      onset_time, solve_cascade_analytic)


class FitConvergenceError(RuntimeError):
    """Raised when no fit start converges within the iteration budget."""


class InsufficientSignalError(NoSignalError):
    """Raised when a trace has too little signal to fit."""


@dataclass(frozen=True)
class RiseFallFit:
    t_rise_ns: float
    t_fall_ns: float
    amplitude: float
    t0_ns: float
    residual: float  # sum of squared residuals
    covariance: np.ndarray  # order (amplitude, t0, t_rise, t_fall)


def _rise_fall_model(t, amplitude, t0, t_rise, t_fall):
    dt = np.maximum(t - t0, 0.0)
    return amplitude * (np.exp(-dt / t_fall) - np.exp(-dt / t_rise))


def fit_rise_fall(transient: Transient) -> RiseFallFit:
    """Least-squares fit of a rising/falling difference of exponentials.

    Multistart from three heuristic initializations (tail slope, narrow rise,
    broad rise); converged when the relative parameter change drops below
    1e-8.  Time constants are returned with t_fall >= t_rise.
    """
    t = transient.time_ns
    y = transient.intensity
    peak = float(np.max(y)) if y.size else 0.0
    if peak <= 0:
        raise InsufficientSignalError("trace has no signal")
    if int(np.sum(y > 0.02 * peak)) < 10:
        raise InsufficientSignalError("fewer than 10 bins above the noise floor")

    i_peak = int(np.argmax(y))
    t_peak = t[i_peak]
    # tail slope estimate for the fall constant
    tail = (y > 1e-3 * peak) & (t > t_peak)
    if np.sum(tail) >= 3:
        coeff = np.polyfit(t[tail], np.log(y[tail]), 1)
        t_fall0 = -1.0 / coeff[0] if coeff[0] < 0 else (t[-1] - t_peak)
    else:
        t_fall0 = max((t[-1] - t_peak) / 3.0, 1e-3)
    t_fall0 = max(t_fall0, 1e-3)
    # onset estimate for t0, width estimate for the rise constant
    rising = np.nonzero(y >= 0.1 * peak)[0]
    t_on = t[rising[0]] if rising.size else t[0]
    t_rise0 = max(t_peak - t_on, (t[1] - t[0]) if t.size > 1 else 1e-3, 1e-3)

    starts = [
        (peak, t_on, t_rise0, t_fall0),
        (peak, t_on, max(t_rise0 / 5.0, 1e-4), t_fall0),
        (peak, t_on, 0.5 * t_fall0, 1.5 * t_fall0),
    ]
    lo = [0.0, t[0] - (t[-1] - t[0]), 1e-6, 1e-6]
    hi = [np.inf, t[-1], np.inf, np.inf]

    best = None
    for x0 in starts:
        x0 = np.clip(x0, lo, hi)
        try:
            res = least_squares(
                lambda p: _rise_fall_model(t, *p) - y, x0,
                bounds=(lo, hi), xtol=1e-8, ftol=1e-12, gtol=1e-12,
                max_nfev=2000)
        except Exception:
            continue
        if not res.success:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise FitConvergenceError("rise/fall fit did not converge from any start")

    amplitude, t0, t_rise, t_fall = best.x
    if t_rise > t_fall:
        t_rise, t_fall = t_fall, t_rise
        amplitude = -amplitude
    dof = max(t.size - 4, 1)
    ssr = float(2.0 * best.cost)
    jtj = best.jac.T @ best.jac
    try:
        cov = np.linalg.inv(jtj) * (ssr / dof)
    except np.linalg.LinAlgError:
        cov = np.full((4, 4), np.nan)
    return RiseFallFit(float(t_rise), float(t_fall), float(amplitude),
                       float(t0), ssr, cov)


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    stderr: float
    intercept: float


def powerlaw_exponent(x_values, y_values) -> PowerLawFit:
    """Least-squares slope in log-log coordinates, with its standard error."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(x.size - 2, 1)
    var = float(resid @ resid) / dof
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    return PowerLawFit(float(slope), math.sqrt(var / sxx), float(intercept))


# ---------------------------------------------------------------------------
# Onset-delay curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayCurve:
    g_values: np.ndarray
    onset_ns: np.ndarray      # shape (len(g), num_levels)
    mean_time_ns: np.ndarray  # shape (len(g), num_levels)


def pumped_traces(model: CascadeModel, g_values, time_ns, levels=None,
                  overflow: str = "fold"):
    """Expected PL intensity of transitions under Poisson pulse loading
    (`initial_loading`): yields (g, weights, level, Transient) for each g in
    turn and, within it, each of `levels` (default: all, ascending), where
    `weights` is g's loading distribution.

    A pumped trace is the sum over loaded levels k of w_k(g) * E_k(t),
    where E_k is the closed-form emission rate of the chain started at k.
    E_k does not depend on g, so it is built once for the grid; each trace
    then adds the terms in ascending k, as one solution per (g, level, k)
    would, so the result is the same to the last bit.
    """
    t = np.asarray(time_ns, dtype=float)
    nlev = model.num_levels
    levels = range(1, nlev + 1) if levels is None else levels
    basis = {}  # (k, level) -> E_k of transition `level` on the grid
    for k in range(min(levels), nlev + 1):
        solution = solve_cascade_analytic(model, k)
        for level in levels:
            if level <= k:
                basis[k, level] = solution.emission_rate(level, t)
    for g in g_values:
        weights = initial_loading(g, nlev, overflow=overflow)
        for level in levels:
            y = np.zeros_like(t)
            for k in range(level, nlev + 1):
                if weights[k] > 0:
                    y += weights[k] * basis[k, level]
            yield g, weights, level, Transient(t, y)


def expected_emission_trace(model: CascadeModel, g: float, level: int,
                            time_ns, overflow: str = "fold") -> Transient:
    """Expected PL intensity of one transition under Poisson pulse loading:
    the one-trace case of `pumped_traces`."""
    return next(pumped_traces(model, [g], time_ns, [level], overflow))[3]


def _mean_emission_time(model: CascadeModel, g: float, level: int,
                        weights: np.ndarray) -> float:
    """Mean arrival time of the transition's photon, averaged over loading
    levels that fire it: each loaded level k adds the waits of steps k..level."""
    lifetimes = model.lifetimes_ns
    num = 0.0
    den = 0.0
    for k in range(level, model.num_levels + 1):
        if weights[k] > 0:
            num += weights[k] * sum(lifetimes[level - 1:k])
            den += weights[k]
    if den == 0:
        raise NoSignalError(f"transition {level} never fires at g = {g}")
    return num / den


def onset_delay_curve(model: CascadeModel, g_values,
                      threshold_fraction: float = 0.1,
                      time_ns=None) -> DelayCurve:
    """Onset time and mean emission time of every transition versus pump."""
    g_arr = np.asarray(list(g_values), dtype=float)
    if g_arr.size == 0 or np.any(g_arr <= 0) or np.any(np.diff(g_arr) <= 0):
        raise ValueError("g values must be positive and strictly ascending")
    if time_ns is None:
        span = 8.0 * sum(model.lifetimes_ns)
        step = min(model.lifetimes_ns) / 50.0
        time_ns = np.arange(0.0, span, step)
    delays = np.array([(onset_time(trace, threshold_fraction),
                        _mean_emission_time(model, g, level, weights))
                       for g, weights, level, trace in pumped_traces(
                           model, g_arr, time_ns)])
    delays = delays.reshape(g_arr.size, model.num_levels, 2)
    return DelayCurve(g_arr, delays[..., 0], delays[..., 1])


# ---------------------------------------------------------------------------
# Pulsed second-order correlation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class G2Histogram:
    delay_ns: np.ndarray  # bin centers, symmetric about zero
    counts: np.ndarray
    zero_peak_ratio: float | None
    peak_areas: dict  # peak index m -> coincidences in [mT - T/2, mT + T/2)


def g2_histogram(times_or_records, max_delay_ns: float, bin_ns: float,
                 pulse_period_ns: float) -> G2Histogram:
    """All-pairs coincidence histogram and the pulsed zero-peak ratio.

    Photon i of the sorted stream pairs with every later photon j for which
    `times[j] <= times[i] + max_delay_ns`.  The pairs are walked lag by lag
    (j = i + k for k = 1, 2, ...), the direct time-tag correlation of
    Laurence, Fore & Huser, Opt. Lett. 31, 829 (2006), so no array of all
    pairs is built and memory is O(photons + bins).  The walk stops at the
    first lag with no pair: on a sorted stream no longer lag has one.
    Pairs are binned at +delay and mirrored to -delay, so the histogram is
    exactly symmetric.  The zero-peak ratio is the area within half a period
    of zero delay divided by the mean side-peak area; a ratio below 0.5
    certifies single-photon emission, and a homogeneous (Poisson) stream
    gives 1.  Fewer than two photons yield an empty histogram, not an error.
    Takes photon times; pass `photons["time_ns"]` (masked to one transition
    if wanted) for a photon stream.  Raises ValueError for a non-finite
    time.  `perfbench/spans.py` reads the first argument by its name.
    """
    if bin_ns <= 0 or max_delay_ns <= 0 or pulse_period_ns <= 0:
        raise ValueError("bin, max delay and period must be > 0")
    times = np.sort(np.asarray(times_or_records, dtype=float))
    if not np.isfinite(times).all():
        raise ValueError("photon times must be finite")

    nbins = max(int(round(max_delay_ns / bin_ns)), 1)
    edges = np.arange(-nbins, nbins + 1) * bin_ns
    centers = 0.5 * (edges[:-1] + edges[1:])

    if times.size < 2:
        return G2Histogram(centers, np.zeros(centers.size), None, {})

    reach = times + max_delay_ns  # latest partner time of each photon
    pos_edges = np.arange(0, nbins + 1) * bin_ns
    half = pulse_period_ns / 2.0
    # peak 0 holds delays below T/2, peak m >= 1 those in [mT - T/2, mT + T/2)
    peaks = [(-np.inf, half)]
    while len(peaks) * pulse_period_ns + half <= max_delay_ns:
        m = len(peaks)
        peaks.append((m * pulse_period_ns - half, m * pulse_period_ns + half))

    # lag k pairs photon i with photon i + k, if i reaches that far
    pos_counts = np.zeros(nbins, dtype=np.int64)
    peak_pairs = [0] * len(peaks)
    for k in range(1, times.size):
        paired = times[k:] <= reach[:-k]
        if not paired.any():
            break
        deltas = (times[k:] - times[:-k])[paired]
        pos_counts += np.histogram(deltas, bins=pos_edges)[0]
        for m, (lo_edge, hi_edge) in enumerate(peaks):
            peak_pairs[m] += int(np.count_nonzero((deltas >= lo_edge)
                                                  & (deltas < hi_edge)))
    counts = np.concatenate((pos_counts[::-1], pos_counts)).astype(float)

    zero_area = 2.0 * float(peak_pairs[0])  # both signs of delay
    side = [float(n) for n in peak_pairs[1:]]
    peak_areas = dict(enumerate([zero_area] + side))
    ratio = None
    if side and np.mean(side) > 0:
        ratio = zero_area / float(np.mean(side))
    return G2Histogram(centers, counts, ratio, peak_areas)
