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

from .cascade import (CascadeModel, NoSignalError, Transient, initial_loading,
                      solve_cascade_analytic)
from .rng import _map_blocks

# g2_histogram walks the pairs G2_CHUNK photons at a time and bins at most
# about G2_CHUNK * G2_LAGS delays at once per thread, which bounds its
# temporaries; the block size does not show in the histogram.
G2_CHUNK = 1 << 14
G2_LAGS = 8
# onset_delay_curve builds the traces of about _ONSET_BLOCK grid points at
# once, which bounds its temporaries on a dense pump grid.  On the
# benchmark's 400 pumps it took 0.016-0.020 s at 128 KB per array, against
# 0.020-0.028 s at 256 KB and 0.017-0.021 s with all rows (5.4 MB) at once
# (medians of 15 calls in each of four fresh processes, 2-vCPU Xeon).
_ONSET_BLOCK = 1 << 14


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


def _rise_fall_basis(t, t0, t_rise, t_fall):
    """The unit-amplitude model exp(-dt/t_fall) - exp(-dt/t_rise) on t and
    its derivatives in (t0, t_rise, t_fall), one column each."""
    dt = np.maximum(t - t0, 0.0)
    e_fall = np.exp(-dt / t_fall)
    e_rise = np.exp(-dt / t_rise)
    d_t0 = np.where(t > t0, e_fall / t_fall - e_rise / t_rise, 0.0)
    return e_fall - e_rise, np.stack(
        (d_t0, -e_rise * dt / t_rise ** 2, e_fall * dt / t_fall ** 2), axis=1)


def _projected_residual(t, y, theta):
    """Variable projection (Golub & Pereyra 1973): the best amplitude >= 0
    for theta = (t0, t_rise, t_fall), the residual it leaves, and Kaufman's
    Jacobian of that residual in theta."""
    phi, d_phi = _rise_fall_basis(t, *theta)
    norm = phi @ phi
    if not norm > 0:
        return 0.0, y, np.zeros((t.size, 3))
    amplitude = max(float(phi @ y) / norm, 0.0)
    jac = -amplitude * (d_phi - np.outer(phi, phi @ d_phi) / norm)
    return amplitude, y - amplitude * phi, jac


def _fit_projected(t, y, theta, lo, hi, xtol=1e-8, max_steps=2000):
    """Bounded Levenberg-Marquardt (Marquardt's diagonal scaling) on the
    projected residual from theta.  A parameter at a bound that the gradient
    pushes outward is held there for the step.  Returns (theta, amplitude,
    sum of squared residuals), or None when no step of relative size below
    xtol is reached within max_steps trials."""
    amplitude, r, jac = _projected_residual(t, y, theta)
    ssr = float(r @ r)
    damping = 1e-3
    for _ in range(max_steps):
        grad = jac.T @ r
        free = ~(((theta <= lo) & (grad > 0)) | ((theta >= hi) & (grad < 0)))
        jtj = (jac.T @ jac)[np.ix_(free, free)]
        scale = np.maximum(np.diag(jtj), 1e-300)
        step = np.zeros(3)
        try:
            step[free] = np.linalg.solve(jtj + damping * np.diag(scale),
                                         -grad[free])
        except np.linalg.LinAlgError:
            return None
        trial = np.clip(theta + step, lo, hi)
        if np.linalg.norm(trial - theta) <= xtol * (xtol + np.linalg.norm(theta)):
            return theta, amplitude, ssr
        trial_fit = _projected_residual(t, y, trial)
        trial_ssr = float(trial_fit[1] @ trial_fit[1])
        if trial_ssr < ssr:
            theta, ssr = trial, trial_ssr
            amplitude, r, jac = trial_fit
            damping *= 0.3
        else:
            damping *= 4.0
    return None


def fit_rise_fall(transient: Transient) -> RiseFallFit:
    """Least-squares fit of a rising/falling difference of exponentials.

    The amplitude enters linearly, so it is projected out and (t0, t_rise,
    t_fall) are fitted by bounded Levenberg-Marquardt, multistart from three
    heuristic initializations (tail slope, narrow rise, broad rise);
    converged when the relative parameter change drops below 1e-8.  The
    covariance comes from the Jacobian in all four parameters.  Time
    constants are returned with t_fall >= t_rise.
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

    # (t0, t_rise, t_fall); the amplitude is projected out
    starts = [
        (t_on, t_rise0, t_fall0),
        (t_on, max(t_rise0 / 5.0, 1e-4), t_fall0),
        (t_on, 0.5 * t_fall0, 1.5 * t_fall0),
    ]
    lo = np.array([t[0] - (t[-1] - t[0]), 1e-6, 1e-6])
    hi = np.array([t[-1], np.inf, np.inf])

    best = None
    for x0 in starts:
        fit = _fit_projected(t, y, np.clip(x0, lo, hi), lo, hi)
        if fit is not None and (best is None or fit[2] < best[2]):
            best = fit
    if best is None:
        raise FitConvergenceError("rise/fall fit did not converge from any start")

    (t0, t_rise, t_fall), amplitude, ssr = best
    if t_rise > t_fall:
        t_rise, t_fall = t_fall, t_rise
        amplitude = -amplitude
    phi, d_phi = _rise_fall_basis(t, t0, t_rise, t_fall)
    jac = np.column_stack((phi, amplitude * d_phi))
    dof = max(t.size - 4, 1)
    try:
        cov = np.linalg.inv(jac.T @ jac) * (ssr / dof)
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


def _emission_basis(model: CascadeModel, levels, t: np.ndarray) -> dict:
    """{level: {k: E_k}}: the closed-form emission rate of transition
    `level` on `t` of the chain started at each k >= level, ascending."""
    basis = {level: {} for level in levels}
    for k in range(min(levels), model.num_levels + 1):
        solution = solve_cascade_analytic(model, k)
        for level in levels:
            if level <= k:
                basis[level][k] = solution.emission_rate(level, t)
    return basis


def _pumped(weights: np.ndarray, rates: dict) -> np.ndarray:
    """One pumped trace per row of loading weights: the sum of
    weights[:, k] * E_k over `rates` ({k: E_k}) in ascending k.  A zero
    weight adds a zero to a sum that starts at +0.0, so each row equals
    the sum over its loaded k alone, bit for bit."""
    y = np.zeros((weights.shape[0], next(iter(rates.values())).size))
    for k, rate in rates.items():
        y += weights[:, k, None] * rate
    return y


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
    basis = _emission_basis(model, levels, t)
    for g in g_values:
        weights = initial_loading(g, nlev, overflow=overflow)
        for level in levels:
            yield g, weights, level, Transient(
                t, _pumped(weights[None], basis[level])[0])


def expected_emission_trace(model: CascadeModel, g: float, level: int,
                            time_ns, overflow: str = "fold") -> Transient:
    """Expected PL intensity of one transition under Poisson pulse loading:
    the one-trace case of `pumped_traces`."""
    return next(pumped_traces(model, [g], time_ns, [level], overflow))[3]


def onset_delay_curve(model: CascadeModel, g_values,
                      threshold_fraction: float = 0.1) -> DelayCurve:
    """Onset time and mean emission time of every transition versus pump.

    Onsets are read, bit for bit as `onset_time` reads one trace, off the
    pumped traces sampled every min(lifetime) / 50 over 8 * sum(lifetimes);
    each transition's traces are built as one array per block of pump
    values.  The mean emission time averages the waits of steps k..level
    over the loaded levels k.  Raises ValueError for g values not positive
    and strictly ascending, a threshold fraction outside (0, 1) or a trace
    not finite, and `NoSignalError` naming g and a transition that emits
    nothing there.
    """
    g_arr = np.asarray(list(g_values), dtype=float)
    if g_arr.size == 0 or np.any(g_arr <= 0) or np.any(np.diff(g_arr) <= 0):
        raise ValueError("g values must be positive and strictly ascending")
    if not 0 < threshold_fraction < 1:
        raise ValueError("threshold fraction must be in (0, 1)")
    lifetimes = model.lifetimes_ns
    nlev = model.num_levels
    t = np.arange(0.0, 8.0 * sum(lifetimes), min(lifetimes) / 50.0)
    basis = _emission_basis(model, range(1, nlev + 1), t)
    onset = np.empty((g_arr.size, nlev))
    mean = np.empty((g_arr.size, nlev))
    step = max(_ONSET_BLOCK // t.size, 1)
    for a in range(0, g_arr.size, step):
        weights = np.array([initial_loading(g, nlev)
                            for g in g_arr[a:a + step]])
        for level in range(1, nlev + 1):
            y = _pumped(weights, basis[level])
            if not np.isfinite(y).all():
                raise ValueError("intensity must be finite")
            peak = y.max(axis=1)
            num = np.zeros(len(y))
            den = np.zeros(len(y))
            for k in basis[level]:
                num += weights[:, k] * sum(lifetimes[level - 1:k])
                den += weights[:, k]
            silent = np.flatnonzero((peak <= 0) | (den == 0))
            if silent.size:
                raise NoSignalError(
                    f"transition {model.labels[level - 1]} emits nothing at "
                    f"g = {g_arr[a + silent[0]]}")
            thr = threshold_fraction * peak
            idx = np.argmax(y >= thr[:, None], axis=1)
            rows = np.flatnonzero(idx > 0)
            i = idx[rows]
            y0, y1 = y[rows, i - 1], y[rows, i]
            t0, t1 = t[i - 1], t[i]
            onset[a:a + step, level - 1] = t[0]
            onset[a + rows, level - 1] = \
                t0 + (thr[rows] - y0) * (t1 - t0) / (y1 - y0)
            mean[a:a + step, level - 1] = num / den
    return DelayCurve(g_arr, onset, mean)


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
                 pulse_period_ns: float, threads: int = 1) -> G2Histogram:
    """All-pairs coincidence histogram and the pulsed zero-peak ratio.

    Photon i of the sorted stream pairs with every later photon j for which
    `times[j] <= times[i] + max_delay_ns`, at delay `times[j] - times[i]`:
    the direct time-tag correlation of Laurence, Fore & Huser, Opt. Lett.
    31, 829 (2006).  The fine bins and the peaks share one set of cells, the
    sorted union of the bin edges, the finite peak edges, the value just
    above the last bin edge (so the last bin's closed right end is a cell of
    its own) and +inf.  Each pair is counted once, into its cell; the fine
    counts and the peak areas are differences of one cumulative sum over the
    cells.  The pairs are walked G2_CHUNK photons at a time: lag k pairs
    photon i of the block with photon i + k, and the block stops at its
    first lag with no pair, since on a sorted stream no longer lag has one.
    A block's delays are binned once it ends, or sooner once they number
    G2_CHUNK * G2_LAGS, so the temporaries stay bounded however dense the
    stream and no array of all pairs is built.  Each block returns its own
    integer cell counts and the blocks run on `threads` worker threads
    (`rng._map_blocks`; at threads=1 in the calling thread, in order); their
    sum does not depend on order, so the result is the same at any thread
    count.  Memory is O(photons + cells + threads * G2_CHUNK * G2_LAGS).
    Pairs are binned at +delay and mirrored to -delay, so the histogram is
    exactly symmetric.  The zero-peak ratio is the area within half a period
    of zero delay divided by the mean side-peak area; a ratio below 0.5
    certifies single-photon emission, and a homogeneous (Poisson) stream
    gives 1.  Fewer than two photons yield an empty histogram, not an error.
    Takes photon times in any order: times already in non-decreasing order
    are read in place, others are sorted into a copy.  Pass
    `photons["time_ns"]` (masked to one transition if wanted) for a photon
    stream.  Raises ValueError for a non-finite time, a bin, max delay or
    period that is not finite and > 0, or `threads` that is not an int
    >= 1.  `perfbench/spans.py` reads the first argument by its name.
    """
    if not all(0 < v < math.inf
               for v in (bin_ns, max_delay_ns, pulse_period_ns)):
        raise ValueError("bin, max delay and period must be finite and > 0")
    if type(threads) is not int or threads < 1:
        raise ValueError(f"threads must be an int >= 1, got {threads!r}")
    # the g2 preset passes increasing times, which are used as given: a
    # stable sort would return the same values in a copy.  NaN fails the
    # order check and is sorted to the end, where the finite check meets it.
    times = np.asarray(times_or_records, dtype=float)
    if not (times[1:] >= times[:-1]).all():
        times = np.sort(times, kind="stable")
    if not np.isfinite(times).all():
        raise ValueError("photon times must be finite")

    nbins = max(int(round(max_delay_ns / bin_ns)), 1)
    edges = np.arange(-nbins, nbins + 1) * bin_ns
    centers = 0.5 * (edges[:-1] + edges[1:])

    if times.size < 2:
        return G2Histogram(centers, np.zeros(centers.size), None, {})

    pos_edges = np.arange(0, nbins + 1) * bin_ns
    half = pulse_period_ns / 2.0
    # peak 0 holds delays below T/2, peak m >= 1 those in [mT - T/2, mT + T/2)
    peaks = [(-np.inf, half)]
    while len(peaks) * pulse_period_ns + half <= max_delay_ns:
        m = len(peaks)
        peaks.append((m * pulse_period_ns - half, m * pulse_period_ns + half))
    # every peak edge but peak 0's -inf: delays are >= 0, so the first cell
    # starts at the first bin edge, 0
    last_end = np.nextafter(pos_edges[-1], np.inf)
    cells = np.unique(np.concatenate(
        (pos_edges, np.ravel(peaks)[1:], [last_end, np.inf])))

    n = times.size

    def block_counts(c: int) -> np.ndarray:
        a = c * G2_CHUNK
        b = min(a + G2_CHUNK, n - 1)  # the last photon has no later partner
        reach = times[a:b] + max_delay_ns  # latest partner time of each photon
        counts = np.zeros(cells.size - 1, dtype=np.int64)
        pending, size = [], 0
        for k in range(1, n - a):
            stop = min(b, n - k)
            paired = times[a + k:stop + k] <= reach[:stop - a]
            if not paired.any():
                break
            pending.append((times[a + k:stop + k] - times[a:stop])[paired])
            size += pending[-1].size
            if size >= G2_CHUNK * G2_LAGS:
                counts += np.histogram(np.concatenate(pending), cells)[0]
                pending, size = [], 0
        if pending:
            counts += np.histogram(np.concatenate(pending), cells)[0]
        return counts

    cell_counts = np.sum(_map_blocks(block_counts, -(-(n - 1) // G2_CHUNK),
                                     threads), axis=0)

    # pairs below each cell edge
    below = np.concatenate(([0], np.cumsum(cell_counts)))
    lo = np.searchsorted(cells, pos_edges[:-1])
    hi = np.searchsorted(cells, np.append(pos_edges[1:-1], last_end))
    pos_counts = below[hi] - below[lo]
    counts = np.concatenate((pos_counts[::-1], pos_counts)).astype(float)

    # peak 0's lower edge, -inf, sorts before every cell
    below_peak = below[np.searchsorted(cells, peaks)]
    peak_pairs = below_peak[:, 1] - below_peak[:, 0]
    zero_area = 2.0 * float(peak_pairs[0])  # both signs of delay
    side = [float(count) for count in peak_pairs[1:]]
    peak_areas = dict(enumerate([zero_area] + side))
    ratio = None
    if side and np.mean(side) > 0:
        ratio = zero_area / float(np.mean(side))
    return G2Histogram(centers, counts, ratio, peak_areas)
