import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawsps import analysis
from sawsps.analysis import (InsufficientSignalError, expected_emission_trace,
                             fit_rise_fall, g2_histogram, onset_delay_curve,
                             powerlaw_exponent, pumped_traces)
from sawsps.cascade import (CascadeModel, NoSignalError, Transient,
                           initial_loading, onset_time, poisson_tail,
                           solve_cascade_analytic)
from sawsps.emitter import PHOTON_DTYPE
from sawsps.rng import substream
from sawsps.transport import SawWave, per_cycle_emission_times

from oracles import per_trace_delay_curve

MODEL = CascadeModel((1.5, 1.4, 0.9))
# The benchmark's pump grid (perfbench/workloads.py DENSE_G), recomputed here.
DENSE_G = [round(float(g), 6) for g in np.geomspace(0.05, 20.0, 400)]


def difference_trace(t_rise, t_fall, t=None, amplitude=1.0, t0=0.0):
    if t is None:
        t = np.arange(0.0, 12.0, 0.02)
    dt = np.maximum(t - t0, 0.0)
    return Transient(t, amplitude * (np.exp(-dt / t_fall) - np.exp(-dt / t_rise)))


class TestRiseFallFit:
    def test_recovers_generator(self):
        fit = fit_rise_fall(difference_trace(0.9, 1.4))
        assert fit.t_rise_ns == pytest.approx(0.9, rel=0.01)
        assert fit.t_fall_ns == pytest.approx(1.4, rel=0.01)
        assert fit.t_fall_ns >= fit.t_rise_ns

    def test_recovers_time_offset(self):
        fit = fit_rise_fall(difference_trace(0.5, 2.0, t0=1.3))
        assert fit.t0_ns == pytest.approx(1.3, abs=0.02)
        assert fit.t_rise_ns == pytest.approx(0.5, rel=0.01)

    def test_cascade_2x_rise_equals_top_lifetime(self):
        sol = solve_cascade_analytic(MODEL, 3)
        t = np.arange(0.0, 12.0, 0.02)
        fit = fit_rise_fall(Transient(t, sol.emission_rate(2, t)))
        assert fit.t_rise_ns == pytest.approx(0.9, rel=0.05)
        assert fit.t_fall_ns == pytest.approx(1.4, rel=0.05)

    def test_noisy_fit_within_covariance(self):
        rng = substream(100, 0)
        t = np.arange(0.0, 12.0, 0.05)
        clean = 2000.0 * (np.exp(-t / 1.4) - np.exp(-t / 0.9))
        noisy = rng.poisson(np.maximum(clean, 0.0)).astype(float)
        fit = fit_rise_fall(Transient(t, noisy))
        sd_rise = np.sqrt(fit.covariance[2, 2])
        sd_fall = np.sqrt(fit.covariance[3, 3])
        assert abs(fit.t_rise_ns - 0.9) < 4 * sd_rise
        assert abs(fit.t_fall_ns - 1.4) < 4 * sd_fall

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_least_squares_oracle(self, seed):
        # scipy is a test-only dependency: its bounded least_squares on all
        # four parameters finds the same minimum as the projected fit
        from scipy.optimize import least_squares
        rng = substream(500 + seed, 0)
        t_rise, t_fall = sorted(rng.uniform(0.2, 3.0, 2))
        t = np.arange(0.0, 15.0, 0.05)
        clean = np.exp(-t / t_fall) - np.exp(-t / t_rise)
        noisy = rng.poisson(3000.0 * clean / clean.max()).astype(float)
        fit = fit_rise_fall(Transient(t, noisy))

        def residual(p):
            return difference_trace(p[2], p[3], t, p[0], p[1]).intensity - noisy

        # started from the generator, not from the projected fit
        lo, hi = [0, -15, 1e-6, 1e-6], [np.inf, t[-1], np.inf, np.inf]
        ref = least_squares(residual, (3000.0 / clean.max(), 0.0, t_rise, t_fall),
                            bounds=(lo, hi), xtol=1e-12, ftol=1e-15, gtol=1e-15)
        assert fit.residual == pytest.approx(2 * ref.cost, rel=1e-9)
        assert np.allclose((fit.amplitude, fit.t0_ns, fit.t_rise_ns, fit.t_fall_ns),
                           ref.x, rtol=1e-5, atol=1e-7)
        cov = np.linalg.inv(ref.jac.T @ ref.jac) * 2 * ref.cost / (t.size - 4)
        assert np.allclose(fit.covariance, cov, rtol=1e-3)

    def test_all_zero_rejected(self):
        t = np.arange(0.0, 5.0, 0.05)
        with pytest.raises(InsufficientSignalError):
            fit_rise_fall(Transient(t, np.zeros_like(t)))

    def test_too_few_bins_rejected(self):
        t = np.arange(0.0, 5.0, 1.0)
        y = np.zeros_like(t)
        y[2] = 1.0
        with pytest.raises(InsufficientSignalError):
            fit_rise_fall(Transient(t, y))


class TestPowerLaw:
    def test_linear(self):
        fit = powerlaw_exponent([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_quadratic(self):
        fit = powerlaw_exponent([1.0, 2.0, 4.0], [3.0, 12.0, 48.0])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            powerlaw_exponent([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            powerlaw_exponent([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])

    def test_mc_quadratic_slope(self):
        rng = substream(101, 0)
        gs = [0.01, 0.02, 0.05, 0.1]
        rates = []
        for g in gs:
            levels = np.minimum(rng.poisson(g, 10 ** 6), 3)
            rates.append(np.mean(levels >= 2))
        fit = powerlaw_exponent(gs, rates)
        assert fit.slope == pytest.approx(2.0, abs=0.1)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0).filter(lambda k: abs(k) > 1e-3),
       st.floats(0.1, 10.0))
def test_powerlaw_recovers_any_exponent(k, scale):
    x = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    fit = powerlaw_exponent(x, scale * x ** k)
    assert fit.slope == pytest.approx(k, abs=1e-9)


class TestOnsetDelayCurve:
    def test_low_pump_limit(self):
        curve = onset_delay_curve(MODEL, [1e-4, 1e-3])
        # direct loading into each level dominates: onsets stay at zero
        assert np.all(curve.onset_ns[0] < 0.05)

    def test_onset_monotone_in_pump(self):
        curve = onset_delay_curve(MODEL, [0.05, 0.2, 0.7, 1.9, 5.0, 20.0])
        one_x = curve.onset_ns[:, 0]
        assert np.all(np.diff(one_x) >= -1e-9)
        two_x = curve.onset_ns[:, 1]
        assert np.all(np.diff(two_x) >= -1e-9)

    def test_saturating_mean_delays(self):
        means = onset_delay_curve(MODEL, [200.0]).mean_time_ns[0]
        assert means[0] == pytest.approx(3.8, rel=1e-6)
        assert means[1] == pytest.approx(2.3, rel=1e-6)

    def test_ascending_g_required(self):
        with pytest.raises(ValueError):
            onset_delay_curve(MODEL, [0.5, 0.1])

    @pytest.mark.parametrize("threshold", [0.0, 1.0, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            onset_delay_curve(MODEL, [1.0], threshold_fraction=threshold)

    def test_dark_transition_names_g_and_transition(self):
        # at 1e-300 the 2X and 3X loading weights underflow to 0
        with pytest.raises(NoSignalError, match="2X emits nothing at "
                                                r"g = 1e-300"):
            onset_delay_curve(MODEL, [1e-300, 1.0])

    @pytest.mark.parametrize("lifetimes", [(1.5, 1.4, 0.9),
                                           (1.0, 1.0 + 1e-10, 1.0 - 1e-9)])
    def test_mean_delay_matches_closed_form(self, lifetimes):
        # the loading-weighted sum of waits equals the Poisson-weighted mean
        # of the exact Bateman photon-arrival means
        model = CascadeModel(lifetimes)
        nlev = model.num_levels
        g_values = np.geomspace(0.01, 50.0, 40)
        curve = onset_delay_curve(model, g_values)
        for i, g in enumerate(g_values):
            weights = initial_loading(g, nlev)
            for level in range(1, nlev + 1):
                ks = range(level, nlev + 1)
                closed = sum(weights[k] * solve_cascade_analytic(model, k)
                             .mean_emission_time(level) for k in ks) \
                    / sum(weights[k] for k in ks)
                assert curve.mean_time_ns[i, level - 1] \
                    == pytest.approx(closed, rel=1e-8)


def term_by_term_trace(model, g, level, t, overflow="fold"):
    """Reference pumped trace: one closed-form solution per (g, level, k),
    summed in ascending k."""
    weights = initial_loading(g, model.num_levels, overflow=overflow)
    y = np.zeros_like(t)
    for k in range(level, model.num_levels + 1):
        if weights[k] > 0:
            y += weights[k] * solve_cascade_analytic(model, k).emission_rate(level, t)
    return y


# the benchmark's dense pump grid, plus weak pumps; at 1e-200 and 800 some
# loading weights underflow to 0 and their terms drop out
BASIS_G = [*np.geomspace(1e-12, 1e-3, 10), *np.geomspace(0.05, 20.0, 400)]
UNDERFLOW_G = [1e-200, 800.0]


class TestPumpedTraceBasis:
    """The shared basis of `pumped_traces` gives every trace to the last
    bit of the term-by-term sum."""

    LIFETIMES = [(1.5, 1.4, 0.9), (1.5, 1.5000001, 0.9)]

    @pytest.mark.parametrize("overflow", ["fold", "drop"])
    @pytest.mark.parametrize("lifetimes", LIFETIMES)
    def test_expected_emission_trace(self, lifetimes, overflow):
        model = CascadeModel(lifetimes)
        t = np.arange(0.0, 12.0, 0.02)
        for g in BASIS_G + UNDERFLOW_G:
            for level in range(1, model.num_levels + 1):
                trace = expected_emission_trace(model, g, level, t,
                                                overflow=overflow)
                assert trace.intensity.tobytes() == term_by_term_trace(
                    model, g, level, t, overflow).tobytes(), (g, level)

    @pytest.mark.parametrize("overflow", ["fold", "drop"])
    @pytest.mark.parametrize("lifetimes", LIFETIMES)
    def test_all_traces_at_once(self, lifetimes, overflow):
        model = CascadeModel(lifetimes)
        t = np.arange(0.0, 12.0, 0.02)
        seen = [(g, level) for g in BASIS_G + UNDERFLOW_G
                for level in range(1, model.num_levels + 1)]
        traces = list(pumped_traces(model, BASIS_G + UNDERFLOW_G, t,
                                    overflow=overflow))
        assert [(g, level) for g, _, level, _ in traces] == seen
        for g, weights, level, trace in traces:
            assert weights.tobytes() == initial_loading(
                g, model.num_levels, overflow=overflow).tobytes(), g
            assert trace.intensity.tobytes() == term_by_term_trace(
                model, g, level, t, overflow).tobytes(), (g, level)

    @pytest.mark.parametrize("lifetimes", LIFETIMES)
    def test_onset_delay_curve(self, lifetimes):
        model = CascadeModel(lifetimes)
        curve = onset_delay_curve(model, BASIS_G)
        t = np.arange(0.0, 8.0 * sum(model.lifetimes_ns),
                      min(model.lifetimes_ns) / 50.0)
        for i, g in enumerate(BASIS_G):
            for level in range(1, model.num_levels + 1):
                trace = Transient(t, term_by_term_trace(model, g, level, t))
                assert curve.onset_ns[i, level - 1] == onset_time(trace, 0.1)

    @pytest.mark.parametrize("threshold", [0.05, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("lifetimes", LIFETIMES)
    def test_onset_delay_curve_matches_per_trace_oracle(self, lifetimes,
                                                         threshold,
                                                         monkeypatch):
        # at 1e-6 every 1X trace peaks at its first sample, which is then
        # its onset; the dense grid's onsets are interpolated, and at 800
        # the weights of 1 and 2 excitons underflow to 0 while the other
        # pumps' do not.  The pump block size does not show: one pump, the
        # default, all at once.
        model = CascadeModel(lifetimes)
        g_values = [1e-6, *DENSE_G, 800.0]
        onset, mean = per_trace_delay_curve(model, g_values, threshold)
        assert onset[0, 0] == 0.0 and (onset[:, 0] > 0).any()
        for block in (1, analysis._ONSET_BLOCK, 1 << 30):
            monkeypatch.setattr(analysis, "_ONSET_BLOCK", block)
            curve = onset_delay_curve(model, g_values,
                                      threshold_fraction=threshold)
            assert curve.onset_ns.tobytes() == onset.tobytes(), block
            assert curve.mean_time_ns.tobytes() == mean.tobytes(), block

    def test_expected_trace_superposition(self):
        t = np.arange(0.0, 10.0, 0.01)
        trace = expected_emission_trace(MODEL, 0.3, 1, t)
        assert trace.intensity[0] > 0.0  # direct 1X loading emits immediately
        total = np.trapezoid(trace.intensity, t)
        assert total == pytest.approx(poisson_tail(0.3, 1), abs=1e-3)


def all_pairs_g2(times, max_delay_ns, bin_ns, pulse_period_ns):
    """Brute-force g2 reference: every pair i < j of the sorted stream with
    times[j] <= times[i] + max_delay_ns, from an all-pairs delay matrix."""
    times = np.sort(np.asarray(times, dtype=float))
    i, j = np.triu_indices(times.size, k=1)
    in_range = times[j] <= times[i] + max_delay_ns
    deltas = times[j][in_range] - times[i][in_range]

    nbins = max(int(round(max_delay_ns / bin_ns)), 1)
    edges = np.arange(0, nbins + 1) * bin_ns
    # bin b holds [edges[b], edges[b + 1]); the last bin also holds its end
    b = np.searchsorted(edges, deltas, side="right") - 1
    b[deltas == edges[-1]] = nbins - 1
    pos = np.bincount(b[(b >= 0) & (b < nbins)], minlength=nbins)
    counts = np.concatenate((pos[::-1], pos)).astype(float)

    half = pulse_period_ns / 2.0
    peak_areas = {0: 2.0 * float(np.sum(deltas < half))}
    m = 1
    while m * pulse_period_ns + half <= max_delay_ns:
        peak_areas[m] = float(np.sum((deltas >= m * pulse_period_ns - half)
                                     & (deltas < m * pulse_period_ns + half)))
        m += 1
    side = [peak_areas[k] for k in range(1, m)]
    ratio = None
    if side and np.mean(side) > 0:
        ratio = peak_areas[0] / float(np.mean(side))
    return counts, peak_areas, ratio, deltas


def reference_g2(times, max_delay_ns, bin_ns, pulse_period_ns):
    """The lag walk: every lag k pairs photon i with photon i + k across the
    whole sorted stream, up to the first lag with no pair, with one
    histogram and one count per peak per lag.  The oracle for `g2_histogram`
    on streams too long for `all_pairs_g2`; returns counts, peak areas and
    the zero-peak ratio."""
    times = np.sort(np.asarray(times, dtype=float))
    nbins = max(int(round(max_delay_ns / bin_ns)), 1)
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
    return counts, peak_areas, ratio


def assert_same_hist(hist, counts, peak_areas, ratio):
    assert hist.counts.tobytes() == counts.tobytes()
    assert hist.peak_areas == peak_areas
    assert hist.zero_peak_ratio == ratio


def assert_matches_oracle(times, max_delay_ns, bin_ns, pulse_period_ns):
    """`g2_histogram` at 1, 2 and 3 threads equals the all-pairs oracle, and
    so the threads=1 result."""
    counts, peak_areas, ratio, deltas = all_pairs_g2(
        times, max_delay_ns, bin_ns, pulse_period_ns)
    for threads in (1, 2, 3):
        assert_same_hist(g2_histogram(times, max_delay_ns, bin_ns,
                                      pulse_period_ns, threads=threads),
                         counts, peak_areas, ratio)
    return deltas


class TestG2:
    def test_one_photon_per_period_zero_ratio(self):
        times = np.arange(2000) * 5.0
        hist = g2_histogram(times, 52.0, 0.5, 5.0)
        assert hist.zero_peak_ratio == 0.0

    def test_poisson_stream_flat(self):
        rng = substream(102, 0)
        times = np.sort(rng.uniform(0.0, 2e5, 50000))
        hist = g2_histogram(times, 52.0, 0.5, 5.0)
        assert hist.zero_peak_ratio == pytest.approx(1.0, abs=0.05)

    def test_histogram_exactly_symmetric(self):
        rng = substream(103, 0)
        times = np.sort(rng.uniform(0.0, 1e4, 3000))
        hist = g2_histogram(times, 20.0, 0.4, 5.0)
        assert np.array_equal(hist.counts, hist.counts[::-1])

    def test_too_few_photons_empty(self):
        hist = g2_histogram(np.array([1.0]), 20.0, 0.4, 5.0)
        assert hist.zero_peak_ratio is None
        assert np.all(hist.counts == 0.0)

    def test_accepts_photon_records_with_filter(self):
        recs = np.array([(t, "1X", 0, 0.0, 0.0) for t in np.arange(100) * 5.0]
                        + [(t + 0.1, "2X", 0, 0.0, 0.0)
                           for t in np.arange(100) * 5.0], dtype=PHOTON_DTYPE)
        hist = g2_histogram(recs["time_ns"][recs["transition"] == "1X"],
                            26.0, 0.5, 5.0)
        assert hist.zero_peak_ratio == 0.0

    # one photon per block, two, seven (so blocks end mid-burst) and the
    # default block of G2_CHUNK photons
    CHUNKS = (1, 2, 7, analysis.G2_CHUNK)

    def test_matches_all_pairs_oracle_on_random_streams(self, monkeypatch):
        # every block size takes streams with ties and without, at every
        # period and maximum delay; 16 to 80 photons make at least three
        # blocks of 1, 2 and 7 photons, and spans from 1 to 400 ns make
        # streams sparse and dense enough to bin in several goes a block
        rng = np.random.default_rng(105)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(analysis, "G2_CHUNK", chunk)
            for ties in (True, False):
                for period in (5.0, 5.18, 2.5):
                    for max_delay in (10.5 * period, 26.0, 7.3):
                        n = int(rng.integers(16, 81))
                        times = rng.uniform(0.0, rng.uniform(1.0, 400.0), n)
                        if ties:
                            times = np.round(times, 1)
                        bin_ns = float(rng.choice([0.1, 0.25, 0.5]))
                        assert_matches_oracle(times, max_delay, bin_ns, period)

    def test_matches_all_pairs_oracle_on_edge_cases(self, monkeypatch):
        rng = np.random.default_rng(106)
        for chunk in self.CHUNKS:
            monkeypatch.setattr(analysis, "G2_CHUNK", chunk)
            # a pair exactly at the maximum delay lands in the last bin
            deltas = assert_matches_oracle([0.5, 3.0, 26.5], 26.0, 0.5, 5.0)
            assert 26.0 in deltas
            # delays exactly on the side peaks' lower edges mT - T/2, and a
            # tie
            deltas = assert_matches_oracle([1.0, 3.5, 8.5, 9.0, 9.0, 9.1],
                                           26.0, 0.5, 5.0)
            assert 2.5 in deltas and 7.5 in deltas and 0.0 in deltas
            # a dense burst inside a sparse stream: many lags, few photons
            # each
            assert_matches_oracle(np.concatenate(
                (np.arange(80) * 37.0,
                 500.0 + np.round(rng.uniform(0, 1, 150), 1))),
                26.0, 0.5, 5.0)
            # no pair in range, and a two-photon stream
            assert_matches_oracle(np.arange(10) * 30.0, 26.0, 0.5, 5.0)
            assert_matches_oracle([4.0, 6.0], 26.0, 0.5, 5.0)

    def test_matches_lag_walk_across_blocks(self):
        # about 40k photons, three default blocks and a part.  Most sit on a
        # 0.5 ns lattice with ties, so delays land exactly on bin edges, on
        # the peak edges mT +- T/2 and on the last edge, 26 ns.  A burst of
        # 1,000 photons within 26 ns straddles the first block boundary; its
        # half a million pairs are binned in several goes.
        rng = np.random.default_rng(107)
        lattice = np.round(rng.uniform(0.0, 1.6e5, 30000) * 2.0) / 2.0
        assert np.unique(lattice).size < lattice.size
        for delta in (2.5, 7.5, 26.0):
            assert np.isin(lattice + delta, lattice).any()
        base = np.sort(np.concatenate((lattice,
                                       rng.uniform(0.0, 1.6e5, 9000))))
        burst = (base[analysis.G2_CHUNK - 300]
                 + np.round(rng.uniform(0.0, 26.0, 1000) * 2.0) / 2.0)
        times = rng.permutation(np.concatenate((base, burst)))
        assert times.size > 2 * analysis.G2_CHUNK
        for args in ((26.0, 0.5, 5.0), (10.5 * 5.18, 0.1, 5.18)):
            expected = reference_g2(times, *args)
            for threads in (1, 2, 3):
                assert_same_hist(g2_histogram(times, *args, threads=threads),
                                 *expected)

    def test_one_thread_builds_no_pool(self, monkeypatch):
        # at threads=1 the blocks run in the calling thread; the patched
        # pool is reached at threads=2, so the patch is in the helper's path
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        times = substream(109, 0).uniform(0.0, 200.0, 60)
        monkeypatch.setattr(analysis, "G2_CHUNK", 7)
        counts, peak_areas, ratio, _ = all_pairs_g2(times, 26.0, 0.5, 5.0)
        assert_same_hist(g2_histogram(times, 26.0, 0.5, 5.0), counts,
                         peak_areas, ratio)
        with pytest.raises(AssertionError, match="thread pool"):
            g2_histogram(times, 26.0, 0.5, 5.0, threads=2)

    @pytest.mark.parametrize("threads", [0, -1, 2.5, "2", None, True])
    def test_threads_must_be_a_positive_int(self, threads):
        with pytest.raises(ValueError, match="threads must be an int >= 1"):
            g2_histogram([1.0, 2.0, 7.0], 26.0, 0.5, 5.0, threads=threads)

    def test_temporaries_bounded(self):
        # about 500k photons of the g2 preset: one SAW cycle in two loads the
        # site.  A histogram pass over every lag's delays would take about
        # five times the input, and a sorted copy of the increasing times
        # one time; a second thread adds one block's delays.
        period = SawWave(193.0, 15.0).period_ns
        times = per_cycle_emission_times(1_000_000, period, 0.5, 0.5,
                                         rng=substream(108, 0))
        for threads in (1, 2):
            tracemalloc.start()
            try:
                g2_histogram(times, 10.5 * period, 0.1, period,
                             threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (1.0, 1.5)[threads - 1] * times.nbytes, threads

    def test_zero_peak_area_matches_closed_form(self):
        # criterion 7's source: loads with probability p each period T, and
        # a photon after an exponential wait of mean tau unless the next
        # load comes first.  Only consecutive loads k periods apart give a
        # delay below T/2; over the two waits this has probability
        # a^k (cosh(T / 2 tau) - 1), a = exp(-T / tau), and over the
        # geometric gap between loads, both signs of delay counted, the
        # zero-peak area is 2pN (cosh(T / 2 tau) - 1) pa / (1 - qa), q = 1 - p
        period, p, tau, cycles = SawWave(193.0, 15.0).period_ns, 0.5, 0.5, 10 ** 6
        a = math.exp(-period / tau)
        expected = (2 * p * cycles * (math.cosh(period / (2 * tau)) - 1)
                    * p * a / (1 - (1 - p) * a))
        assert expected == pytest.approx(1389.38, abs=0.01)
        times = per_cycle_emission_times(cycles, period, p, tau,
                                         substream(707, 0))
        area = g2_histogram(times, 10.5 * period, 0.1, period).peak_areas[0]
        # each pair counts at +delay and -delay, so sigma is sqrt(2 * area),
        # about 53 counts; 4 sigma, and seeds 1 to 20 stay within 1.6 sigma
        assert abs(area - expected) <= 4 * math.sqrt(2 * expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            g2_histogram([1.0, 2.0, bad], 26.0, 0.5, 5.0)

    @pytest.mark.parametrize("args", [
        (26.0, 0.5, math.nan), (26.0, 0.5, math.inf), (26.0, 0.5, 0.0),
        (26.0, math.nan, 5.0), (26.0, -0.5, 5.0), (math.nan, 0.5, 5.0),
        (math.inf, 0.5, 5.0)])
    def test_bin_delay_and_period_must_be_finite(self, args):
        # a NaN period gave a ratio of None, a NaN bin or max delay "cannot
        # convert float NaN to integer" and an infinite max delay an
        # OverflowError
        with pytest.raises(ValueError, match="finite and > 0"):
            g2_histogram([1.0, 2.0, 7.0], *args)
