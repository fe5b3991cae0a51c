import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawsps.cascade import CascadeModel, PumpSpec, solve_cascade_analytic
from sawsps.emitter import (PHOTON_DTYPE, TrajectoryConfig, ensemble_histogram,
                            read_photon_csv, sample_cascade_from_loads,
                            sample_emission_times, sample_start_levels,
                            simulate_trajectory, write_photon_csv)
from sawsps.rng import substream

MODEL = CascadeModel((1.5, 1.4, 0.9))
PUMP = PumpSpec(1.0, 50.0)


def one_x_stream(*times):
    return np.array([(t, "1X", 0, 0.0, 0.0) for t in times], dtype=PHOTON_DTYPE)


class TestPulseLoading:
    def test_zero_mean_always_zero(self):
        rng = substream(0, 0)
        assert np.all(sample_start_levels(0.0, 1000, 3, rng) == 0)

    def test_mean_and_zero_fraction(self):
        rng = substream(123, 0)
        # enough levels that the fold to the top level never acts
        draws = sample_start_levels(1.0, 10 ** 6, 100, rng)
        # 3 sigma bands: standard error of the mean and binomial error of P(0)
        assert abs(draws.mean() - 1.0) < 3.0 * np.sqrt(1.0 / 10 ** 6)
        p0 = np.mean(draws == 0)
        se = np.sqrt(np.exp(-1) * (1 - np.exp(-1)) / 10 ** 6)
        assert abs(p0 - np.exp(-1)) < 3.0 * se

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            sample_start_levels(-1.0, 1, 3, substream(0, 0))


class TestTrajectory:
    def test_no_pump_no_photons(self):
        cfg = TrajectoryConfig(num_pulses=100, master_seed=1)
        assert len(simulate_trajectory(MODEL, PumpSpec(0.0, 10.0), cfg)) == 0

    def test_reproducible_and_index_dependent(self):
        cfg = TrajectoryConfig(num_pulses=20, master_seed=42, trajectory_index=5)
        a = simulate_trajectory(MODEL, PUMP, cfg)
        b = simulate_trajectory(MODEL, PUMP, cfg)
        assert np.array_equal(a, b)
        other = simulate_trajectory(
            MODEL, PUMP, TrajectoryConfig(20, 42, trajectory_index=6))
        assert not np.array_equal(a, other)

    def test_records_sorted(self):
        cfg = TrajectoryConfig(num_pulses=200, master_seed=3)
        recs = simulate_trajectory(MODEL, PumpSpec(2.0, 2.0, 200), cfg)
        times = recs["time_ns"].tolist()
        assert times == sorted(times)

    def test_forced_single_level_exponential_mean(self):
        pump = PumpSpec(0.0, 50.0, num_pulses=20000)
        cfg = TrajectoryConfig(num_pulses=20000, master_seed=11)
        recs = simulate_trajectory(MODEL, pump, cfg, start_level=1)
        waits = recs["time_ns"] % 50.0
        se = 1.5 / np.sqrt(waits.size)
        assert abs(waits.mean() - 1.5) < 3.0 * se

    def test_level3_mean_emission_times(self):
        pump = PumpSpec(0.0, 100.0, num_pulses=20000)
        cfg = TrajectoryConfig(num_pulses=20000, master_seed=12)
        recs = simulate_trajectory(MODEL, pump, cfg, start_level=3)
        for label, expected in (("1X", 3.8), ("2X", 2.3), ("3X", 0.9)):
            waits = recs["time_ns"][recs["transition"] == label] % 100.0
            se = waits.std() / np.sqrt(waits.size)
            assert abs(waits.mean() - expected) < 3.0 * se


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_forced_load_emits_exactly_k_photons_per_pulse(seed, k):
    cfg = TrajectoryConfig(num_pulses=7, master_seed=seed)
    recs = simulate_trajectory(MODEL, PumpSpec(0.0, 200.0, 7), cfg, start_level=k)
    assert len(recs) == 7 * k
    for i in range(1, k + 1):
        label = MODEL.labels[i - 1]
        assert np.count_nonzero(recs["transition"] == label) == 7


class TestVectorizedEnsemble:
    def test_counting_identity(self):
        from sawsps.cascade import poisson_tail
        rng = substream(77, 0)
        levels = sample_start_levels(1.0, 10 ** 6, 3, rng)
        for i in (1, 2, 3):
            p = np.mean(levels >= i)
            exp_p = poisson_tail(1.0, i)
            se = np.sqrt(exp_p * (1 - exp_p) / levels.size)
            assert abs(p - exp_p) < 3.0 * se

    def test_emission_time_identity(self):
        rng = substream(78, 0)
        levels = np.full(200000, 3)
        times = sample_emission_times(MODEL, levels, rng)
        mean_1x = times[0].mean()
        se = times[0].std() / np.sqrt(times.shape[1])
        assert abs(mean_1x - 3.8) < 3.0 * se

    def test_nan_below_start(self):
        rng = substream(79, 0)
        times = sample_emission_times(MODEL, np.array([1, 2, 0]), rng)
        assert np.isnan(times[2, 0]) and np.isnan(times[1, 2])
        assert np.isfinite(times[0, 0])


class TestEventDrivenLoads:
    def test_single_load_equals_pulse_start(self):
        # the event-driven sampler at one load reproduces the cascade means
        ones = []
        for i in range(20000):
            recs = sample_cascade_from_loads(MODEL, [(5.0, 3)], substream(5, i))
            ones.extend(recs["time_ns"][recs["transition"] == "1X"] - 5.0)
        ones = np.array(ones)
        se = ones.std() / np.sqrt(ones.size)
        assert abs(ones.mean() - 3.8) < 3.0 * se

    def test_level_caps_at_top(self):
        recs = sample_cascade_from_loads(MODEL, [(0.0, 10)], substream(6, 0))
        assert len(recs) == 3  # folded to the top level

    def test_reload_during_cascade_keeps_emitting(self):
        recs = sample_cascade_from_loads(MODEL, [(0.0, 1), (0.05, 1), (0.1, 1)],
                                         substream(7, 0))
        times = recs["time_ns"].tolist()
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_empty_loads(self):
        recs = sample_cascade_from_loads(MODEL, [], substream(8, 0))
        assert recs.dtype == PHOTON_DTYPE and len(recs) == 0


class TestEnsembleHistogram:
    def test_single_photon_lands_in_first_bin(self):
        stream = [one_x_stream(0.5)]
        h = ensemble_histogram(stream, "1X", 1.0, 10.0)
        assert h.intensity[0] == 1.0 and h.intensity.sum() == 1.0

    def test_folding_modulo_period(self):
        stream = [one_x_stream(0.5, 10.5)]
        h = ensemble_histogram(stream, "1X", 1.0, 10.0)
        assert h.intensity[0] == 2.0

    def test_empty_input_zero_trace(self):
        h = ensemble_histogram([], "1X", 1.0, 10.0)
        assert np.all(h.intensity == 0.0)

    def test_normalized_matches_analytic(self):
        num = 20000
        streams = [simulate_trajectory(MODEL, PumpSpec(0.0, 50.0),
                                       TrajectoryConfig(1, 202, i),
                                       start_level=3)
                   for i in range(num)]
        h = ensemble_histogram(streams, "2X", 0.25, 50.0, normalized=True)
        sol = solve_cascade_analytic(MODEL, 3)
        sel = h.time_ns < 6.0
        expected = sol.emission_rate(2, h.time_ns[sel])
        counts = h.intensity[sel] * num * 0.25
        sigma = np.sqrt(np.maximum(expected * num * 0.25, 1.0))
        z = (counts - expected * num * 0.25) / sigma
        # global chi^2 sanity on the normalized Monte Carlo histogram
        assert np.mean(z ** 2) < 1.5
        assert np.max(np.abs(z)) < 4.5


class TestCsv:
    def test_round_trip(self, tmp_path):
        cfg = TrajectoryConfig(num_pulses=50, master_seed=9)
        recs = simulate_trajectory(MODEL, PumpSpec(2.0, 5.0, 50), cfg,
                                   emitter_id=3)
        assert len(recs), "need a non-empty stream for the round trip"
        path = tmp_path / "photons.csv"
        write_photon_csv(path, recs)
        assert np.array_equal(read_photon_csv(path), recs)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_photon_csv(path)
