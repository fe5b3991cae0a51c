import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawsps.cascade import CascadeModel, poisson_tail
from sawsps.emitter import (PHOTON_DTYPE, read_photon_csv,
                            sample_cascade_from_loads, sample_start_levels,
                            write_photon_csv)
from sawsps.rng import substream, substreams
from oracles import ensemble_histogram

MODEL = CascadeModel((1.5, 1.4, 0.9))


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

    def test_counting_identity(self):
        rng = substream(77, 0)
        levels = sample_start_levels(1.0, 10 ** 6, 3, rng)
        for i in (1, 2, 3):
            p = np.mean(levels >= i)
            exp_p = poisson_tail(1.0, i)
            se = np.sqrt(exp_p * (1 - exp_p) / levels.size)
            assert abs(p - exp_p) < 3.0 * se


def pulse_train(level, num, period_ns, rng):
    """`level` excitons loaded every `period_ns`, `num` times, on one dot."""
    return sample_cascade_from_loads([MODEL], np.arange(num) * period_ns,
                                     np.full(num, level), [rng])


class TestTrajectory:
    """Pulse trains of forced loads, each period far longer than a cascade."""

    def test_forced_single_level_exponential_mean(self):
        recs = pulse_train(1, 20000, 50.0, substream(11, 0))
        waits = recs["time_ns"] % 50.0
        se = 1.5 / np.sqrt(waits.size)
        assert abs(waits.mean() - 1.5) < 3.0 * se

    def test_level3_mean_emission_times(self):
        recs = pulse_train(3, 20000, 100.0, substream(12, 0))
        for label, expected in (("1X", 3.8), ("2X", 2.3), ("3X", 0.9)):
            waits = recs["time_ns"][recs["transition"] == label] % 100.0
            se = waits.std() / np.sqrt(waits.size)
            assert abs(waits.mean() - expected) < 3.0 * se


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_forced_load_emits_exactly_k_photons_per_pulse(seed, k):
    recs = pulse_train(k, 7, 200.0, substream(seed, 0))
    pulse = (recs["time_ns"] // 200.0).astype(int)
    assert np.array_equal(np.bincount(pulse, minlength=7), np.full(7, k))
    for i in range(1, k + 1):
        label = MODEL.labels[i - 1]
        assert np.count_nonzero(recs["transition"] == label) == 7


def reference_cascade(model, loads, rng, emitter_id=0, position_um=(0.0, 0.0)):
    """The event-driven cascade with one scalar exponential draw per step: the
    oracle for `sample_cascade_from_loads`.  `loads` is a time-sorted list of
    (time_ns, exciton_count)."""
    records = []
    level, t_now = 0, 0.0
    for t_load, count in list(loads) + [(np.inf, 0)]:
        while level > 0:
            t_emit = t_now + rng.exponential(model.lifetimes_ns[level - 1])
            if t_emit >= t_load:
                break
            records.append((t_emit, model.labels[level - 1], emitter_id,
                            *position_um))
            level -= 1
            t_now = t_emit
        level = min(level + count, model.num_levels)
        t_now = t_load
    return np.array(records, dtype=PHOTON_DTYPE)


def sample(model, loads, rng, emitter_id=0, position_um=(0.0, 0.0)):
    """`sample_cascade_from_loads` on one site's list of (time_ns, count)
    pairs."""
    times = [t for t, _ in loads]
    counts = [n for _, n in loads]
    return sample_cascade_from_loads([model], times, counts, [rng],
                                     emitter_ids=[emitter_id],
                                     positions_um=[position_um])


def sample_sites(models, schedules, rngs, **kw):
    """`sample_cascade_from_loads` on one list of (time_ns, count) pairs per
    site, in one call."""
    site = [s for s, loads in enumerate(schedules) for _ in loads]
    times = [t for loads in schedules for t, _ in loads]
    counts = [n for loads in schedules for _, n in loads]
    return sample_cascade_from_loads(models, times, counts, rngs,
                                     np.array(site, np.int64), **kw)


class CountingStream:
    """A stream stub that counts its draw calls and records their sizes;
    every wait is 1."""

    def __init__(self):
        self.calls = 0
        self.sizes = []

    def standard_exponential(self, n):
        self.calls += 1
        self.sizes.append(n)
        return np.ones(n)


def random_schedule(g):
    """A random load schedule: equal times, reloads within a lifetime, gaps
    long after the chain has emptied, zero counts and counts above three."""
    n = int(g.integers(0, 12))
    gaps = np.choose(g.choice(4, n, p=[0.2, 0.4, 0.3, 0.1]),
                     [np.zeros(n), g.uniform(0.0, 0.5, n),
                      g.exponential(2.0, n), g.uniform(50.0, 100.0, n)])
    times = g.uniform(0.0, 10.0) + np.cumsum(gaps)
    counts = g.choice(6, n, p=[0.15, 0.35, 0.2, 0.1, 0.1, 0.1])
    return list(zip(times.tolist(), counts.tolist()))


class TestEventDrivenLoads:
    def test_matches_scalar_draw_oracle(self):
        models = (CascadeModel((0.7,)), MODEL)
        seen = {"levels": set(), "empty": 0, "zero": 0, "above_top": 0,
                "equal_times": 0, "reload": 0, "long_gap": 0}
        sites = []  # (model, loads, kw) of each seed
        for seed in range(250):
            g = np.random.default_rng(seed)
            model = models[int(g.integers(2))]
            loads = random_schedule(g)
            kw = {"emitter_id": seed, "position_um": (g.normal(), g.normal())}
            got = sample(model, loads, substream(seed, 1), **kw)
            expected = reference_cascade(model, loads, substream(seed, 1), **kw)
            assert got.dtype == PHOTON_DTYPE and got.size == expected.size, seed
            for name in PHOTON_DTYPE.names:
                assert np.array_equal(got[name], expected[name]), (seed, name)
            sites.append((model, loads, kw))
            seen["levels"].add(model.num_levels)
            seen["empty"] += not loads
            times = [t for t, _ in loads]
            seen["equal_times"] += len(set(times)) < len(times)
            # the chain's level just before each load, from the photons
            level, t_prev = 0, -np.inf
            for t, count in loads:
                level -= np.count_nonzero((expected["time_ns"] >= t_prev)
                                          & (expected["time_ns"] < t))
                seen["zero"] += count == 0
                seen["above_top"] += count > model.num_levels
                seen["reload"] += level > 0 and count > 0
                seen["long_gap"] += level == 0 and t - t_prev > 40.0
                level = min(level + count, model.num_levels)
                t_prev = t
        assert seen["levels"] == {1, 3}
        assert seen["empty"] >= 5
        for case in ("zero", "above_top", "equal_times", "reload", "long_gap"):
            assert seen[case] >= 20, case
        # all schedules in one call: site i draws from substreams(1, i),
        # and its photons are the oracle's on substream(1, i)
        models, schedules, kws = zip(*sites)
        got = sample_sites(models, schedules, substreams(1, np.arange(250)),
                           emitter_ids=[kw["emitter_id"] for kw in kws],
                           positions_um=[kw["position_um"] for kw in kws])
        expected = np.concatenate([
            reference_cascade(model, loads, substream(1, i), **kw)
            for i, (model, loads, kw) in enumerate(sites)])
        assert got.dtype == PHOTON_DTYPE and got.size == expected.size
        for name in PHOTON_DTYPE.names:
            assert np.array_equal(got[name], expected[name]), name

    @staticmethod
    def assert_matches_oracle(models, schedules, seed):
        """One call over all sites against `reference_cascade` site by site;
        site i draws from substreams(seed, i)."""
        kws = [{"emitter_id": 10 * i, "position_um": (float(i), -0.5 * i)}
               for i in range(len(models))]
        got = sample_sites(models, schedules,
                           substreams(seed, np.arange(len(models))),
                           emitter_ids=[kw["emitter_id"] for kw in kws],
                           positions_um=[kw["position_um"] for kw in kws])
        expected = np.concatenate([np.zeros(0, PHOTON_DTYPE)] + [
            reference_cascade(model, loads, substream(seed, i), **kw)
            for i, (model, loads, kw) in enumerate(zip(models, schedules, kws))])
        assert got.dtype == PHOTON_DTYPE and got.size == expected.size
        for name in PHOTON_DTYPE.names:
            assert np.array_equal(got[name], expected[name]), name
        return expected

    def test_one_level_batch_matches_scalar_draw_oracle(self):
        # one-level dots loaded with at least one exciton each time, as a
        # device run's are: load j emits on wait j unless the next load is
        # first (run_device's own one-level path is pinned in test_transport)
        g = np.random.default_rng(31)
        models, schedules = [], []
        seen = {"above_top": 0, "equal_times": 0, "reload": 0}
        for _ in range(120):
            model = CascadeModel((float(g.uniform(0.2, 3.0)),),
                                 (str(g.choice(["1X", "X"])),))
            loads = [(t, max(n, 1)) for t, n in random_schedule(g)]
            models.append(model)
            schedules.append(loads)
            times = [t for t, _ in loads]
            seen["above_top"] += any(n > 1 for _, n in loads)
            seen["equal_times"] += len(set(times)) < len(times)
            gaps = np.diff(times)
            seen["reload"] += bool(np.any(gaps < model.lifetimes_ns[0]))
        for case in ("above_top", "equal_times", "reload"):
            assert seen[case] >= 20, case
        expected = self.assert_matches_oracle(models, schedules, 41)
        # some loads are cut short by the next one
        assert expected.size < sum(map(len, schedules))
        # and with a zero count or a three-level site among them
        i, j = [k for k, loads in enumerate(schedules) if loads][:2]
        zero = list(schedules)
        zero[i] = [(schedules[i][0][0], 0)] + schedules[i][1:]
        self.assert_matches_oracle(models, zero, 41)
        mixed = list(models)
        mixed[j] = MODEL
        self.assert_matches_oracle(mixed, schedules, 41)

    def test_one_level_emission_at_next_load_is_cut(self):
        # every stub wait is 1: the load at 0 would emit at 0.5, exactly when
        # the next load comes, so only the second load's photon at 1.0 leaves
        model = CascadeModel((0.5,))
        stub = CountingStream()
        recs = sample_cascade_from_loads([model], [0.0, 0.5], [1, 2], [stub])
        assert stub.calls == 1
        assert recs["time_ns"].tolist() == [1.0]
        assert recs["transition"].tolist() == [model.labels[0]]
        # just before the next load it still emits
        recs = sample_cascade_from_loads([model], [0.0, np.nextafter(0.5, 1.0)],
                                         [1, 1], [CountingStream()])
        assert recs["time_ns"].tolist() == [0.5, np.nextafter(0.5, 1.0) + 0.5]

    def test_single_load_equals_pulse_start(self):
        # the event-driven sampler at one load reproduces the cascade means;
        # dot i draws from substream(5, i)
        num = 20000
        recs = sample_cascade_from_loads(
            [MODEL] * num, np.full(num, 5.0), np.full(num, 3),
            substreams(5, np.arange(num)), np.arange(num))
        ones = recs["time_ns"][recs["transition"] == "1X"] - 5.0
        se = ones.std() / np.sqrt(ones.size)
        assert abs(ones.mean() - 3.8) < 3.0 * se

    def test_level_caps_at_top(self):
        recs = sample_cascade_from_loads([MODEL], [0.0], [10], [substream(6, 0)])
        assert len(recs) == 3  # folded to the top level

    def test_reload_during_cascade_keeps_emitting(self):
        recs = sample_cascade_from_loads([MODEL], [0.0, 0.05, 0.1], [1, 1, 1],
                                         [substream(7, 0)])
        times = recs["time_ns"].tolist()
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_empty_loads(self):
        recs = sample_cascade_from_loads([MODEL], [], [], [substream(8, 0)])
        assert recs.dtype == PHOTON_DTYPE and len(recs) == 0
        recs = sample_cascade_from_loads([], [], [], substreams(8, np.arange(0)))
        assert recs.dtype == PHOTON_DTYPE and len(recs) == 0

    @pytest.mark.parametrize("loads", [
        [(5.0, 1), (0.0, 1)],
        [(0.0, 2), (np.inf, 1)],
        [(np.nan, 2)],
        [(0.0, 1), (1.0, -1)],
        [(0.0, 2.0)],
        [(0.0, 1), (1.0, 1.5)],
    ], ids=["time_below_previous", "infinite_time", "nan_time", "negative_count",
            "float_count", "fractional_count"])
    def test_malformed_schedule_raises_before_any_draw(self, loads):
        rng = substream(9, 0)
        with pytest.raises(ValueError):
            sample(MODEL, loads, rng)
        assert rng.random() == substream(9, 0).random()
        # malformed at the last site: no site draws, not even the good ones
        good = [(5.0, 2), (6.0, 1)]
        stubs = [CountingStream() for _ in range(3)]
        with pytest.raises(ValueError):
            sample_sites([MODEL] * 3, [good, good, loads], stubs)
        assert [stub.calls for stub in stubs] == [0, 0, 0]

    @pytest.mark.parametrize("site", [[1, 0], [0, 2], [-1, 0], [0.0, 1.0]],
                             ids=["decreasing", "past_last", "negative", "float"])
    def test_sites_contiguous_and_in_range(self, site):
        stubs = [CountingStream(), CountingStream()]
        with pytest.raises(ValueError):
            sample_cascade_from_loads([MODEL] * 2, [0.0, 1.0], [1, 1], stubs,
                                      site)
        assert [stub.calls for stub in stubs] == [0, 0]

    def test_one_stream_per_site(self):
        with pytest.raises(ValueError):
            sample_sites([MODEL] * 2, [[(0.0, 1)], [(0.0, 1)]],
                         [substream(9, 0)])

    def test_one_count_per_time(self):
        with pytest.raises(ValueError):
            sample_cascade_from_loads([MODEL], [0.0, 1.0], [1], [substream(9, 0)])


class TestEnsembleHistogram:
    def test_single_photon_lands_in_first_bin(self):
        h = ensemble_histogram(one_x_stream(0.5), "1X", 1.0, 10.0)
        assert h.intensity[0] == 1.0 and h.intensity.sum() == 1.0

    def test_folding_modulo_period(self):
        h = ensemble_histogram(one_x_stream(0.5, 10.5), "1X", 1.0, 10.0)
        assert h.intensity[0] == 2.0

    def test_empty_input_zero_trace(self):
        h = ensemble_histogram(one_x_stream(), "1X", 1.0, 10.0)
        assert np.all(h.intensity == 0.0)

    @pytest.mark.parametrize("bin_ns,period_ns,match", [
        (math.nan, 10.0, "bin"), (math.inf, 10.0, "bin"), (0.0, 10.0, "bin"),
        (1.0, math.nan, "period"), (1.0, math.inf, "period"),
        (1.0, -10.0, "period")])
    def test_bin_and_period_must_be_finite(self, bin_ns, period_ns, match):
        with pytest.raises(ValueError, match=f"{match}.*finite and > 0"):
            ensemble_histogram(one_x_stream(0.5), "1X", bin_ns, period_ns)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = substream(9, 0)
        recs = sample_cascade_from_loads(
            [MODEL], np.arange(50) * 5.0, sample_start_levels(2.0, 50, 3, rng),
            [rng], emitter_ids=[3], positions_um=[(1.25, -0.1)])
        assert len(recs), "need a non-empty stream for the round trip"
        path = tmp_path / "photons.csv"
        write_photon_csv(path, recs)
        assert np.array_equal(read_photon_csv(path), recs)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_photon_csv(path)
