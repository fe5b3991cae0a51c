import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawsps.cascade import (CascadeModel, NoSignalError, Transient,
                            initial_loading, onset_time, poisson_pmf,
                            poisson_tail, solve_cascade_analytic,
                            time_integrated_intensity)
from sawsps.emitter import sample_start_levels
from sawsps.scenarios import ScenarioConfig, list_scenarios
from oracles import OccupancyTrace, solve_cascade_numeric

THREE_LEVEL = CascadeModel((1.5, 1.4, 0.9))

# Frozen oracle values.  n1(2.0) was computed with the independent fixed-step
# integrator below at dt = 1e-4 (see test_analytic_matches_fine_step_oracle,
# which recomputes it); the onset root comes from 200 bisection steps of
# t*exp(-t) = 0.5*exp(-1).
N1_AT_2NS = 0.3072052532837037
ONSET_T_EXP = 0.2319609529865344


def brute_force_chain(lifetimes, start_level, t_end, dt):
    """Independent fine-step stage-form RK4 oracle, deliberately separate
    from the step-map integrator of `oracles.solve_cascade_numeric`."""
    lam = 1.0 / np.asarray(lifetimes)
    n = np.zeros(len(lifetimes))
    n[start_level - 1] = 1.0

    def deriv(state):
        d = -state * lam
        d[:-1] += state[1:] * lam[1:]
        return d

    steps = int(round(t_end / dt))
    for _ in range(steps):
        k1 = deriv(n)
        k2 = deriv(n + 0.5 * dt * k1)
        k3 = deriv(n + 0.5 * dt * k2)
        k4 = deriv(n + dt * k3)
        n = n + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return n


class TestPoisson:
    def test_empty_pulse_is_certain(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_high_precision_value(self):
        assert poisson_pmf(1.0, 0) == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_normalization(self):
        total = sum(poisson_pmf(2.0, i) for i in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_pmf(-0.1, 0)
        with pytest.raises(ValueError):
            poisson_pmf(1.0, -1)
        with pytest.raises(ValueError):
            poisson_pmf(1.0, 1.5)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_rejected(self, g):
        for call in (lambda: poisson_pmf(g, 1), lambda: poisson_pmf(g, 2),
                     lambda: poisson_tail(g, 2), lambda: initial_loading(g, 3),
                     lambda: initial_loading(g, 3, overflow="drop"),
                     lambda: sample_start_levels(g, 4, 3, np.random.default_rng(0))):
            with pytest.raises(ValueError, match="must be finite"):
                call()

    @pytest.mark.parametrize("count", [True, False, np.True_])
    def test_bool_count_rejected(self, count):
        with pytest.raises(ValueError, match="non-negative integer"):
            poisson_pmf(2.0, count)
        with pytest.raises(ValueError, match="non-negative integer"):
            poisson_tail(2.0, count)

    def test_integral_counts_accepted(self):
        assert poisson_tail(2.0, 3.0) == poisson_tail(2.0, np.int64(3))
        assert poisson_pmf(2.0, 3.0) == poisson_pmf(2.0, np.int64(3))

    def test_tail_matches_pmf_sum(self):
        g = 1.7
        tail = sum(poisson_pmf(g, i) for i in range(3, 200))
        assert poisson_tail(g, 3) == pytest.approx(tail, rel=1e-12)


# The benchmark's pump grid (perfbench/workloads.py DENSE_G), recomputed here.
DENSE_G = [round(float(g), 6) for g in np.geomspace(0.05, 20.0, 400)]


def ulps(x, reference):
    return np.abs(x - reference) / np.spacing(np.abs(reference))


class TestExactOracle:
    """poisson_pmf and poisson_tail against mpmath at 120 bits (mpmath is a
    test-only dependency)."""

    @staticmethod
    def exact(g, i):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(120):
            x = mpmath.mpf(g)
            pmf = mpmath.exp(-x) * x ** i / mpmath.factorial(i)
            return float(pmf), float(mpmath.gammainc(i, 0, x, regularized=True))

    def test_within_16_ulp_up_to_20_levels(self):
        preset_g = [g for name, _ in list_scenarios()
                    for g in ScenarioConfig.preset(name).params.get("g_values", [])]
        assert preset_g
        grid = sorted(set(preset_g + DENSE_G[::4]
                          + np.geomspace(1e-4, 60.0, 80).tolist() + [0.0, 5e-324]))
        for i in range(1, 21):
            for g in grid:
                pmf, tail = self.exact(g, i)
                assert ulps(poisson_pmf(g, i), pmf) <= 16, (g, i)
                assert ulps(poisson_tail(g, i), tail) <= 16, (g, i)

    @pytest.mark.parametrize("i", [21, 30, 60, 199, 201, 300, 1000])
    def test_relative_error_above_20_levels(self, i):
        # at i = 1000 a sum started at e^-g, which underflows above g = 745,
        # returns 0.0 against 0.0648 at g = 952.5 and 1.0 against 0.94 at 1050
        grid = np.geomspace(1e-2, 3.0 * i, 20).tolist() + [
            float(i), 1.05 * i, 700.0, 708.0, 745.0, 952.5, 1e3, 1e300]
        for g in grid:
            for got, want in zip((poisson_pmf(g, i), poisson_tail(g, i)),
                                 self.exact(g, i)):
                assert 0.0 <= got <= 1.0, (g, i)
                if want < sys.float_info.min:
                    assert abs(got - want) < 1e-290, (g, i)
                else:
                    assert abs(got - want) <= 1e-11 * want, (g, i)


class TestInitialLoading:
    def test_zero_pump_loads_nothing(self):
        w = initial_loading(0.0, 3)
        assert w[0] == 1.0 and np.all(w[1:] == 0.0)

    def test_tail_probability(self):
        w = initial_loading(0.1, 3)
        assert 1.0 - w[0] == pytest.approx(0.09516258196404048, abs=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_saturation(self):
        w = initial_loading(1e3, 3)
        assert w[3] == pytest.approx(1.0, abs=1e-9)

    def test_drop_variant_leaks_mass(self):
        w = initial_loading(2.0, 3, overflow="drop")
        assert w.sum() < 1.0
        assert w[3] == pytest.approx(poisson_pmf(2.0, 3), abs=1e-15)


class TestAnalyticSolution:
    def test_single_level_exponential(self):
        sol = solve_cascade_analytic(CascadeModel((1.0,)), 1)
        assert sol.occupancy(1, 1.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_equal_lifetimes_confluent_limit(self):
        # N=2 with tau = (1, 1): n1(t) = t * exp(-t)
        sol = solve_cascade_analytic(CascadeModel((1.0, 1.0)), 2)
        for t in (0.3, 1.0, 2.5):
            assert sol.occupancy(1, t) == pytest.approx(t * math.exp(-t), rel=1e-12)

    def test_analytic_matches_fine_step_oracle(self):
        oracle = brute_force_chain((1.5, 1.4, 0.9), 3, 2.0, 1e-4)
        sol = solve_cascade_analytic(THREE_LEVEL, 3)
        assert oracle[0] == pytest.approx(N1_AT_2NS, abs=1e-9)
        assert sol.occupancy(1, 2.0) == pytest.approx(N1_AT_2NS, abs=1e-9)

    def test_near_degenerate_does_not_blow_up(self):
        sol_eq = solve_cascade_analytic(CascadeModel((1.0, 1.0)), 2)
        sol_near = solve_cascade_analytic(CascadeModel((1.0, 1.0 + 1e-10)), 2)
        t = np.linspace(0.0, 10.0, 101)
        assert np.allclose(sol_eq.occupancy(1, t), sol_near.occupancy(1, t),
                           atol=1e-8)

    def test_two_step_difference_form(self):
        # start at 3: the 2X occupancy is the textbook two-exponential difference
        sol = solve_cascade_analytic(THREE_LEVEL, 3)
        lam2, lam3 = 1 / 1.4, 1 / 0.9
        t = np.linspace(0.0, 8.0, 200)
        expected = lam3 / (lam2 - lam3) * (np.exp(-lam3 * t) - np.exp(-lam2 * t))
        assert np.allclose(sol.occupancy(2, t), expected, atol=1e-12)

    def test_mean_delay_identity(self):
        sol = solve_cascade_analytic(THREE_LEVEL, 3)
        assert sol.mean_emission_time(1) == pytest.approx(0.9 + 1.4 + 1.5, rel=1e-12)
        assert sol.mean_emission_time(2) == pytest.approx(0.9 + 1.4, rel=1e-12)
        assert sol.mean_emission_time(3) == pytest.approx(0.9, rel=1e-12)

    def test_bad_start_level(self):
        with pytest.raises(ValueError):
            solve_cascade_analytic(THREE_LEVEL, 4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.1, 10.0).map(lambda x: round(x, 2)),
                min_size=1, max_size=4),
       st.integers(1, 4))
def test_photon_conservation_property(lifetimes, start):
    # lifetimes on a 0.01 ns grid: either exactly degenerate (confluent
    # branch, exact) or separated enough that coefficient cancellation stays
    # far below the asserted tolerance
    lifetimes = [max(t, 0.1) for t in lifetimes]
    model = CascadeModel(tuple(lifetimes))
    k = min(start, model.num_levels)
    sol = solve_cascade_analytic(model, k)
    total = sum(sol.photons_emitted(i) for i in range(1, k + 1))
    assert total == pytest.approx(k, rel=1e-6)
    # occupancies stay non-negative
    t = np.linspace(0.0, 20.0 * max(lifetimes), 50)
    for i in range(1, model.num_levels + 1):
        assert np.all(sol.occupancy(i, t) >= 0.0)


def test_photon_conservation_adversarial_degeneracies():
    # exact triple degeneracy and a snapped near-degenerate pair
    for lifetimes, start in [((2.0, 2.0, 2.0), 3),
                             ((2.0, 2.0 * (1 + 1e-10), 0.5), 3),
                             ((1.0, 1.0, 1.0, 1.0), 4)]:
        sol = solve_cascade_analytic(CascadeModel(lifetimes), start)
        total = sum(sol.photons_emitted(i) for i in range(1, start + 1))
        assert total == pytest.approx(start, rel=1e-9)


class TestNumericSolution:
    def test_matches_analytic_single_pulse(self):
        trace = solve_cascade_numeric(THREE_LEVEL, 3, 5.0, 1e-3)
        sol = solve_cascade_analytic(THREE_LEVEL, 3)
        for level in (1, 2, 3):
            exact = sol.occupancy(level, trace.time_ns)
            err = np.max(np.abs(trace.level(level) - exact)) / exact.max()
            assert err < 1e-6

    def test_step_size_preconditions(self):
        with pytest.raises(ValueError):
            solve_cascade_numeric(THREE_LEVEL, 3, 5.0, 0.1)
        with pytest.raises(ValueError):
            solve_cascade_numeric(THREE_LEVEL, 3, 1e-4, 1e-3)

    def test_bad_start_level(self):
        # unchecked, -1 would index the top level and 0 would load nothing
        for level in (-1, 0, 4):
            with pytest.raises(ValueError):
                solve_cascade_numeric(THREE_LEVEL, level, 5.0, 1e-3)


class TestEmissionTrace:
    def test_single_exponential(self):
        model = CascadeModel((1.0,))
        trace = solve_cascade_numeric(model, 1, 5.0, 1e-3)
        em = trace.level(1) / model.lifetimes_ns[0]
        assert np.allclose(em, np.exp(-trace.time_ns), atol=1e-6)

    def test_quadrature_photon_identity(self):
        # one photon per transition when starting at the top
        sol = solve_cascade_analytic(THREE_LEVEL, 3)
        t = np.arange(0.0, 60.0, 1e-3)
        for level in (1, 2, 3):
            integral = np.trapezoid(sol.emission_rate(level, t), t)
            assert integral == pytest.approx(1.0, abs=1e-6)

    def test_out_of_range_level(self):
        trace = solve_cascade_numeric(THREE_LEVEL, 3, 2.0, 1e-3)
        with pytest.raises(ValueError):
            trace.level(4)


class TestTimeIntegratedIntensity:
    def test_linear_tail(self):
        assert time_integrated_intensity(THREE_LEVEL, 0.1, 1) == pytest.approx(
            0.09516258196404048, abs=1e-12)

    def test_quadratic_tail(self):
        assert time_integrated_intensity(THREE_LEVEL, 0.1, 2) == pytest.approx(
            0.004678840160444397, abs=1e-12)

    def test_saturation_all_levels(self):
        for level in (1, 2, 3):
            assert time_integrated_intensity(THREE_LEVEL, 100.0, level) == \
                pytest.approx(1.0, abs=1e-9)

    def test_low_power_log_slope_approaches_level(self):
        for level in (1, 2):
            g = np.array([1e-4, 2e-4])
            vals = [time_integrated_intensity(THREE_LEVEL, gi, level) for gi in g]
            slope = (math.log(vals[1]) - math.log(vals[0])) / math.log(2.0)
            assert slope == pytest.approx(level, abs=2e-3)


class TestOnsetTime:
    def test_decay_peaks_at_origin(self):
        t = np.linspace(0.0, 5.0, 501)
        assert onset_time(Transient(t, np.exp(-t)), 0.5) == 0.0

    def test_delayed_rise_bisection_oracle(self):
        # recompute the frozen root of t*exp(-t) = 0.5/e with bisection
        target = 0.5 * math.exp(-1.0)
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(-mid) < target:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(ONSET_T_EXP, abs=1e-12)
        t = np.linspace(0.0, 8.0, 8001)
        onset = onset_time(Transient(t, t * np.exp(-t)), 0.5)
        assert onset == pytest.approx(ONSET_T_EXP, abs=1e-5)

    def test_translation_equivariance(self):
        t = np.linspace(0.0, 8.0, 801)
        y = t * np.exp(-t)
        base = onset_time(Transient(t, y), 0.3)
        shifted = onset_time(Transient(t + 2.0, y), 0.3)
        assert shifted - base == pytest.approx(2.0, abs=1e-12)

    def test_no_signal(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NoSignalError):
            onset_time(Transient(t, np.zeros_like(t)), 0.5)


class TestTypes:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            CascadeModel(())
        with pytest.raises(ValueError):
            CascadeModel((1.0, -0.5))
        with pytest.raises(ValueError, match="finite rates"):
            CascadeModel((1.5, 1.4, 5e-324))  # 1/tau overflows to inf
        with pytest.raises(ValueError):
            CascadeModel((1.0, 2.0), labels=("a", "a"))

    def test_occupancy_trace_validation(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            OccupancyTrace(t, -np.ones((2, 11)))
        with pytest.raises(ValueError):
            OccupancyTrace(t[::-1], np.ones((2, 11)))

    def test_transient_uniform_step(self):
        tr = Transient(np.array([0.0, 0.5, 1.5]), np.ones(3))
        with pytest.raises(ValueError):
            _ = tr.step_ns
