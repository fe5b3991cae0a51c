"""Multiexciton cascade rate equations.

A dot loaded with k excitons decays through a linear chain k -> k-1 -> ... -> 0,
emitting one photon per step.  Loading per laser pulse is Poisson with mean g;
pulses generating more than N excitons load the top level N (overflow folding,
which keeps photon counting exact for the modelled levels).  The chain is a
triangular linear ODE system, so it has a closed-form sum-of-exponentials
solution next to the fixed-step integrator.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

# Lifetimes closer than this (relative) are treated as equal and the analytic
# solution switches to the confluent t^m * exp(-t/tau) limit form.
DEGENERACY_RTOL = 1e-6


class NoSignalError(ValueError):
    """Raised when a trace carries no usable signal."""


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"{i}X" for i in range(1, n + 1))


@dataclass(frozen=True)
class CascadeModel:
    """Ordered exciton levels with radiative lifetimes.

    Parameters
    ----------
    lifetimes_ns : sequence of float
        Radiative lifetime of each level in ns; index 0 is the lowest level
        (single exciton), the last entry is the top of the chain.
    labels : sequence of str, optional
        Transition names; defaults to "1X", "2X", ...
    """

    lifetimes_ns: tuple[float, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        lifetimes = tuple(float(t) for t in self.lifetimes_ns)
        if not lifetimes:
            raise ValueError("need at least one level")
        if any(t <= 0 or not math.isfinite(t) for t in lifetimes):
            raise ValueError("all lifetimes must be positive and finite")
        labels = tuple(self.labels) or _default_labels(len(lifetimes))
        if len(labels) != len(lifetimes):
            raise ValueError("labels must match the number of levels")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        object.__setattr__(self, "lifetimes_ns", lifetimes)
        object.__setattr__(self, "labels", labels)

    @property
    def num_levels(self) -> int:
        return len(self.lifetimes_ns)

    @property
    def rates(self) -> np.ndarray:
        """Decay rates 1/tau_i in 1/ns, index 0 = lowest level."""
        return 1.0 / np.asarray(self.lifetimes_ns)


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed Poisson loading: mean excitons per pulse plus the pulse train."""

    mean_excitons_per_pulse: float
    pulse_period_ns: float
    num_pulses: int = 1

    def __post_init__(self):
        if self.mean_excitons_per_pulse < 0:
            raise ValueError("mean excitons per pulse must be >= 0")
        if self.pulse_period_ns <= 0:
            raise ValueError("pulse period must be > 0")
        if self.num_pulses < 1:
            raise ValueError("need at least one pulse")

    def pulse_times(self) -> np.ndarray:
        return np.arange(self.num_pulses) * self.pulse_period_ns


@dataclass(frozen=True)
class Transient:
    """A binned or sampled time trace: intensity versus time."""

    time_ns: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.time_ns, dtype=float)
        y = np.asarray(self.intensity, dtype=float)
        if t.ndim != 1 or t.shape != y.shape:
            raise ValueError("time and intensity must be 1-d arrays of equal length")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(y)):
            raise ValueError("intensity must be finite")
        object.__setattr__(self, "time_ns", t)
        object.__setattr__(self, "intensity", y)

    @property
    def step_ns(self) -> float:
        """Uniform grid step; raises if the grid is not uniform."""
        d = np.diff(self.time_ns)
        if d.size == 0:
            raise ValueError("trace has fewer than two samples")
        if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12):
            raise ValueError("time grid is not uniform")
        return float(d[0])

    def integral(self) -> float:
        return float(np.trapezoid(self.intensity, self.time_ns))


@dataclass(frozen=True)
class OccupancyTrace:
    """Occupancies n_i(t) of every level on a uniform time grid."""

    time_ns: np.ndarray
    occupancies: np.ndarray  # shape (num_levels, num_times)

    def __post_init__(self):
        t = np.asarray(self.time_ns, dtype=float)
        n = np.asarray(self.occupancies, dtype=float)
        if t.ndim != 1 or n.ndim != 2 or n.shape[1] != t.size:
            raise ValueError("occupancies must be (levels, times) matching the grid")
        d = np.diff(t)
        if d.size and (np.any(d <= 0) or not np.allclose(d, d[0], rtol=1e-9, atol=1e-12)):
            raise ValueError("time grid must be uniform and strictly increasing")
        if np.any(n < -1e-9):
            raise ValueError("occupancies must be non-negative")
        n = np.maximum(n, 0.0)  # clip integrator round-off
        object.__setattr__(self, "time_ns", t)
        object.__setattr__(self, "occupancies", n)

    @property
    def num_levels(self) -> int:
        return self.occupancies.shape[0]

    def level(self, level: int) -> np.ndarray:
        if not 1 <= level <= self.num_levels:
            raise ValueError(f"level {level} out of range 1..{self.num_levels}")
        return self.occupancies[level - 1]


# ---------------------------------------------------------------------------
# Poisson loading
# ---------------------------------------------------------------------------

def poisson_pmf(g: float, i: int) -> float:
    """P(count == i) for a Poisson distribution with mean g."""
    if g < 0:
        raise ValueError("mean must be >= 0")
    if i != int(i) or i < 0:
        raise ValueError("count must be a non-negative integer")
    i = int(i)
    if g == 0:
        return 1.0 if i == 0 else 0.0
    return math.exp(-g + i * math.log(g) - math.lgamma(i + 1))


def poisson_tail(g: float, i: int) -> float:
    """P(count >= i) for a Poisson distribution with mean g."""
    if g < 0:
        raise ValueError("mean must be >= 0")
    if i != int(i) or i < 0:
        raise ValueError("count must be a non-negative integer")
    if i == 0:
        return 1.0
    # Poisson upper tail equals the regularized lower incomplete gamma.
    return float(gammainc(int(i), g))


def initial_loading(g: float, num_levels: int, overflow: str = "fold") -> np.ndarray:
    """Distribution over the starting level 0..N of a single pulse.

    With ``overflow="fold"`` pulses generating more than N excitons load
    level N, so the entry for level N is the Poisson tail P(count >= N).
    ``overflow="drop"`` instead uses the bare pmf at N and discards the
    excess probability mass (those pulses load nothing); it exists for
    sensitivity studies and does not sum to one.
    """
    if num_levels < 1:
        raise ValueError("need at least one level")
    if overflow not in ("fold", "drop"):
        raise ValueError("overflow must be 'fold' or 'drop'")
    weights = [poisson_pmf(g, k) for k in range(num_levels)]
    if overflow == "fold":
        weights.append(poisson_tail(g, num_levels))
    else:
        weights.append(poisson_pmf(g, num_levels))
    return np.array(weights)


# ---------------------------------------------------------------------------
# Closed-form (Bateman) solution
# ---------------------------------------------------------------------------

def _group_rates(lifetimes: tuple[float, ...]) -> list[float]:
    """Snap nearly equal lifetimes to a representative so that equal-rate
    convolutions take the exact confluent branch instead of dividing by a
    vanishing rate difference.

    The snap window widens with the group size already collected: a cluster
    of q members produces 1/gap^q coefficient growth, so absorbing the next
    member balances the snap-induced model error against the coefficient
    cancellation loss.
    """
    groups: list[list] = []  # [representative, member count]
    out = []
    for tau in lifetimes:
        for group in groups:
            rep, count = group
            snap = max(DEGENERACY_RTOL, (2.2e-16 / 50.0) ** (1.0 / (count + 1)))
            if abs(tau - rep) / rep < snap:
                group[1] = count + 1
                tau = rep
                break
        else:
            groups.append([tau, 1])
        out.append(1.0 / tau)
    return out


class BatemanSolution:
    """Closed-form occupancies of a decay chain started at one level.

    Each occupancy is a sum of ``c * t^m * exp(-lam*t)`` terms.  Repeated
    rates raise the polynomial power m instead of producing divergent
    coefficients, so the representation stays exact for degenerate lifetimes.
    """

    def __init__(self, model: CascadeModel, start_level: int):
        if not 1 <= start_level <= model.num_levels:
            raise ValueError(
                f"start level {start_level} out of range 1..{model.num_levels}")
        self.model = model
        self.start_level = int(start_level)
        rates = _group_rates(model.lifetimes_ns)  # index 0 = lowest level

        # terms[level-1] is a dict {(m, lam): coefficient}
        terms: list[dict] = [dict() for _ in range(model.num_levels)]
        top = self.start_level
        terms[top - 1] = {(0, rates[top - 1]): 1.0}
        for level in range(top - 1, 0, -1):
            lam = rates[level - 1]
            inflow_rate = rates[level]  # decay rate of the level above
            out: dict = {}
            for (m, mu), c in terms[level].items():
                a = mu - lam
                if a == 0.0:
                    _add(out, (m + 1, lam), c * inflow_rate / (m + 1))
                else:
                    fact_m = math.factorial(m)
                    _add(out, (0, lam), c * inflow_rate * fact_m / a ** (m + 1))
                    for r in range(m + 1):
                        _add(out, (r, mu),
                             -c * inflow_rate * (fact_m / math.factorial(r))
                             / a ** (m + 1 - r))
            terms[level - 1] = out
        self._terms = [sorted(d.items()) for d in terms]

    def occupancy(self, level: int, time_ns) -> np.ndarray:
        """n_level(t); zero before t = 0."""
        self._check_level(level)
        t = np.asarray(time_ns, dtype=float)
        y = np.zeros_like(t)
        for (m, lam), c in self._terms[level - 1]:
            y += c * t ** m * np.exp(-lam * t)
        return np.where(t >= 0, np.maximum(y, 0.0), 0.0)

    def emission_rate(self, level: int, time_ns) -> np.ndarray:
        """Expected PL intensity of transition `level`: n_level(t) / tau_level."""
        return self.occupancy(level, time_ns) / self.model.lifetimes_ns[level - 1]

    def photons_emitted(self, level: int) -> float:
        """Exact integral of the transition's emission rate over [0, inf)."""
        self._check_level(level)
        total = 0.0
        for (m, lam), c in self._terms[level - 1]:
            total += c * math.factorial(m) / lam ** (m + 1)
        return total / self.model.lifetimes_ns[level - 1]

    def mean_emission_time(self, level: int) -> float:
        """Exact mean arrival time of the transition's photon."""
        self._check_level(level)
        num = 0.0
        den = 0.0
        for (m, lam), c in self._terms[level - 1]:
            num += c * math.factorial(m + 1) / lam ** (m + 2)
            den += c * math.factorial(m) / lam ** (m + 1)
        return num / den

    def _check_level(self, level: int):
        if not 1 <= level <= self.model.num_levels:
            raise ValueError(
                f"level {level} out of range 1..{self.model.num_levels}")


def _add(d: dict, key, value) -> None:
    d[key] = d.get(key, 0.0) + value


def solve_cascade_analytic(model: CascadeModel, start_level: int) -> BatemanSolution:
    """Closed-form solution of the chain started with `start_level` excitons."""
    return BatemanSolution(model, start_level)


# ---------------------------------------------------------------------------
# Fixed-step numeric solution
# ---------------------------------------------------------------------------

def _chain_matrix(rates: np.ndarray) -> np.ndarray:
    """Generator matrix of the chain: dn/dt = A n."""
    nlev = rates.size
    a = np.diag(-rates)
    for i in range(nlev - 1):
        a[i, i + 1] = rates[i + 1]
    return a


def _rk4_step_map(a: np.ndarray, dt: float) -> np.ndarray:
    """One classic RK4 step of a linear system, precomputed.

    For dn/dt = A n the RK4 stages collapse algebraically to n' = M n with
    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so the integration is one
    matrix-vector product per step.
    """
    eye = np.eye(a.shape[0])
    ha = dt * a
    return eye + ha @ (eye + ha @ (eye / 2 + ha @ (eye / 6 + ha / 24)))


def solve_cascade_numeric(model: CascadeModel, pump: PumpSpec, horizon_ns: float,
                          dt_ns: float,
                          start_level: int | None = None) -> OccupancyTrace:
    """Fixed-step fourth-order integration of the expected-occupancy equations.

    The chain is linear, so the classic RK4 step collapses to a precomputed
    one-step matrix (`_rk4_step_map`), identical to stage-form RK4 up to
    rounding.  Pulsed loading is applied as instantaneous occupation jumps at
    the grid node nearest each pulse time (the recorded value at a pulse node
    is the post-jump state).

    `start_level` forces a deterministic single-pulse start at that level
    instead of Poisson loading.
    """
    min_tau = min(model.lifetimes_ns)
    if dt_ns <= 0:
        raise ValueError("dt must be > 0")
    if dt_ns > min_tau / 20:
        raise ValueError(
            f"dt = {dt_ns} too large; need dt <= min lifetime / 20 = {min_tau / 20:g}")
    if horizon_ns < dt_ns:
        raise ValueError("horizon must be at least one step")

    nlev = model.num_levels
    num_steps = int(math.ceil(horizon_ns / dt_ns))
    times = np.arange(num_steps + 1) * dt_ns

    if start_level is not None:
        weights = np.zeros(nlev + 1)
        weights[start_level] = 1.0
        pulse_times = [0.0]
    else:
        weights = initial_loading(pump.mean_excitons_per_pulse, nlev)
        pulse_times = [t for t in pump.pulse_times() if t <= horizon_ns]
    jump = weights[1:]  # loading into levels 1..N

    step_m = _rk4_step_map(_chain_matrix(model.rates), dt_ns)
    pulse_nodes = sorted({int(round(t / dt_ns)) for t in pulse_times})
    next_pulse = 0
    n = np.zeros(nlev)
    if next_pulse < len(pulse_nodes) and pulse_nodes[next_pulse] == 0:
        n = n + jump
        next_pulse += 1
    occ = np.empty((num_steps + 1, nlev))
    occ[0] = n
    for s in range(num_steps):
        n = step_m @ n
        if next_pulse < len(pulse_nodes) and pulse_nodes[next_pulse] == s + 1:
            n = n + jump
            next_pulse += 1
        occ[s + 1] = n
    return OccupancyTrace(times, occ.T)


# ---------------------------------------------------------------------------
# Derived observables
# ---------------------------------------------------------------------------

def time_integrated_intensity(model: CascadeModel, g: float, level: int) -> float:
    """Expected photons per pulse on transition `level` under Poisson loading.

    With overflow folding every pulse that loads at least `level` excitons
    fires the transition exactly once, so this is the Poisson tail P(n >= level).
    """
    if not 1 <= level <= model.num_levels:
        raise ValueError(f"level {level} out of range 1..{model.num_levels}")
    return poisson_tail(g, level)


def onset_time(trace: Transient, threshold_fraction: float) -> float:
    """First time the trace crosses threshold_fraction * peak (rising side),
    linearly interpolated between grid points."""
    if not 0 < threshold_fraction < 1:
        raise ValueError("threshold fraction must be in (0, 1)")
    y = trace.intensity
    peak = float(np.max(y)) if y.size else 0.0
    if peak <= 0:
        raise NoSignalError("trace has no positive maximum")
    thr = threshold_fraction * peak
    above = np.nonzero(y >= thr)[0]
    idx = int(above[0])
    if idx == 0:
        return float(trace.time_ns[0])
    t0, t1 = trace.time_ns[idx - 1], trace.time_ns[idx]
    y0, y1 = y[idx - 1], y[idx]
    return float(t0 + (thr - y0) * (t1 - t0) / (y1 - y0))
