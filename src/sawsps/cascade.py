"""Multiexciton cascade rate equations.

A dot loaded with k excitons decays through a linear chain k -> k-1 -> ... -> 0,
emitting one photon per step.  Loading per laser pulse is Poisson with mean g;
pulses generating more than N excitons load the top level N (overflow folding,
which keeps photon counting exact for the modelled levels).  The chain is a
triangular linear ODE system, so it has a closed-form sum-of-exponentials
solution.
"""

import math
from dataclasses import dataclass

import numpy as np

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


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma
# ---------------------------------------------------------------------------

# _igam ports Cephes igam.c (S. L. Moshier, in its 2016 form with the DLMF
# series and the Lanczos prefactor igam_fac), on the same libm through
# `math`.  For a <= 20 it returns the compiled igam's double bit for bit,
# except at a = 1 with 1 < x <= 1.1 (the DLMF 8.7.3 series), where it may
# differ by 1 ulp.  For a > 20 with |x - a| < 0.3 a, and for a > 200 with
# |x - a| < 4.5 sqrt(a), Cephes switches to Temme's uniform asymptotic
# expansion (DLMF 8.12.3); the port keeps the series and the continued
# fraction there, which are within about a ulp of the exact value and 2a
# ulp of Cephes'.  tests/test_cascade.py holds it to all of this.
_IGAM_EPS = 1.11022302462515654042e-16  # 2**-53, Cephes MACHEP
_IGAM_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_IGAM_MAXITER = 2000
_IGAM_BIG = 4.503599627370496e15
_IGAM_BIGINV = 2.22044604925031308085e-16
# boost's 13-term Lanczos approximation (lanczos13m53), as Cephes lanczos.c
# takes it: lanczos_sum_expg_scaled = num(a) / den(a), highest power first
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859)
_LANCZOS_DEN = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0,
                45995730.0, 105258076.0, 150917976.0, 120543840.0,
                39916800.0, 0.0)
# Cephes lgam's Stirling correction for 13 <= a < 1000, highest power first
_LGAM_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_LGAM_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _lgam(a: float) -> float:
    """Cephes lgam for an integer a >= 1: log((a - 1)!) from the exact
    product below 13, Stirling's series with its correction from 13 on."""
    if a < 13.0:
        z, u = 1.0, a
        while u >= 3.0:
            u -= 1.0
            z *= u
        return math.log(z)
    q = (a - 0.5) * math.log(a) - a + _LGAM_LS2PI
    if a > 1e8:
        return q
    p = 1.0 / (a * a)
    if a >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / a
    s = 0.0
    for c in _LGAM_STIRLING:
        s = s * p + c
    return q + s / a


def _lanczos_sum_expg_scaled(a: float) -> float:
    """Cephes ratevl of the Lanczos sum: in 1/a when a > 1."""
    num, den, y = _LANCZOS_NUM, _LANCZOS_DEN, a
    if a > 1.0:
        num, den, y = num[::-1], den[::-1], 1.0 / a
    n = d = 0.0
    for c in num:
        n = n * y + c
    for c in den:
        d = d * y + c
    return n / d


def _log1pmx(x: float) -> float:
    """log(1 + x) - x, by its Taylor series when |x| < 0.5."""
    if abs(x) >= 0.5:
        return math.log1p(x) - x
    xfac, res = x, 0.0
    for n in range(2, 500):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < _IGAM_EPS * abs(res):
            break
    return res


def _igam_fac(a: float, x: float) -> float:
    """x**a * exp(-x) / Gamma(a), through the Lanczos approximation when x
    is within 0.4 a of a."""
    if abs(a - x) > 0.4 * a:
        ax = a * math.log(x) - x - _lgam(a)
        return 0.0 if ax < -_IGAM_MAXLOG else math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / _lanczos_sum_expg_scaled(a)
    if a < 200 and x < 200:
        return res * (math.exp(a - x) * math.pow(x / fac, a))
    num = x - a - _LANCZOS_G + 0.5
    return res * math.exp(a * _log1pmx(num / fac)
                          + x * (0.5 - _LANCZOS_G) / fac)


def _igam_series(a: float, x: float) -> float:
    """P(a, x) by DLMF 8.11.4."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r, c, ans = a, 1.0, 1.0
    for _ in range(_IGAM_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _IGAM_EPS * ans:
            break
    return ans * ax / a


def _igamc_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) by DLMF 8.9.2, with Cephes' rescaling of the convergents."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_IGAM_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        t = 1.0
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _IGAM_BIG:
            pkm2 *= _IGAM_BIGINV
            pkm1 *= _IGAM_BIGINV
            qkm2 *= _IGAM_BIGINV
            qkm1 *= _IGAM_BIGINV
        if t <= _IGAM_EPS:
            break
    return ans * ax


def _igamc_series(a: float, x: float) -> float:
    """Q(a, x) by DLMF 8.7.3, for x near 1.  Cephes' lgam1p(a) is
    lgam(a + 1) for an integer a."""
    fac, total = 1.0, 0.0
    for n in range(1, _IGAM_MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _IGAM_EPS * abs(total):
            break
    logx = math.log(x)
    term = -math.expm1(a * logx - _lgam(a + 1.0))
    return term - math.exp(a * logx - _lgam(a)) * total


def _igam(a: int, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for an integer a >= 1 and
    0 <= x <= inf.  For x > max(a, 1), Cephes takes 1 - Q(a, x); with an
    integer a its igamc then reaches only the DLMF 8.7.3 series (x <= 1.1,
    so a = 1) and the continued fraction."""
    a, x = float(a), float(x)
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x > 1.0 and x > a:
        if x <= 1.1:
            return 1.0 - _igamc_series(a, x)
        return 1.0 - _igamc_continued_fraction(a, x)
    return _igam_series(a, x)


# ---------------------------------------------------------------------------
# Poisson loading
# ---------------------------------------------------------------------------

def _poisson_count(g: float, i: int) -> int:
    """Check a Poisson mean and count; return the count as an int."""
    if not 0 <= g < math.inf:
        raise ValueError("mean must be finite and >= 0")
    if isinstance(i, (bool, np.bool_)) or not 0 <= i < math.inf or i != int(i):
        raise ValueError("count must be a non-negative integer")
    return int(i)


def poisson_pmf(g: float, i: int) -> float:
    """P(count == i) for a Poisson distribution with mean g."""
    i = _poisson_count(g, i)
    if g == 0:
        return 1.0 if i == 0 else 0.0
    return math.exp(-g + i * math.log(g) - math.lgamma(i + 1))


def poisson_tail(g: float, i: int) -> float:
    """P(count >= i) for a Poisson distribution with mean g."""
    i = _poisson_count(g, i)
    if i == 0:
        return 1.0
    # Poisson upper tail equals the regularized lower incomplete gamma.
    return _igam(i, g)


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
