"""Acoustic charge conveyance: pockets, capture, exciton formation.

Photogenerated electron-hole pairs snap to the extrema of the travelling
piezoelectric potential (electrons and holes half a wavelength apart), ride
it at the sound velocity v = f * lambda, and are captured into dot sites as
they pass.  Excitons form when both species have arrived and each loaded dot
runs its cascade through the stochastic emitter.

Pocket motion is ballistic and dispersionless, so the device loop processes
exact window-crossing times in chronological order rather than marching in
fixed time steps; capture decisions and their ordering are identical to a
sufficiently fine stepper, at a tiny fraction of the cost.  With the wave
off (amplitude 0) nothing is conveyed: each pair stays at its generation
point and is captured there or recombines.
"""

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import CascadeModel, PumpSpec
from .emitter import PHOTON_DTYPE, sample_cascade_from_loads
from .rng import substream

ELECTRON = "electron"
HOLE = "hole"


@dataclass(frozen=True)
class SawWave:
    """Travelling wave parameters; amplitude in [0, 1] scales capture
    efficiency (0 = no conveyance: pairs stay where they were generated).
    Conveyance is lossless."""

    frequency_mhz: float
    wavelength_um: float
    amplitude: float = 1.0
    direction: int = 1

    def __post_init__(self):
        if self.frequency_mhz <= 0 or self.wavelength_um <= 0:
            raise ValueError("frequency and wavelength must be > 0")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")

    @property
    def velocity_um_per_ns(self) -> float:
        return self.frequency_mhz * 1e-3 * self.wavelength_um

    @property
    def period_ns(self) -> float:
        return 1e3 / self.frequency_mhz


@dataclass(frozen=True)
class LaserSpot:
    """Gaussian generation area and its mean pair yield per laser pulse."""

    center_um: float
    radius_um: float
    pairs_per_pulse: float

    def __post_init__(self):
        if self.radius_um <= 0:
            raise ValueError("spot radius must be > 0")
        if self.pairs_per_pulse < 0:
            raise ValueError("pairs per pulse must be >= 0")


@dataclass
class QdSite:
    """A dot site: fixed position and capture parameters, mutable carrier
    state owned by the device loop."""

    site_id: int
    position_um: float
    capture_radius_um: float
    capture_prob: float
    model: CascadeModel
    y_um: float = 0.0
    n_electrons: int = 0
    n_holes: int = 0
    loads: list = field(default_factory=list)

    def __post_init__(self):
        if self.capture_radius_um <= 0:
            raise ValueError("capture radius must be > 0")
        if not 0.0 <= self.capture_prob <= 1.0:
            raise ValueError("capture probability must be in [0, 1]")
        if self.n_electrons < 0 or self.n_holes < 0:
            raise ValueError("carrier counts must be >= 0")

    @property
    def capacity(self) -> int:
        return self.model.num_levels

    def held(self, species: str) -> int:
        return self.n_electrons if species == ELECTRON else self.n_holes

    def receive(self, species: str, count: int) -> None:
        if species == ELECTRON:
            self.n_electrons += count
        else:
            self.n_holes += count

    def fresh_copy(self) -> "QdSite":
        return replace(self, n_electrons=0, n_holes=0, loads=[])


@dataclass(slots=True)
class CarrierPocket:
    """A packet of one carrier species riding the travelling potential from
    its birth position and time; `next_rank` is the encounter rank of the
    next site it may pass."""

    species: str
    count: int
    position_um: float
    birth_time_ns: float
    next_rank: int = 0

    def __post_init__(self):
        if self.species not in (ELECTRON, HOLE):
            raise ValueError("species must be electron or hole")
        if self.count < 0:
            raise ValueError("count must be >= 0")


@dataclass(frozen=True)
class ChannelLayout:
    """The transport world: channel extent, laser spot, dot sites."""

    extent_um: tuple[float, float]
    spot: LaserSpot
    sites: tuple[QdSite, ...]

    def __post_init__(self):
        lo, hi = self.extent_um
        if not lo < hi:
            raise ValueError("channel extent must be an increasing interval")
        sites = tuple(self.sites)
        ids = [s.site_id for s in sites]
        if len(set(ids)) != len(ids):
            raise ValueError("site ids must be unique")
        for s in sites:
            if not lo <= s.position_um <= hi:
                raise ValueError(
                    f"site {s.site_id} at {s.position_um} um lies outside the "
                    f"channel extent [{lo}, {hi}] um")
        object.__setattr__(self, "sites", sites)


def pocket_lattice_position(x_um: float, t_ns: float, saw: SawWave,
                            species: str) -> tuple[float, int]:
    """Nearest extremum of the travelling potential for the given species.

    Electron pockets sit on a moving lattice of spacing lambda; hole pockets
    on the same lattice shifted by lambda / 2.
    """
    offset = 0.0 if species == ELECTRON else 0.5
    ref = (saw.direction * saw.velocity_um_per_ns * t_ns
           + offset * saw.wavelength_um)
    m = round((x_um - ref) / saw.wavelength_um)
    return ref + m * saw.wavelength_um, int(m)


def pair_positions(spot: LaserSpot, saw: SawWave,
                   rng: np.random.Generator) -> np.ndarray:
    """Generation positions of one laser pulse's electron-hole pairs.

    Pair count is Poisson with the spot's mean; positions are Gaussian around
    the spot.
    """
    n_pairs = int(rng.poisson(spot.pairs_per_pulse))
    # offsets are drawn along the downstream axis so that reversing the
    # direction mirrors the run draw for draw (the Gaussian is symmetric)
    return spot.center_um + saw.direction * rng.normal(0.0, spot.radius_um,
                                                       n_pairs)


def generate_pockets(layout: ChannelLayout, saw: SawWave, pulse_time_ns: float,
                     rng: np.random.Generator) -> list[CarrierPocket]:
    """Pockets created by one laser pulse: each pair's carriers join the
    nearest extremum of their species, in downstream order."""
    grouped: dict[tuple[str, int], list[float]] = {}
    for x in pair_positions(layout.spot, saw, rng):
        for species in (ELECTRON, HOLE):
            pos, m = pocket_lattice_position(float(x), pulse_time_ns, saw, species)
            grouped.setdefault((species, m), []).append(pos)
    return [CarrierPocket(k[0], len(grouped[k]), grouped[k][0], pulse_time_ns)
            for k in sorted(grouped,
                            key=lambda k: (saw.direction * grouped[k][0], k[0]))]


def capture_pass(pocket: CarrierPocket, site: QdSite, rng: np.random.Generator,
                 amplitude: float = 1.0) -> int:
    """One capture attempt as the pocket passes the site.

    With probability capture_prob * amplitude, transfers
    min(pocket count, capacity - already held of that species) carriers.
    Mutates pocket and site; returns the number transferred.
    """
    p_eff = site.capture_prob * amplitude
    if p_eff <= 0 or rng.random() >= p_eff:
        return 0
    room = site.capacity - site.held(pocket.species)
    transferred = min(pocket.count, max(room, 0))
    if transferred:
        pocket.count -= transferred
        site.receive(pocket.species, transferred)
    return transferred


def exciton_formation(site: QdSite, t_ns: float) -> int:
    """Pair up held carriers into excitons at time t (the later arrival).

    Formed excitons are appended to the site's load schedule and removed from
    the held-carrier state; unpaired carriers persist until a partner arrives.
    """
    formed = min(site.n_electrons, site.n_holes)
    if formed:
        site.n_electrons -= formed
        site.n_holes -= formed
        site.loads.append((t_ns, formed))
    return formed


def arrival_delay(distance_um: float, saw: SawWave) -> float:
    """Conveyance time over a distance: d / (f * lambda)."""
    if distance_um < 0:
        raise ValueError("distance must be >= 0")
    return distance_um / saw.velocity_um_per_ns


# ---------------------------------------------------------------------------
# Device event loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaptureEvent:
    time_ns: float
    site_id: int
    species: str
    count: int
    pocket_birth_ns: float
    pocket_birth_um: float


@dataclass
class DeviceLog:
    """Bookkeeping of one device run: tallies, captures and load schedules."""

    pulse_times: list
    generated: dict
    captured: dict
    exited: dict
    in_transit: dict
    recombined: dict
    captures: list
    sites: list  # final site copies, including their load schedules

    def loads_by_site(self) -> dict:
        return {s.site_id: list(s.loads) for s in self.sites}

    def conservation_ok(self) -> bool:
        return all(self.generated[sp] == self.captured[sp] + self.exited[sp]
                   + self.in_transit[sp] + self.recombined[sp]
                   for sp in (ELECTRON, HOLE))


@dataclass
class DeviceResult:
    photons: np.ndarray  # of PHOTON_DTYPE, sorted by time
    log: DeviceLog


def run_device(layout: ChannelLayout, saw: SawWave, pump: PumpSpec,
               duration_ns: float, master_seed: int) -> DeviceResult:
    """Full device run: pulses -> pockets -> conveyance -> capture ->
    exciton formation -> cascade photons.

    Laser pulses follow the pump's period for its pulse count (clipped to the
    run duration); pair yield per pulse comes from the layout's spot.  With
    amplitude 0 each pair is captured whole, with that site's capture
    probability, by the nearest site whose window covers its generation
    point, or else recombines there.  Each photon carries its emitting
    site's position.  The run is a pure function of (layout, saw, pump,
    duration, master_seed).
    """
    if duration_ns <= 0:
        raise ValueError("duration must be > 0")
    rng = substream(master_seed, 0)
    v = saw.velocity_um_per_ns
    d = saw.direction

    sites = [s.fresh_copy() for s in layout.sites]
    sites.sort(key=lambda s: d * s.position_um)  # encounter order
    s_pos = [d * s.position_um for s in sites]
    s_exit = d * (layout.extent_um[1] if d > 0 else layout.extent_um[0])

    def zero():
        return {ELECTRON: 0, HOLE: 0}

    log = DeviceLog(pulse_times=[], generated=zero(), captured=zero(),
                    exited=zero(), in_transit=zero(), recombined=zero(),
                    captures=[], sites=sites)
    for p in range(pump.num_pulses):
        t = p * pump.pulse_period_ns
        if t > duration_ns:
            break
        log.pulse_times.append(t)

    heap: list = []  # (crossing time, scheduling order, pocket)
    seq = 0
    conveyed: list[CarrierPocket] = []

    def schedule(pk: CarrierPocket) -> None:
        # Capture is attempted as the pocket crosses the site center, so the
        # conveyance delay is exactly |site - birth| / v; a pocket born inside
        # the capture window but already past the center attempts at birth.
        # Positions are signed along the downstream axis.
        nonlocal seq
        s0 = d * pk.position_um
        while pk.next_rank < len(sites):
            sp = s_pos[pk.next_rank]
            if s0 > sp + sites[pk.next_rank].capture_radius_um:  # born past
                pk.next_rank += 1
                continue
            t_cross = pk.birth_time_ns + max(sp - s0, 0.0) / v
            if t_cross > duration_ns:
                return
            heapq.heappush(heap, (t_cross, seq, pk))
            seq += 1
            return

    def cross_before(t_stop: float) -> None:
        # a pulse goes before the crossings at its own time
        while heap and heap[0][0] < t_stop:
            t, _, pk = heapq.heappop(heap)
            site = sites[pk.next_rank]
            transferred = capture_pass(pk, site, rng, saw.amplitude)
            if transferred:
                log.captured[pk.species] += transferred
                log.captures.append(CaptureEvent(
                    t, site.site_id, pk.species, transferred,
                    pk.birth_time_ns, pk.position_um))
                exciton_formation(site, t)
            pk.next_rank += 1
            if pk.count > 0:
                schedule(pk)

    def strand(x: float, t: float) -> None:
        log.generated[ELECTRON] += 1
        log.generated[HOLE] += 1
        near = [s for s in sites if abs(s.position_um - x) <= s.capture_radius_um]
        site = min(near, key=lambda s: abs(s.position_um - x), default=None)
        if site is not None and rng.random() < site.capture_prob:
            site.receive(ELECTRON, 1)
            site.receive(HOLE, 1)
            for species in (ELECTRON, HOLE):
                log.captured[species] += 1
                log.captures.append(CaptureEvent(t, site.site_id, species, 1,
                                                 t, x))
            exciton_formation(site, t)
        else:
            log.recombined[ELECTRON] += 1
            log.recombined[HOLE] += 1

    for t in log.pulse_times:
        cross_before(t)
        if saw.amplitude == 0:
            for x in pair_positions(layout.spot, saw, rng):
                strand(float(x), t)
            continue
        for pk in generate_pockets(layout, saw, t, rng):
            log.generated[pk.species] += pk.count
            conveyed.append(pk)
            schedule(pk)
    cross_before(math.inf)

    # classify leftover carriers at the end of the run
    for pk in conveyed:
        if pk.count == 0:
            continue
        s_end = d * pk.position_um + v * (duration_ns - pk.birth_time_ns)
        bucket = log.exited if s_end > s_exit else log.in_transit
        bucket[pk.species] += pk.count

    photons = np.concatenate([np.zeros(0, PHOTON_DTYPE)] + [
        sample_cascade_from_loads(site.model, site.loads,
                                  substream(master_seed, 1, rank),
                                  emitter_id=site.site_id,
                                  position_um=(site.position_um, site.y_um))
        for rank, site in enumerate(sites) if site.loads])
    photons = photons[np.argsort(photons["time_ns"], kind="stable")]
    return DeviceResult(photons=photons, log=log)


# ---------------------------------------------------------------------------
# Scenario building blocks
# ---------------------------------------------------------------------------

def uniform_site_field(density_per_um2: float,
                       extent_um: tuple[tuple[float, float], tuple[float, float]],
                       model: CascadeModel, capture_radius_um: float,
                       capture_prob: float,
                       rng: np.random.Generator) -> list[QdSite]:
    """Random dot field with the given areal density over a 2-d extent."""
    (x0, x1), (y0, y1) = extent_um
    area = (x1 - x0) * (y1 - y0)
    if area <= 0:
        raise ValueError("field extent must have positive area")
    count = int(rng.poisson(density_per_um2 * area))
    xs = rng.uniform(x0, x1, count)
    ys = rng.uniform(y0, y1, count)
    return [QdSite(i, float(xs[i]), capture_radius_um, capture_prob,
                   model, y_um=float(ys[i])) for i in range(count)]


def per_cycle_emission_times(num_cycles: int, period_ns: float,
                             capture_prob: float, lifetime_ns: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Photon times of a capacity-1 site injected once per SAW cycle.

    Each cycle loads at most one exciton (with the capture probability); the
    photon follows after an exponential radiative wait.  This is the
    antibunching regime of the device: never two excitons in one cycle.
    """
    if num_cycles < 1:
        raise ValueError("need at least one cycle")
    if period_ns <= 0 or lifetime_ns <= 0:
        raise ValueError("period and lifetime must be > 0")
    if not 0.0 <= capture_prob <= 1.0:
        raise ValueError("capture probability must be in [0, 1]")
    loaded = np.nonzero(rng.random(num_cycles) < capture_prob)[0]
    times = loaded * period_ns + rng.exponential(lifetime_ns, loaded.size)
    return np.sort(times)
