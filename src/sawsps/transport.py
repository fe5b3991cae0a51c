"""Acoustic charge conveyance: pockets, capture, exciton formation.

Photogenerated electron-hole pairs snap to the extrema of the travelling
piezoelectric potential (electrons and holes half a wavelength apart), ride
it at the sound velocity v = f * lambda, and are captured into dot sites as
they pass.  Excitons form when both species have arrived and each loaded dot
runs its cascade through the stochastic emitter.

Pocket motion is ballistic and dispersionless, so the device loop processes
exact window-crossing times in chronological order rather than marching in
fixed time steps; capture decisions and their ordering are identical to a
sufficiently fine stepper, at a tiny fraction of the cost.
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
    efficiency (0 = no conveyance, carriers recombine at the spot).

    Conveyance is lossless by default; `loss_per_um` is an optional carrier
    loss rate along the channel (binomial thinning per travelled distance).
    """

    frequency_mhz: float
    wavelength_um: float
    amplitude: float = 1.0
    direction: int = 1
    phase_rad: float = 0.0
    loss_per_um: float = 0.0

    def __post_init__(self):
        if self.frequency_mhz <= 0 or self.wavelength_um <= 0:
            raise ValueError("frequency and wavelength must be > 0")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        if self.loss_per_um < 0:
            raise ValueError("loss rate must be >= 0")

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
    center_y_um: float = 0.0

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


@dataclass
class CarrierPocket:
    """A packet of one carrier species riding (or, unpocketed, stranded at)
    the travelling potential."""

    species: str
    count: int
    position_um: float
    birth_time_ns: float
    cycle_index: int
    pocketed: bool = True

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
    field_extent_um: tuple[tuple[float, float], tuple[float, float]] | None = None

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
           + (saw.phase_rad / (2 * math.pi) + offset) * saw.wavelength_um)
    m = round((x_um - ref) / saw.wavelength_um)
    return ref + m * saw.wavelength_um, int(m)


def generate_pockets(layout: ChannelLayout, saw: SawWave, pulse_time_ns: float,
                     rng: np.random.Generator) -> list[CarrierPocket]:
    """Pockets created by one laser pulse.

    Pair count is Poisson with the spot's mean; positions are Gaussian around
    the spot.  With amplitude 0 the carriers are not pocketed: they are
    returned as stationary unit pairs (electron, hole interleaved) marked for
    local recombination at their generation position.
    """
    n_pairs = int(rng.poisson(layout.spot.pairs_per_pulse))
    if n_pairs == 0:
        return []
    # offsets are drawn along the downstream axis so that reversing the
    # direction mirrors the run draw for draw (the Gaussian is symmetric)
    offsets = rng.normal(0.0, layout.spot.radius_um, n_pairs)
    xs = layout.spot.center_um + saw.direction * offsets
    if saw.amplitude == 0:
        pockets = []
        for x in xs:
            pockets.append(CarrierPocket(ELECTRON, 1, float(x), pulse_time_ns,
                                         0, pocketed=False))
            pockets.append(CarrierPocket(HOLE, 1, float(x), pulse_time_ns,
                                         0, pocketed=False))
        return pockets
    grouped: dict[tuple[str, int], list[float]] = {}
    for x in xs:
        for species in (ELECTRON, HOLE):
            pos, m = pocket_lattice_position(float(x), pulse_time_ns, saw, species)
            grouped.setdefault((species, m), []).append(pos)
    pockets = []
    for (species, m) in sorted(
            grouped, key=lambda k: (saw.direction * grouped[k][0], k[0])):
        positions = grouped[(species, m)]
        pockets.append(CarrierPocket(species, len(positions), positions[0],
                                     pulse_time_ns, m))
    return pockets


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
    lost: dict
    captures: list
    sites: list  # final site copies, including their load schedules

    def loads_by_site(self) -> dict:
        return {s.site_id: list(s.loads) for s in self.sites}

    def conservation_ok(self) -> bool:
        return all(self.generated[sp] == self.captured[sp] + self.exited[sp]
                   + self.in_transit[sp] + self.recombined[sp] + self.lost[sp]
                   for sp in (ELECTRON, HOLE))


@dataclass
class DeviceResult:
    photons: np.ndarray  # of PHOTON_DTYPE, sorted by time
    log: DeviceLog


class _Flight:
    """A pocket in ballistic flight, tracked in signed (downstream) coords."""

    __slots__ = ("pocket", "s0", "t0", "next_rank", "s_thinned")

    def __init__(self, pocket, s0, t0):
        self.pocket = pocket
        self.s0 = s0
        self.t0 = t0
        self.next_rank = 0
        self.s_thinned = s0


def run_device(layout: ChannelLayout, saw: SawWave, pump: PumpSpec,
               duration_ns: float, master_seed: int) -> DeviceResult:
    """Full device run: pulses -> pockets -> conveyance -> capture ->
    exciton formation -> cascade photons.

    Laser pulses follow the pump's period for its pulse count (clipped to the
    run duration); pair yield per pulse comes from the layout's spot.  Each
    photon carries its emitting site's position.  The run is a pure function
    of (layout, saw, pump, duration, master_seed).
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
                    lost=zero(), captures=[], sites=sites)

    heap: list = []
    seq = 0
    PULSE, CROSSING = 0, 1
    for p in range(pump.num_pulses):
        t = p * pump.pulse_period_ns
        if t > duration_ns:
            break
        heapq.heappush(heap, (t, PULSE, seq, None))
        seq += 1
        log.pulse_times.append(t)

    flights: list[_Flight] = []

    def schedule(fl: _Flight) -> None:
        # Capture is attempted as the pocket crosses the site center, so the
        # conveyance delay is exactly |site - birth| / v; a pocket born inside
        # the capture window but already past the center attempts at birth.
        nonlocal seq
        while fl.next_rank < len(sites):
            site = sites[fl.next_rank]
            sp = s_pos[fl.next_rank]
            if fl.s0 > sp + site.capture_radius_um:  # born past the window
                fl.next_rank += 1
                continue
            t_cross = fl.t0 + max(sp - fl.s0, 0.0) / v
            if t_cross > duration_ns:
                return
            heapq.heappush(heap, (t_cross, CROSSING, seq, fl))
            seq += 1
            return

    while heap:
        t, kind, _, payload = heapq.heappop(heap)
        if kind == PULSE:
            pockets = generate_pockets(layout, saw, t, rng)
            if saw.amplitude == 0:
                # pairs stranded at the spot: direct capture or local recombination
                for e_pk, h_pk in zip(pockets[0::2], pockets[1::2]):
                    log.generated[ELECTRON] += 1
                    log.generated[HOLE] += 1
                    x = e_pk.position_um
                    near = [s for s in sites
                            if abs(s.position_um - x) <= s.capture_radius_um]
                    captured = False
                    if near:
                        site = min(near, key=lambda s: abs(s.position_um - x))
                        if rng.random() < site.capture_prob:
                            site.receive(ELECTRON, 1)
                            site.receive(HOLE, 1)
                            for species in (ELECTRON, HOLE):
                                log.captured[species] += 1
                                log.captures.append(CaptureEvent(
                                    t, site.site_id, species, 1, t, x))
                            exciton_formation(site, t)
                            captured = True
                    if not captured:
                        log.recombined[ELECTRON] += 1
                        log.recombined[HOLE] += 1
                continue
            for pk in pockets:
                log.generated[pk.species] += pk.count
                fl = _Flight(pk, d * pk.position_um, t)
                flights.append(fl)
                schedule(fl)
        else:
            fl = payload
            pk = fl.pocket
            rank = fl.next_rank
            site = sites[rank]
            if saw.loss_per_um > 0 and pk.count > 0:
                s_now = max(s_pos[rank], fl.s0)
                survival = math.exp(-saw.loss_per_um * (s_now - fl.s_thinned))
                kept = int(rng.binomial(pk.count, survival))
                log.lost[pk.species] += pk.count - kept
                pk.count = kept
                fl.s_thinned = s_now
                if pk.count == 0:
                    continue
            transferred = capture_pass(pk, site, rng, saw.amplitude)
            if transferred:
                log.captured[pk.species] += transferred
                log.captures.append(CaptureEvent(
                    t, site.site_id, pk.species, transferred,
                    fl.t0, d * fl.s0))
                exciton_formation(site, t)
            fl.next_rank = rank + 1
            if pk.count > 0:
                schedule(fl)

    # classify leftover carriers at the end of the run
    for fl in flights:
        if fl.pocket.count == 0:
            continue
        s_end = fl.s0 + v * (duration_ns - fl.t0)
        bucket = log.exited if s_end > s_exit else log.in_transit
        bucket[fl.pocket.species] += fl.pocket.count

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
                       capture_prob: float, rng: np.random.Generator,
                       first_id: int = 0) -> list[QdSite]:
    """Random dot field with the given areal density over a 2-d extent."""
    (x0, x1), (y0, y1) = extent_um
    area = (x1 - x0) * (y1 - y0)
    if area <= 0:
        raise ValueError("field extent must have positive area")
    count = int(rng.poisson(density_per_um2 * area))
    xs = rng.uniform(x0, x1, count)
    ys = rng.uniform(y0, y1, count)
    return [QdSite(first_id + i, float(xs[i]), capture_radius_um, capture_prob,
                   model, y_um=float(ys[i])) for i in range(count)]


def per_cycle_emission_times(num_cycles: int, period_ns: float,
                             capture_prob: float, lifetime_ns: float,
                             rng: np.random.Generator,
                             formation_delay_ns: float = 0.0) -> np.ndarray:
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
    times = (loaded * period_ns + formation_delay_ns
             + rng.exponential(lifetime_ns, loaded.size))
    return np.sort(times)
