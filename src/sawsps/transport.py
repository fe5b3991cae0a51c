"""Acoustic charge conveyance: pockets, capture, exciton formation.

Photogenerated electron-hole pairs snap to the extrema of the travelling
piezoelectric potential (electrons and holes half a wavelength apart), ride
it at the sound velocity v = f * lambda, and are captured into dot sites as
they pass.  Excitons form when both species have arrived and each loaded dot
runs its cascade through the stochastic emitter.

The dots are one `SiteField`: a column per site property, a row per site,
and the row is the site's id.  Pocket motion is ballistic and
dispersionless, so geometry alone fixes which sites a pocket passes and
when, and so the draw of the capture stream each pass reads (pocket by
pocket in birth order).  Only the passes whose uniform succeeds (hits) can
change a pocket or a site; `capture_pass` states the rule of one pass.  The
device kernel takes the sites in encounter order (a stable sort of
direction * x); a site's hits, in order of crossing time and pocket, walk
its held carriers, and one clamp-add prefix scan resolves all of them, or
all of a run of sites whose pocket counts are known at its start.  The
draws are read by offset, a window of a pocket's passes at a time, and a
later window only while the pocket still holds carriers.  Only a draw below
the largest capture probability can hit, so only those draws are given
their site rank and compared with that site's probability.  With the wave
off (amplitude 0) nothing is conveyed: each pair stays at its generation
point and is captured there or recombines.
"""

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeModel
from .emitter import sample_cascade_from_loads
from .rng import substream, substreams

ELECTRON = "electron"
HOLE = "hole"
# the species column of pockets indexes this
SPECIES = (ELECTRON, HOLE)


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
        if not (0 < self.frequency_mhz < math.inf
                and 0 < self.wavelength_um < math.inf):
            raise ValueError("frequency and wavelength must be finite and > 0")
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
        if not (math.isfinite(self.center_um) and 0 < self.radius_um < math.inf):
            raise ValueError("spot center and radius must be finite, radius > 0")
        if not 0 <= self.pairs_per_pulse < math.inf:
            raise ValueError("pairs per pulse must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class SiteField:
    """Dot sites as columns, one row per site; a site's id is its row.

    `x_um` lies along the channel, `y_um` across it.  Each site captures
    within `capture_radius_um` of its x, with probability `capture_prob` per
    pass, and runs the cascade of its entry of `models` (its capacity is
    that model's number of levels).  The columns are stored as read-only
    float arrays.
    """

    x_um: np.ndarray
    y_um: np.ndarray
    capture_radius_um: np.ndarray
    capture_prob: np.ndarray
    models: tuple[CascadeModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        for name in ("x_um", "y_um", "capture_radius_um", "capture_prob"):
            column = np.array(getattr(self, name), dtype=float)
            if column.shape != (len(self.models),):
                raise ValueError("need one 1-d entry per site in every column "
                                 "and one model per site")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not (np.isfinite(self.x_um).all() and np.isfinite(self.y_um).all()):
            raise ValueError("site x and y must be finite")
        radius, prob = self.capture_radius_um, self.capture_prob
        if not ((0 < radius) & (radius < math.inf)).all():
            raise ValueError("capture radius must be finite and > 0")
        if not ((0 <= prob) & (prob <= 1)).all():
            raise ValueError("capture probability must be in [0, 1]")

    def __len__(self) -> int:
        return len(self.models)


POCKET_DTYPE = np.dtype([("species", "i1"), ("count", "i8"),
                         ("position_um", "f8"), ("birth_time_ns", "f8")])

# The device kernel sweeps the sites DRAW_WINDOW ranks at a time, and capture
# draws are taken DRAW_WINDOW passes of a pocket at a time, in calls over
# pockets that hold about DRAW_BLOCK passes, which bounds memory.  Each pass
# reads its own draw of the stream by offset, so neither size shows in the
# outputs.  `per_cycle_emission_times` draws and walks its cycles DRAW_BLOCK
# at a time; consecutive draws continue one stream, so that size does not
# show either.
DRAW_BLOCK = 1 << 16
DRAW_WINDOW = 256
# The kernel resolves a run of sites in one scan, and looks for the run's end
# at most SCAN_HITS hits past its first site, which bounds that search.  Any
# run gives the same outputs.
SCAN_HITS = 2048


def pocket_lattice_position(x_um, t_ns, saw: SawWave, species: str):
    """Nearest extremum of the travelling potential for the given species,
    as (position, lattice index), elementwise over arrays.

    Electron pockets sit on a moving lattice of spacing lambda; hole pockets
    on the same lattice shifted by lambda / 2.  A pair exactly between two
    extrema joins the even one (`np.round`, like `round`).
    """
    offset = 0.0 if species == ELECTRON else 0.5
    ref = (saw.direction * saw.velocity_um_per_ns * np.asarray(t_ns)
           + offset * saw.wavelength_um)
    m = np.round((x_um - ref) / saw.wavelength_um)
    return ref + m * saw.wavelength_um, m


def draw_pairs(spot: LaserSpot, saw: SawWave, pulse_times: np.ndarray,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Birth times and positions of every pulse's electron-hole pairs, pulse
    by pulse: Poisson counts with the spot's mean, then Gaussian positions
    around the spot, each drawn in one call."""
    pulse_times = np.asarray(pulse_times, dtype=float)
    counts = rng.poisson(spot.pairs_per_pulse, pulse_times.size)
    # offsets are drawn along the downstream axis so that reversing the
    # direction mirrors the run draw for draw (the Gaussian is symmetric)
    offsets = rng.normal(0.0, spot.radius_um, int(counts.sum()))
    return np.repeat(pulse_times, counts), spot.center_um + saw.direction * offsets


def launch_pockets(times: np.ndarray, xs: np.ndarray, saw: SawWave) -> np.ndarray:
    """Pockets of the given pairs (POCKET_DTYPE), in birth order: by birth
    time, then downstream.  Each pair's carriers join the nearest extremum of
    their species; the carriers of one pulse at one extremum form a pocket."""
    species = np.repeat(np.arange(2, dtype=np.int8), len(times))
    pos = np.concatenate([pocket_lattice_position(xs, times, saw, sp)[0]
                          for sp in SPECIES])
    born = np.concatenate([times, times])
    order = np.lexsort((species, saw.direction * pos, born))
    species, pos, born = species[order], pos[order], born[order]
    new = np.ones(born.size, bool)
    new[1:] = ((born[1:] != born[:-1]) | (pos[1:] != pos[:-1])
               | (species[1:] != species[:-1]))
    first = np.flatnonzero(new)
    pockets = np.zeros(first.size, POCKET_DTYPE)
    pockets["species"] = species[first]
    pockets["count"] = np.diff(np.append(first, born.size))
    pockets["position_um"] = pos[first]
    pockets["birth_time_ns"] = born[first]
    return pockets


def capture_pass(count: int, held: int, capacity: int, p_eff: float,
                 rng) -> int:
    """One capture attempt as a pocket of `count` carriers passes a site
    that holds `held` of that species: with probability `p_eff` (one
    uniform of `rng`, drawn only if `p_eff` > 0) it moves
    min(count, capacity - held) carriers.  Returns the number moved."""
    if p_eff <= 0 or rng.random() >= p_eff:
        return 0
    return min(count, max(capacity - held, 0))


# ---------------------------------------------------------------------------
# Device run
# ---------------------------------------------------------------------------

@dataclass
class DeviceLog:
    """Bookkeeping of one device run: its pulse times and carrier tallies by
    species (exited: left in a pocket past the last site)."""

    pulse_times: np.ndarray
    generated: dict
    captured: dict
    exited: dict
    recombined: dict

    def conservation_ok(self) -> bool:
        return all(self.generated[sp] == self.captured[sp] + self.exited[sp]
                   + self.recombined[sp] for sp in SPECIES)


@dataclass
class DeviceResult:
    photons: np.ndarray  # of PHOTON_DTYPE, by time, ties in encounter order
    log: DeviceLog


def _stream_reader(rng):
    """`read(j, n)`: draws j to j + n - 1 of the stream of `rng`, a numpy
    Philox generator, wherever it stands.  Philox makes block b of four
    words at counter b + 1, and a double takes one word."""
    bits, state = rng.bit_generator, rng.bit_generator.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)

    def read(j, n):
        state["state"]["counter"][:] = (j // 4, 0, 0, 0)
        bits.state = state
        return rng.random(j % 4 + n)[j % 4:]
    return read


def _pass_layout(s0, sp, radius):
    """The number of passes of each pocket and `rank(pk, k)`, the site rank
    of pass k of pocket pk, elementwise.

    A pocket passes, in rank order, the sites behind its birth point whose
    window still covers it (s0 <= sp + radius), then every site from its
    birth point on.
    """
    m = np.searchsorted(sp, s0)
    # behind s0 only ranks past s0 - radius can cover it, each checked; the
    # crossing there is the birth
    slack = 1e-9 * (1.0 + np.abs(sp).max() + np.abs(s0).max())
    size = m - np.searchsorted(sp, s0 - radius.max() - slack)
    pk = np.repeat(np.arange(s0.size), size)
    back = np.arange(pk.size) + np.repeat(m - np.cumsum(size), size)
    ok = s0[pk] <= sp[back] + radius[back]
    n_back = np.bincount(pk[ok], minlength=s0.size)
    # a pocket's band ends at stop in back; a pass past the band reads
    # back[stop - 1] (a rank, or the trailing 0) and discards it
    back, stop = np.append(back[ok], 0), np.cumsum(n_back)

    def rank(pk, k):
        k = k - n_back[pk]  # < 0 in the band behind s0
        return np.where(k < 0, back[stop[pk] + np.minimum(k, -1)], m[pk] + k)
    return n_back + sp.size - m, rank


def _crossing(born, s0, sp, v):
    """When a pocket born at signed position s0 passes the site at sp: at
    the site center, or at birth if born inside the window past it."""
    return born + np.maximum(sp - s0, 0.0) / v


def _clamp_add_scan(d, lo, hi):
    """Every state x_k = min(hi_k, max(lo_k, x_{k-1} + d_k)) of a walk from
    x_0 = 0, where lo_k <= hi_k.

    Measured from the running sum D_k of the d, the state x - D_k takes step
    k as a clamp to [lo_k - D_k, hi_k - D_k], and a clamp to [a1, b1], then
    to [a2, b2], is the clamp to [a1, b1] clamped to [a2, b2].  So
    ceil(log2(len)) rounds of doubling (Hillis & Steele, CACM 1986) compose
    every prefix.
    """
    total = np.cumsum(d)
    ends = np.stack([lo - total, hi - total])
    s = 1
    while s < total.size:
        ends[:, s:] = np.minimum(np.maximum(ends[:, :-s], ends[0, s:]), ends[1, s:])
        s *= 2
    return total + np.minimum(np.maximum(ends[0], 0), ends[1])


def _convey(pockets, pos, radius, prob, capacity, saw, rng):
    """Conveyed pockets through the sites (columns in encounter order), a
    block of DRAW_WINDOW ranks at a time, and in a block site by site.  A
    pocket's count changes only at its own hits (passes whose capture draw
    succeeds), which come in rank order, and a site's held carriers only at
    that site's hits, in (time, pocket) order; so the run is the one a
    global clock would make.

    A site's held carriers are its excess x = electrons - holes in [-c, c]
    (excitons form at once, so one species is held at a time), 0 before its
    first hit.  A hit of a pocket holding n carriers moves x to
    clip(x + min(n, c), -c, c) for electrons and clip(x - min(n, c), -c, c)
    for holes; a pocket run dry leaves x as it is.  So once the sites before
    it are done, a site's hits in (time, pocket) order are one
    `_clamp_add_scan`.  One scan resolves a run of sites, each site's first
    hit a constant map, as long as the counts at the run's start give every
    hit's min(n, c): the run ends before the first site where a pocket's
    earlier captures in the run could change it.  A hit captures |x' - x|
    carriers, and as many of them form excitons as the other species held
    before it.

    Pass k of pocket i reads draw O_i + k of `rng`'s stream, where O_i
    counts the passes of the pockets born before it.  Before each block,
    each pocket that still holds carriers and has undrawn passes in the
    block draws its next window of DRAW_WINDOW passes, which covers at
    least DRAW_WINDOW ranks and so reaches past the block.  A window's
    draws are first compared with the largest capture probability; only
    those below it are ranked and compared with their site's, which gives
    the same hits.

    Returns the pocket counts left and the captures as columns (time,
    pocket, rank, carriers moved, excitons formed), in the order the blocks
    resolve them: by rank, then (time, pocket), so each site's captures are
    contiguous and in time order.  The captures that formed excitons are
    the loads.
    """
    d, v = saw.direction, saw.velocity_um_per_ns
    sp, s0 = d * pos, d * pockets["position_um"]
    born, n = pockets["birth_time_ns"], len(pockets)
    counts = pockets["count"].copy()
    sign = 1 - 2 * pockets["species"].astype(np.int64)  # +1 electron, -1 hole
    c_max = capacity.max(initial=0)
    # (pocket, rank, carriers moved, excitons formed) of each capture, by block
    caps = [np.zeros((4, 0), np.int64)]
    if n and sp.size:  # else no pocket passes a site
        passes, rank_at = _pass_layout(s0, sp, radius)
        offset, drawn = np.cumsum(passes) - passes, np.zeros(n, np.int64)
        read = _stream_reader(rng)
        p_eff = prob * saw.amplitude
        p_max = p_eff.max()

        def window(pks):
            """Draw the next window of each pocket of `pks`: (pocket, rank) of
            its hits."""
            take = np.minimum(passes[pks] - drawn[pks], DRAW_WINDOW)
            at = offset[pks] + drawn[pks]  # where each window starts
            # windows that follow on in the stream share one read
            calls = np.flatnonzero(np.append(True, at[1:] != at[:-1] + take[:-1]))
            u = np.concatenate([read(j, c) for j, c in zip(
                at[calls].tolist(), np.add.reduceat(take, calls).tolist())])
            # only a draw below the largest probability can hit: rank those
            # (draw i of the read, in window w, is pass i + base[w])
            ends = np.cumsum(take)
            cand = np.flatnonzero(u < p_max)
            w = np.searchsorted(ends, cand, side="right")
            base = drawn[pks] - ends + take
            drawn[pks] += take
            pk = pks[w]
            rank = rank_at(pk, cand + base[w])
            hit = u[cand] < p_eff[rank]
            return pk[hit], rank[hit]

        rank_type = np.min_scalar_type(sp.size)

        def resolve(pk, rank):
            """Resolve the hits (pocket, rank) of a block: (pocket, rank,
            carriers moved, excitons formed) of each capture.  Its columns
            are freed before the next block draws."""
            # each hit's place among its pocket's hits in the block (drawn
            # pocket by pocket, each in rank order, they need little sorting)
            by_pocket = np.argsort(pk, kind="stable")
            pk, rank = pk[by_pocket], rank[by_pocket]
            place = np.arange(pk.size) - np.maximum.accumulate(
                np.where(np.diff(pk, prepend=-1) != 0, np.arange(pk.size), 0))
            # a pocket passes a rank once, so in pocket order a stable sort by
            # (rank, crossing) is the sort by (rank, crossing, pocket); a
            # stable sort of ranks in their smallest type is a radix sort
            order = np.lexsort((_crossing(born[pk], s0[pk], sp[rank], v),
                                rank.astype(rank_type)))
            pk, rank, place = pk[order], rank[order], place[order]
            step, cap = sign[pk], capacity[rank]
            first = np.diff(rank, prepend=-1) != 0  # a site's first hit
            cuts = np.flatnonzero(first).tolist() + [pk.size]
            resolved = np.zeros(n, np.int64)  # of each pocket's hits in the block
            # the excess before and after each hit
            before, after = np.zeros((2, pk.size), np.int64)
            a = 0
            while a < pk.size:
                # the run: whole sites, up to the first with a hit whose
                # min(n, c) the counts now do not give; they give it for a
                # pocket's first hit in the run, for a pocket run dry, and for
                # one holding c_max for this hit and each before it in the run
                i = pk[a:max(a + SCAN_HITS, cuts[bisect_right(cuts, a)])]
                earlier, held = place[a:a + i.size] - resolved[i], counts[i]
                known = (earlier == 0) | (held == 0) | (held >= c_max * (earlier + 1))
                e = cuts[bisect_right(cuts, a + np.append(known, False).argmin()) - 1]
                i, c, f = pk[a:e], cap[a:e], first[a:e]
                d = step[a:e] * np.minimum(counts[i], c)
                # a site's first hit starts its walk from 0: a constant map
                after[a:e] = _clamp_add_scan(np.where(f, 0, d), np.where(f, d, -c),
                                             np.where(f, d, c))
                before[a + 1:e] = np.where(f[1:], 0, after[a:e - 1])
                np.subtract.at(counts, i, np.abs(after[a:e] - before[a:e]))
                np.add.at(resolved, i, 1)
                a = e
            moved = np.abs(after - before)
            kept = moved > 0  # the captures
            pk, rank, moved, before, step = (
                c[kept] for c in (pk, rank, moved, before, step))
            formed = np.minimum(moved, np.maximum(-step * before, 0))
            return np.stack([pk, rank, moved, formed])

        pool = np.zeros((2, 0), np.int64)  # (pocket, rank) of hits not visited
        for lo in range(0, sp.size, DRAW_WINDOW):
            hi = lo + DRAW_WINDOW
            live = counts > 0
            need = np.flatnonzero(live & (drawn < passes))
            need = need[rank_at(need, drawn[need]) < hi]
            ends = np.cumsum(np.minimum(passes[need] - drawn[need], DRAW_WINDOW))
            hits = np.concatenate([pool] + [window(pks) for pks in np.split(
                need, np.flatnonzero(np.diff(ends // DRAW_BLOCK)) + 1) if pks.size],
                axis=1)
            # a pocket run dry captures no more
            hits = hits.compress(live[hits[0]], axis=1)
            now = hits[1] < hi
            pool, hits = hits.compress(~now, axis=1), hits.compress(now, axis=1)
            caps.append(resolve(*hits))
    caps = np.concatenate(caps, axis=1)
    pk, rank = caps[:2]
    return counts, (_crossing(born[pk], s0[pk], sp[rank], v), *caps)


def _nearest_covering(xs, pos, radius):
    """Encounter rank of the nearest site (columns in encounter order) whose
    capture window covers each position (the first of equally near ones),
    or -1."""
    nearest = np.full(len(xs), -1, np.intp)
    if pos.size == 0:
        return nearest
    step = max(DRAW_BLOCK // pos.size, 1)
    for a in range(0, len(xs), step):
        dist = np.abs(pos - xs[a:a + step, None])
        dist[dist > radius] = np.inf
        k = np.argmin(dist, axis=1)
        nearest[a:a + step] = np.where(
            np.isfinite(dist[np.arange(k.size), k]), k, -1)
    return nearest


def _zero() -> dict:
    return {ELECTRON: 0, HOLE: 0}


def _check_count(n, what: str) -> None:
    """A count must be an integer >= 1; a bool or a fraction is refused."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"need an integer number of {what} >= 1, got {n!r}")


def run_device(spot: LaserSpot, sites: SiteField, saw: SawWave,
               pulse_period_ns: float, num_pulses: int, master_seed: int,
               variant: int = 0) -> DeviceResult:
    """Full device run: pulses -> pockets -> conveyance -> capture ->
    exciton formation -> cascade photons.

    `num_pulses` (an integer >= 1) laser pulses fire every
    `pulse_period_ns` from t = 0; pair yield per pulse comes from `spot`.
    The sites are met in order of direction * x, ties in row order.  The run
    ends once every pocket has passed the last site.  A pass captures with probability
    capture_prob * amplitude and moves min(pocket count, room for that
    species) carriers; passes at one instant go in order of pocket birth,
    then of site.  With amplitude 0 each pair is captured whole, with that
    site's capture probability, by the nearest site whose window covers its
    generation point, or else recombines there.  Each photon carries its
    emitting site's row as its id and the site's (x, y) as its position.
    The loads (captures that form excitons) reach the sampler in the order
    the kernel resolves them, site by site in encounter order and each
    site's in time order, with no sort between.  The log holds the pulse
    times and the carrier tallies; the captures themselves are not kept.
    The run is a pure function of its arguments; runs that differ only in
    `variant` draw from disjoint streams (see `rng`).
    """
    if not 0 < pulse_period_ns < math.inf:
        raise ValueError("pulse period must be finite and > 0")
    _check_count(num_pulses, "pulses")
    # encounter order: the site id of each rank
    site_ids = np.argsort(saw.direction * sites.x_um, kind="stable")
    pos = sites.x_um[site_ids]
    radius = sites.capture_radius_um[site_ids]
    prob = sites.capture_prob[site_ids]
    capacity = np.array([m.num_levels for m in sites.models],
                        np.int64)[site_ids]

    pulse_times = np.arange(num_pulses) * pulse_period_ns
    pair_t, pair_x = draw_pairs(spot, saw, pulse_times,
                                substream(master_seed, 0, variant))
    rng = substream(master_seed, 3, variant)
    log = DeviceLog(pulse_times, _zero(), _zero(), _zero(), _zero())

    if saw.amplitude == 0:
        uniform = rng.random(pair_t.size)
        rank = _nearest_covering(pair_x, pos, radius)
        # rank -1 (no covering site) reads the trailing 0: never captured
        pair = np.flatnonzero(uniform < np.append(prob, 0.0)[rank])
        for sp in SPECIES:
            log.generated[sp] = int(pair_t.size)
            log.captured[sp] = int(pair.size)
            log.recombined[sp] = int(pair_t.size - pair.size)
        # each captured pair is a load of one exciton; the pairs come in
        # birth order, the sampler takes them site by site
        pair = pair[np.argsort(rank[pair], kind="stable")]
        load_time, load_rank = pair_t[pair], rank[pair]
        load_n = np.ones(pair.size, np.int64)
    else:
        pockets = launch_pockets(pair_t, pair_x, saw)
        counts, (t, pk, rank, moved, formed) = _convey(
            pockets, pos, radius, prob, capacity, saw, rng)
        species = pockets["species"]
        captured = np.bincount(species[pk], moved, minlength=2)
        for code, sp in enumerate(SPECIES):
            mine = species == code
            log.generated[sp] = int(pockets["count"][mine].sum())
            log.captured[sp] = int(captured[code])
            log.exited[sp] = int(counts[mine].sum())
        load = formed > 0
        load_time, load_rank, load_n = t[load], rank[load], formed[load]
        # freed before the sampler runs: its peak does not add to theirs
        del t, pk, rank, moved, formed, load

    # the loads come in rank order: a site's loads are one run of its rank
    head = np.diff(load_rank, prepend=-1) != 0
    ranks, load_site = load_rank[head], np.cumsum(head) - 1
    loaded = site_ids[ranks]
    photons = sample_cascade_from_loads(
        [sites.models[i] for i in loaded.tolist()], load_time, load_n,
        substreams(master_seed, 1, variant, ranks), load_site,
        emitter_ids=loaded,
        positions_um=np.stack([sites.x_um[loaded], sites.y_um[loaded]], 1))
    photons = photons[np.argsort(photons["time_ns"], kind="stable")]
    return DeviceResult(photons=photons, log=log)


# ---------------------------------------------------------------------------
# Scenario building blocks
# ---------------------------------------------------------------------------

def uniform_site_field(density_per_um2: float,
                       extent_um: tuple[tuple[float, float], tuple[float, float]],
                       model: CascadeModel, capture_radius_um: float,
                       capture_prob: float,
                       rng: np.random.Generator) -> SiteField:
    """Random dot field with the given areal density over a 2-d extent."""
    (x0, x1), (y0, y1) = extent_um
    area = (x1 - x0) * (y1 - y0)
    if area <= 0:
        raise ValueError("field extent must have positive area")
    count = int(rng.poisson(density_per_um2 * area))
    xs = rng.uniform(x0, x1, count)
    ys = rng.uniform(y0, y1, count)
    return SiteField(xs, ys, np.full(count, capture_radius_um),
                     np.full(count, capture_prob), (model,) * count)


def per_cycle_emission_times(num_cycles: int, period_ns: float,
                             capture_prob: float, lifetime_ns: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Photon times, increasing, of a capacity-1 site injected once per SAW
    cycle.

    The rng draws one uniform per cycle, and a cycle whose uniform is below
    the capture probability loads the dot; then it draws one exponential
    wait per load.  A load emits after its wait unless the next load comes
    first: that load fills the dot again and restarts its clock.  The last
    load always emits.  This is `sample_cascade_from_loads`' one-level path,
    bit for bit, with the loads at their cycle starts and the rng's state
    after the uniforms as the site's stream.  The uniforms are drawn, and
    the loads then walked, DRAW_BLOCK cycles at a time; all uniforms still
    come before all waits, so the photons do not depend on that size.
    Memory is one byte per cycle, the photons, and one block's temporaries;
    the result is a view of an array sized for one photon per load, or a
    copy of its filled part when fewer than half the loads emit, so it never
    holds more than twice its photons.
    `num_cycles` must be an integer >= 1, and every bad argument raises
    `ValueError`.
    """
    _check_count(num_cycles, "cycles")
    if not (0 < period_ns < math.inf and 0 < lifetime_ns < math.inf):
        raise ValueError("period and lifetime must be finite and > 0")
    if not 0.0 <= capture_prob <= 1.0:
        raise ValueError("capture probability must be in [0, 1]")
    loaded = np.empty(num_cycles, dtype=bool)
    for a in range(0, num_cycles, DRAW_BLOCK):
        block = loaded[a:a + DRAW_BLOCK]
        np.less(rng.random(block.size), capture_prob, out=block)
    out = np.empty(np.count_nonzero(loaded))
    n = 0
    for a in range(0, num_cycles, DRAW_BLOCK):
        loads = (np.flatnonzero(loaded[a:a + DRAW_BLOCK]) + a) * period_ns
        if not loads.size:
            continue
        times = rng.exponential(lifetime_ns, loads.size)
        times += loads
        # a block's last photon is written before its next load is known
        if n and out[n - 1] >= loads[0]:
            n -= 1
        kept = times[np.append(times[:-1] < loads[1:], True)]
        out[n:n + kept.size] = kept
        n += kept.size
    return out[:n] if 2 * n >= out.size else out[:n].copy()
