import heapq
import math
import tracemalloc
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawsps import transport
from sawsps.cascade import CascadeModel
from sawsps.emitter import PHOTON_DTYPE, sample_cascade_from_loads
from sawsps.rng import substream
from sawsps.scenarios import ScenarioConfig, run_scenario
from sawsps.transport import (ELECTRON, HOLE, SPECIES, LaserSpot, SawWave,
                              SiteField, capture_pass, draw_pairs,
                              launch_pockets, per_cycle_emission_times,
                              pocket_lattice_position, run_device,
                              uniform_site_field)
from oracles import arrival_delay, one_shot_emission_times, run_with_rows
from test_emitter import CountingStream, reference_cascade
from test_golden import output_hashes

MODEL = CascadeModel((1.5, 1.4, 0.9))
SAW = SawWave(193.0, 15.0)
# frozen from the configured device numbers: v = 193 MHz * 15 um = 2.895 um/ns
V_UM_PER_NS = 2.895
DELAY_7UM = 2.4179620034542313
DELAY_14UM = 4.835924006908463


def line_sites(positions, capture_prob=0.5, radius=0.5, model=MODEL):
    """Sites on the channel axis, all alike but for their x."""
    n = len(positions)
    return SiteField(positions, np.zeros(n), np.full(n, radius),
                     np.full(n, capture_prob), (model,) * n)


def simple_layout(site_positions=(0.0, -7.0, -14.0), capture_prob=0.5,
                  pairs=2.0, radius=0.5):
    """(spot, sites) of the remote-pumping device."""
    return (LaserSpot(0.0, 1.0, pairs),
            line_sites(site_positions, capture_prob, radius))


def site_columns(**changed):
    """Three sites on the channel axis, with some columns replaced."""
    columns = {"x_um": [0.0, -7.0, -14.0], "y_um": [0.0, 0.0, 0.0],
               "capture_radius_um": [0.5, 0.5, 0.5],
               "capture_prob": [0.5, 0.5, 0.5], "models": (MODEL,) * 3}
    return SiteField(**{**columns, **changed})


class TestSawWave:
    def test_velocity_from_paper_device(self):
        assert SAW.velocity_um_per_ns == pytest.approx(V_UM_PER_NS, abs=1e-12)
        assert SAW.period_ns == pytest.approx(1e3 / 193.0, rel=1e-12)

    def test_validation(self):
        # a non-finite frequency or wavelength would otherwise give a silent
        # run that captures nothing and whose log balances
        nan, inf = math.nan, math.inf
        for frequency, wavelength in [(0.0, 15.0), (nan, 15.0), (inf, 15.0),
                                      (193.0, nan), (193.0, inf)]:
            with pytest.raises(ValueError):
                SawWave(frequency, wavelength)
        with pytest.raises(ValueError):
            SawWave(193.0, 15.0, amplitude=1.5)
        with pytest.raises(ValueError):
            SawWave(193.0, 15.0, direction=0)


def pulse_pockets(spot, saw, pulse_times, rng):
    return launch_pockets(*draw_pairs(spot, saw, pulse_times, rng), saw)


class TestLaunchPockets:
    def test_no_pairs_no_pockets(self):
        spot = LaserSpot(0.0, 1.0, 0.0)
        assert pulse_pockets(spot, SAW, [0.0], substream(1, 0)).size == 0

    def test_species_counts_balance(self):
        spot = LaserSpot(0.0, 1.0, 5.0)
        pockets = pulse_pockets(spot, SAW, [0.3], substream(2, 0))
        e = pockets["count"][pockets["species"] == SPECIES.index(ELECTRON)].sum()
        h = pockets["count"][pockets["species"] == SPECIES.index(HOLE)].sum()
        assert e == h > 0

    def test_half_wavelength_offset(self):
        spot = LaserSpot(0.0, 1.0, 1.0)
        rng = substream(3, 0)
        for _ in range(20):
            pockets = pulse_pockets(spot, SAW, [0.0], rng)
            es = pockets["position_um"][pockets["species"] == 0]
            hs = pockets["position_um"][pockets["species"] == 1]
            for e in es:
                for h in hs:
                    offset = (e - h) % 15.0
                    assert min(offset, 15.0 - offset) == pytest.approx(7.5, abs=1e-9)

    @pytest.mark.parametrize("direction", [-1, 1])
    def test_matches_per_pair_grouping(self, direction):
        # each pair's carriers join the nearest extremum of their species; one
        # pulse's carriers at one extremum are one pocket; pockets are in
        # order of birth, then downstream, electron before hole
        saw = SawWave(193.0, 4.0, direction=direction)
        times, xs = draw_pairs(LaserSpot(0.5, 3.0, 6.0), saw, np.arange(40) * 1.7,
                               substream(4, 0))
        grouped = {}
        for t, x in zip(times.tolist(), xs.tolist()):
            for code, species in enumerate(SPECIES):
                offset = 0.0 if species == ELECTRON else 0.5
                ref = (direction * saw.velocity_um_per_ns * t
                       + offset * saw.wavelength_um)
                m = round((x - ref) / saw.wavelength_um)
                key = (t, code, m)
                pos = ref + m * saw.wavelength_um
                grouped[key] = (pos, grouped.get(key, (pos, 0))[1] + 1)
        expected = sorted((t, direction * pos, code, n, pos)
                          for (t, code, _), (pos, n) in grouped.items())
        pockets = launch_pockets(times, xs, saw)
        assert [(p["birth_time_ns"], direction * p["position_um"], p["species"],
                 p["count"], p["position_um"]) for p in pockets] == expected
        assert pockets["count"].sum() == 2 * times.size


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 100.0), st.floats(-30.0, 30.0), st.sampled_from([-1, 1]))
def test_lattice_offset_invariant(t, x, direction):
    saw = SawWave(193.0, 15.0, direction=direction)
    e_pos, _ = pocket_lattice_position(x, t, saw, ELECTRON)
    h_pos, _ = pocket_lattice_position(x, t, saw, HOLE)
    offset = (e_pos - h_pos) % 15.0
    assert min(offset, 15.0 - offset) == pytest.approx(7.5, abs=1e-6)
    # nearest-extremum snap stays within half a spacing
    assert abs(e_pos - x) <= 7.5 + 1e-9


class TestCapturePass:
    def test_zero_probability_no_transfer(self):
        rng = substream(5, 0)
        assert capture_pass(5, 0, MODEL.num_levels, 0.0, rng) == 0
        # no uniform is drawn
        assert rng.random() == substream(5, 0).random()

    def test_forced_transfer_respects_capacity(self):
        assert capture_pass(5, 0, MODEL.num_levels, 1.0, substream(5, 1)) == 3
        assert capture_pass(2, 0, MODEL.num_levels, 1.0, substream(5, 1)) == 2

    def test_already_held_reduces_room(self):
        assert capture_pass(5, 2, MODEL.num_levels, 1.0, substream(5, 2)) == 1
        assert capture_pass(5, 3, MODEL.num_levels, 1.0, substream(5, 2)) == 0


class TestExcitonFormation:
    def test_min_rule(self):
        site = QdSite(0, 0.0, 0.5, 1.0, MODEL, n_electrons=2, n_holes=1)
        formed = exciton_formation(site, 4.2)
        assert formed == 1
        assert (site.n_electrons, site.n_holes) == (1, 0)
        assert site.loads == [(4.2, 1)]

    def test_empty_site(self):
        site = QdSite(0, 0.0, 0.5, 1.0, MODEL)
        assert exciton_formation(site, 1.0) == 0
        assert site.loads == []


class TestArrivalDelay:
    def test_device_distances(self):
        assert arrival_delay(7.0, SAW) == pytest.approx(DELAY_7UM, abs=1e-12)
        assert arrival_delay(14.0, SAW) == pytest.approx(DELAY_14UM, abs=1e-12)
        assert arrival_delay(0.0, SAW) == 0.0

    def test_negative_rejected(self):
        # and non-finite: a NaN distance passes a `< 0` check, and a NaN or
        # infinite one would otherwise give a NaN or infinite delay
        for distance in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                arrival_delay(distance, SAW)


class TestRunDevice:
    def run(self, direction=-1, amplitude=1.0, pulses=2000, seed=11, **kw):
        """(sites, saw, result, capture rows, load rows) of a run of the
        remote-pumping device; `run_with_rows` gives the rows."""
        saw = SawWave(193.0, 15.0, amplitude=amplitude, direction=direction)
        spot, sites = simple_layout(**kw)
        return sites, saw, *run_with_rows(spot, sites, saw, saw.period_ns,
                                          pulses, seed)

    def test_forward_feeds_all_sites(self):
        _, _, res, _, _ = self.run()
        emitted = set(res.photons["emitter_id"].tolist())
        assert emitted == {0, 1, 2}

    def test_conservation(self):
        for seed in (1, 2, 3):
            _, _, res, _, _ = self.run(seed=seed, pulses=500)
            assert res.log.conservation_ok()

    def test_exact_ballistic_causality(self):
        sites, saw, _, captures, _ = self.run()
        pos = sites.x_um  # by site id
        t, site, _, _, birth_t, birth_x = np.array(captures).T
        dist = np.abs(pos[site.astype(int)] - birth_x)
        far = dist > 0.5  # born outside the capture window: exact delay
        assert np.all(t[far] >= birth_t[far]
                      + dist[far] / saw.velocity_um_per_ns - 1e-9)
        assert np.count_nonzero(far) > 100

    def test_remote_photons_respect_spot_delay(self):
        # photons from the 7 um site: no earlier than the pocket lattice
        # allowance (distance - lambda/2) over the sound velocity
        _, saw, res, _, _ = self.run()
        first_pulse = res.log.pulse_times[0]
        ids, times = res.photons["emitter_id"], res.photons["time_ns"]
        assert np.all(times[ids == 1] >= first_pulse + (7.0 - 7.5) / 2.895 - 1e-9)
        assert np.all(times[ids == 2] >= first_pulse + (14.0 - 7.5) / 2.895 - 1e-9)

    def test_reversed_direction_dark_side(self):
        _, _, res, _, _ = self.run(direction=+1, pulses=5000)
        emitted = set(res.photons["emitter_id"].tolist())
        assert 1 not in emitted and 2 not in emitted
        assert 0 in emitted  # the spot site still captures passing pockets

    def test_saw_off_only_spot_emits(self):
        _, _, res, _, _ = self.run(amplitude=0.0, pulses=5000)
        emitted = set(res.photons["emitter_id"].tolist())
        assert emitted == {0}
        assert res.log.conservation_ok()

    def test_mirror_symmetry_exact(self):
        saw_m = SawWave(193.0, 15.0, direction=-1)
        saw_p = SawWave(193.0, 15.0, direction=+1)
        spot, sites_m = simple_layout((0.0, -7.0, -14.0))
        sites_p = line_sites(-sites_m.x_um)
        res_m = run_device(spot, sites_m, saw_m, saw_m.period_ns, 1000, 21)
        res_p = run_device(spot, sites_p, saw_p, saw_m.period_ns, 1000, 21)
        assert len(res_m.photons) == len(res_p.photons)
        a, b = res_m.photons, res_p.photons
        assert np.allclose(a["time_ns"], b["time_ns"], rtol=0, atol=1e-9)
        assert np.allclose(a["x_um"], -b["x_um"], rtol=0, atol=1e-9)
        assert np.array_equal(a["transition"], b["transition"])

    def test_depletion_monotonic_in_series(self):
        # two identical sites, both beyond the pocket birth zone (half a
        # wavelength around the spot): finite pockets deplete upstream first
        saw = SawWave(193.0, 15.0, direction=-1)
        res, captures, _ = run_with_rows(
            LaserSpot(0.0, 1.0, 2.0), line_sites((-12.0, -17.0)), saw,
            saw.period_ns, 10000, 31)
        _, site, _, count, _, _ = np.array(captures).T
        captured = np.bincount(site.astype(int), weights=count, minlength=2)
        photons = np.bincount(res.photons["emitter_id"], minlength=2)
        assert captured[0] > captured[1] > 0
        assert photons[0] > photons[1] > 0

    def test_capacity_one_single_exciton_per_cycle(self):
        # at most one pair per cycle reaching a capacity-1 site: every load is
        # a single exciton and no two loads share a SAW cycle
        sites = line_sites((-7.0,), 1.0, model=CascadeModel((0.5,)))
        saw = SawWave(193.0, 15.0, direction=-1)
        _, _, loads = run_with_rows(LaserSpot(0.0, 0.3, 1.0), sites, saw,
                                    saw.period_ns, 20000, 41)
        t, site, excitons = np.array(loads).T
        assert t.size and np.all(site == 0) and np.all(excitons == 1)
        cycles = (t // saw.period_ns).astype(int)
        assert cycles.size == np.unique(cycles).size

    @pytest.mark.parametrize("make", [
        lambda: LaserSpot(math.nan, 1.0, 1.0),
        lambda: LaserSpot(math.inf, 1.0, 1.0),
        lambda: LaserSpot(0.0, math.inf, 1.0),
        lambda: LaserSpot(0.0, math.nan, 1.0),
        lambda: LaserSpot(0.0, 1.0, math.nan),
        lambda: LaserSpot(0.0, 1.0, math.inf),
        *[lambda name=name, bad=bad: site_columns(**{name: [0.0, bad, -14.0]})
          for name in ("x_um", "y_um")
          for bad in (math.nan, math.inf, -math.inf)],
        lambda: site_columns(capture_radius_um=[0.5, math.nan, 0.5]),
        lambda: site_columns(capture_radius_um=[0.5, math.inf, 0.5]),
        lambda: site_columns(capture_radius_um=[0.5, 0.0, 0.5]),
        lambda: site_columns(capture_prob=[0.5, 1.5, 0.5]),
        lambda: site_columns(capture_prob=[0.5, -0.1, 0.5]),
        lambda: site_columns(capture_prob=[0.5, math.nan, 0.5]),
        lambda: site_columns(y_um=[0.0, 0.0]),
        lambda: site_columns(capture_prob=[[0.5, 0.5, 0.5]]),
        lambda: site_columns(models=(MODEL,) * 2),
        lambda: site_columns(models=(MODEL,) * 4)])
    def test_non_finite_geometry_rejected(self, make):
        # a NaN spot center or an infinite spot radius would otherwise give
        # a silent run that captures nothing and whose log balances; a NaN
        # capture radius or pair yield would fail deep inside numpy; a NaN
        # or infinite site x would reach the kernel, which nothing else
        # checks; ragged columns or a model count other than the site count
        # would pair a site with another's values
        with pytest.raises(ValueError):
            make()

    def test_site_columns_are_read_only_copies(self):
        x = np.array([0.0, -7.0, -14.0])
        sites = line_sites(x)
        x[0] = 3.0
        assert sites.x_um.tolist() == [0.0, -7.0, -14.0]
        assert len(sites) == 3
        for column in (sites.x_um, sites.y_um, sites.capture_radius_um,
                       sites.capture_prob):
            assert column.dtype == float and not column.flags.writeable

    def test_pulse_train_validation(self):
        # a NaN period must fail too: it would otherwise give an empty run
        # whose log balances
        saw = SawWave(193.0, 15.0, direction=-1)
        spot, sites = simple_layout()
        # a fractional count would otherwise run the next whole number of
        # pulses, and True one pulse
        for period, pulses in [(math.nan, 10), (math.inf, 10), (0.0, 10),
                               (-1.0, 10), (saw.period_ns, 0),
                               (saw.period_ns, 2.5), (saw.period_ns, 3.0),
                               (saw.period_ns, True), (saw.period_ns, -2)]:
            with pytest.raises(ValueError):
                run_device(spot, sites, saw, period, pulses, 1)
        # a numpy integer is a count like any int
        a = run_device(spot, sites, saw, saw.period_ns, np.int64(30), 1)
        b = run_device(spot, sites, saw, saw.period_ns, 30, 1)
        assert a.log.pulse_times.size == 30
        assert_same_photons(a.photons, b.photons)

    @pytest.mark.parametrize("amplitude", [0.0, 1.0])
    @pytest.mark.parametrize("positions, pairs", [((), 2.0), ((0.0, -7.0), 0.0)])
    def test_no_sites_or_no_pairs(self, amplitude, positions, pairs):
        # every carrier exits or recombines and nothing is captured or emitted
        saw = SawWave(193.0, 15.0, amplitude=amplitude, direction=-1)
        res, captures, loads = run_with_rows(
            *simple_layout(positions, pairs=pairs), saw, saw.period_ns, 50, 3)
        log = res.log
        assert log.conservation_ok()
        assert (sum(log.generated.values()) > 0) == (pairs > 0)
        for sp in SPECIES:
            assert log.generated[sp] == log.exited[sp] + log.recombined[sp]
        assert log.captured == {ELECTRON: 0, HOLE: 0}
        assert res.photons.size == 0
        # with the wave off nothing is conveyed; a conveyed run has no rows
        assert (captures, loads) == ((None, None) if amplitude == 0
                                     else ([], []))

    def test_saw_off_pairs_go_to_nearest_covering_site(self):
        # both windows cover the spot: every pair is captured whole by the
        # nearer site, at its pulse time, so the photons are those of one
        # load of one exciton per pair at site 0, from that site's stream
        saw = SawWave(193.0, 15.0, amplitude=0.0)
        spot = LaserSpot(0.0, 0.01, 2.0)
        res = run_device(spot, line_sites((0.1, 0.4), 1.0), saw,
                         saw.period_ns, 200, 71)
        pair_t, _ = draw_pairs(spot, saw, res.log.pulse_times,
                               substream(71, 0, 0))
        assert pair_t.size and np.all(np.isin(pair_t, res.log.pulse_times))
        expected = sample_cascade_from_loads(
            [MODEL], pair_t, np.ones(pair_t.size, np.int64),
            [substream(71, 1, 0, 0)], emitter_ids=[0], positions_um=[(0.1, 0.0)])
        assert_same_photons(res.photons, expected)
        assert res.log.captured == {ELECTRON: pair_t.size, HOLE: pair_t.size}
        assert res.log.recombined == {ELECTRON: 0, HOLE: 0}
        assert res.log.conservation_ok()

    def test_formation_time_is_later_species_arrival(self):
        # replayed site by site, the captures form excitons at the arrival
        # of the later species, as many as both species then hold
        _, _, _, captures, loads = self.run(pulses=300)
        held, expected = {}, []
        for t, site, code, count, _, _ in captures:
            e, h = held.get(site, (0, 0))
            e, h = (e + count, h) if SPECIES[code] == ELECTRON else (e, h + count)
            formed = min(e, h)
            held[site] = (e - formed, h - formed)
            if formed:
                expected.append((t, site, formed))
        assert loads and loads == expected


class TestFieldAndPerCycle:
    def test_uniform_field_density(self):
        rng = substream(50, 0)
        sites = uniform_site_field(30.0, ((0.0, 10.0), (-5.0, 5.0)),
                                   CascadeModel((1.5,)), 0.05, 0.2, rng)
        assert abs(len(sites) - 3000) < 3 * np.sqrt(3000)
        assert np.all((0.0 <= sites.x_um) & (sites.x_um <= 10.0))
        assert np.all((-5.0 <= sites.y_um) & (sites.y_um <= 5.0))

    def test_per_cycle_times_sorted_and_thinned(self):
        rng = substream(51, 0)
        times = per_cycle_emission_times(100000, 5.0, 0.5, 0.5, rng)
        assert np.all(np.diff(times) > 0)
        assert abs(times.size - 50000) < 3 * np.sqrt(25000)

    @pytest.mark.parametrize("cycles,prob,lifetime", [
        (20000, 0.5, 1.0), (20000, 0.9, 3.0), (1, 1.0, 1.0), (1, 0.0, 1.0)])
    def test_per_cycle_times_are_the_one_level_sampler(self, cycles, prob,
                                                       lifetime):
        # the lifetimes are in SAW periods: a wait of one period or more
        # outlasts the gap to the next load often enough that the cut rule
        # is met many times
        period = SAW.period_ns
        times = per_cycle_emission_times(cycles, period, prob,
                                         lifetime * period, substream(52, 0))
        rng = substream(52, 0)
        loads = np.flatnonzero(rng.random(cycles) < prob) * period
        expected = sample_cascade_from_loads(
            [CascadeModel((lifetime * period,))], loads,
            np.ones(loads.size, np.int64), [rng])["time_ns"]
        assert times.tobytes() == expected.tobytes()
        # every load's own emission time, from the same waits: the photon
        # leaves exactly when it is earlier than the next load
        rng = substream(52, 0)
        rng.random(cycles)
        t_emit = loads + lifetime * period * rng.standard_exponential(
            loads.size)
        kept = t_emit < np.append(loads[1:], math.inf)
        assert times.tolist() == t_emit[kept].tolist()
        if cycles > 1:
            assert 0 < times.size < loads.size

    @pytest.mark.parametrize("cycles", [
        1, transport.DRAW_BLOCK - 1, transport.DRAW_BLOCK,
        transport.DRAW_BLOCK + 1, 3 * transport.DRAW_BLOCK + 5])
    @pytest.mark.parametrize("prob", [0.0, 0.01, 0.5, 1.0])
    def test_per_cycle_blocks_never_show(self, cycles, prob):
        # the blocks continue one stream, whatever doubles the rng has
        # already drawn (1 to 3 leave words buffered in Philox's output),
        # and leave it where the one-piece draw does.  A lifetime of a
        # period cuts photons, also across a block edge
        for drawn in range(4):
            rngs = substream(54, drawn), substream(54, drawn)
            for rng in rngs:
                rng.random(drawn)
            times = per_cycle_emission_times(cycles, 5.0, prob, 5.0, rngs[0])
            expected = one_shot_emission_times(cycles, 5.0, prob, 5.0, rngs[1])
            assert times.tobytes() == expected.tobytes(), drawn
            assert rngs[0].random() == rngs[1].random(), drawn

    def test_per_cycle_temporaries_bounded(self):
        # the g2 preset's source at 1M cycles: one byte per cycle, the
        # photons and a block's temporaries; a draw of every uniform at
        # once would take 8 bytes per cycle, about twice the photons
        tracemalloc.start()
        try:
            times = per_cycle_emission_times(1_000_000, SAW.period_ns, 0.5,
                                             0.5, substream(55, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * times.nbytes

    def test_per_cycle_holds_at_most_twice_its_photons(self):
        # a lifetime long against the period drops most loads' photons;
        # the result must not keep the array sized for every load
        for lifetime in (0.5, 50.0):
            times = per_cycle_emission_times(100000, 5.0, 0.5, lifetime,
                                             substream(56, 0))
            held = times if times.base is None else times.base
            assert held.size <= 2 * times.size

    def test_per_cycle_no_capture_is_empty(self):
        times = per_cycle_emission_times(1000, 5.0, 0.0, 0.5, substream(53, 0))
        assert times.shape == (0,) and times.dtype == float

    def test_per_cycle_validation(self):
        # NaN slips through a `<= 0` check; a NaN or infinite period or
        # lifetime would otherwise give NaN or infinite photon times
        # a fractional or bool cycle count is refused like 0
        nan, inf = math.nan, math.inf
        for cycles, period, prob, lifetime in [
                (0, 5.0, 0.5, 0.5), (10, 5.0, 1.5, 0.5), (10, nan, 0.5, 0.5),
                (10, inf, 0.5, 0.5), (10, 5.0, 0.5, nan), (10, 5.0, 0.5, inf),
                (10, 0.0, 0.5, 0.5), (10, 5.0, 0.5, -1.0), (2.5, 5.0, 0.5, 0.5),
                (10.0, 5.0, 0.5, 0.5), (True, 5.0, 0.5, 0.5)]:
            with pytest.raises(ValueError):
                per_cycle_emission_times(cycles, period, prob, lifetime,
                                         substream(0, 0))
        times = per_cycle_emission_times(np.int32(100), 5.0, 0.5, 0.5,
                                         substream(0, 0))
        assert times.tolist() == per_cycle_emission_times(
            100, 5.0, 0.5, 0.5, substream(0, 0)).tolist()


# ---------------------------------------------------------------------------
# Oracle: the event-by-event device loop
# ---------------------------------------------------------------------------

@dataclass
class QdSite:
    """The oracle's dot: one row of a `SiteField` and the carriers it holds
    (`capture_pass` and `exciton_formation` act on them)."""

    site_id: int
    position_um: float
    capture_radius_um: float
    capture_prob: float
    model: CascadeModel
    y_um: float = 0.0
    n_electrons: int = 0
    n_holes: int = 0
    loads: list = field(default_factory=list)

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


def site_rows(sites):
    """The rows of a `SiteField` as empty oracle dots, in id order."""
    return [QdSite(i, x, r, p, model, y_um=y) for i, (x, y, r, p, model)
            in enumerate(zip(sites.x_um.tolist(), sites.y_um.tolist(),
                             sites.capture_radius_um.tolist(),
                             sites.capture_prob.tolist(), sites.models))]


@dataclass(slots=True)
class CarrierPocket:
    """A packet of one carrier species riding the travelling potential from
    its birth position and time."""

    species: str
    count: int
    position_um: float
    birth_time_ns: float


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


class KeyedUniform:
    """Stands in for the generator in `capture_pass`: returns the uniform
    the run drew for the current (pocket, rank) pass."""

    def __init__(self, uniforms):
        self.uniforms = uniforms
        self.key = None

    def random(self):
        return self.uniforms[self.key]


def reference_passes(pockets, sites, saw):
    """Every (pocket, rank) pass the geometry allows, in the order of the
    capture draws: rank by rank, and at rank r first the pockets with
    m <= r, by (m, birth index), m the number of sites strictly behind the
    pocket's birth point, then the pockets born past the site whose window
    covers them, by birth index.  `sites` are in encounter order."""
    d = saw.direction
    s0 = [d * pk.position_um for pk in pockets]
    sp = [d * s.position_um for s in sites]
    m = [sum(x < s for x in sp) for s in s0]
    passes = []
    for r, site in enumerate(sites):
        on = sorted((m[i], i) for i in range(len(pockets)) if m[i] <= r)
        passes += [(i, r) for _, i in on]
        passes += [(i, r) for i in range(len(pockets))
                   if m[i] > r and s0[i] <= sp[r] + site.capture_radius_um]
    return passes


def reference_device(spot, sites, saw, period, num_pulses, seed, variant=0):
    """The device run crossing by crossing: one heap event and one
    `capture_pass` per pocket-site pass, pulses interleaved in time.  Ties
    between passes at one instant go by pocket birth index, then rank.
    Pair draws are `draw_pairs`' and `launch_pockets`'; the capture uniform
    of a pass is the run's, one per pass the geometry allows, in the order
    of `reference_passes`.  Returns the run's outputs as plain values."""
    d, v = saw.direction, saw.velocity_um_per_ns
    sites = sorted(site_rows(sites), key=lambda s: d * s.position_um)
    s_pos = [d * s.position_um for s in sites]
    pulse_times = [p * period for p in range(num_pulses)]
    pair_t, pair_x = draw_pairs(spot, saw, pulse_times,
                                substream(seed, 0, variant))
    draws = substream(seed, 3, variant)
    tallies = {k: {ELECTRON: 0, HOLE: 0}
               for k in ("generated", "captured", "exited", "recombined")}
    captures, loads = [], []

    def form(site, t):
        if exciton_formation(site, t):
            loads.append((site.loads[-1][0], site.site_id, site.loads[-1][1]))

    if saw.amplitude == 0:
        uniforms = draws.random(pair_t.size)
        for t, x, u in zip(pair_t.tolist(), pair_x.tolist(), uniforms.tolist()):
            near = [s for s in sites
                    if abs(s.position_um - x) <= s.capture_radius_um]
            site = min(near, key=lambda s: abs(s.position_um - x), default=None)
            for sp in SPECIES:
                tallies["generated"][sp] += 1
            if site is not None and u < site.capture_prob:
                for code, sp in enumerate(SPECIES):
                    site.receive(sp, 1)
                    tallies["captured"][sp] += 1
                    captures.append((t, site.site_id, code, 1, t, x))
                form(site, t)
            else:
                for sp in SPECIES:
                    tallies["recombined"][sp] += 1
    else:
        pockets = [CarrierPocket(SPECIES[p["species"]], int(p["count"]),
                                 float(p["position_um"]), float(p["birth_time_ns"]))
                   for p in launch_pockets(pair_t, pair_x, saw)]
        passes = reference_passes(pockets, sites, saw)
        rng = KeyedUniform(dict(zip(passes, draws.random(len(passes)).tolist())))
        heap = []

        def schedule(i, rank):
            pk = pockets[i]
            s0 = d * pk.position_um
            while rank < len(sites):
                sp = s_pos[rank]
                if s0 > sp + sites[rank].capture_radius_um:  # born past
                    rank += 1
                    continue
                heapq.heappush(heap, (pk.birth_time_ns + max(sp - s0, 0.0) / v,
                                      i, rank))
                return

        def cross_before(t_stop):
            while heap and heap[0][0] < t_stop:
                t, i, rank = heapq.heappop(heap)
                pk, site = pockets[i], sites[rank]
                rng.key = (i, rank)
                moved = capture_pass(pk.count, site.held(pk.species),
                                     site.capacity,
                                     site.capture_prob * saw.amplitude, rng)
                if moved:
                    pk.count -= moved
                    site.receive(pk.species, moved)
                    tallies["captured"][pk.species] += moved
                    captures.append((t, site.site_id, SPECIES.index(pk.species),
                                     moved, pk.birth_time_ns, pk.position_um))
                    form(site, t)
                if pk.count > 0:
                    schedule(i, rank + 1)

        for i, pk in enumerate(pockets):
            cross_before(pk.birth_time_ns)
            tallies["generated"][pk.species] += pk.count
            schedule(i, 0)
        cross_before(np.inf)
        for pk in pockets:
            tallies["exited"][pk.species] += pk.count

    photons = np.concatenate([np.zeros(0, PHOTON_DTYPE)] + [
        reference_cascade(site.model, site.loads,
                          substream(seed, 1, variant, rank),
                          emitter_id=site.site_id,
                          position_um=(site.position_um, site.y_um))
        for rank, site in enumerate(sites) if site.loads])
    photons = photons[np.argsort(photons["time_ns"], kind="stable")]
    return tallies, captures, loads, photons


def device_outputs(*run):
    """The tallies, capture rows, load rows (None with the wave off) and
    photons of `run_device(*run)`."""
    res, captures, loads = run_with_rows(*run)
    tallies = {k: getattr(res.log, k) for k in ("generated", "captured",
                                                 "exited", "recombined")}
    return tallies, captures, loads, res.photons


def assert_same_rows(got, tallies, captures, loads, amplitude):
    """Kernel and oracle agree on the tallies, and on every capture and load
    row of a conveyed run; with the wave off nothing is conveyed, and the
    photons, a function of the loads on fixed streams, stand for them."""
    assert got[0] == tallies
    if amplitude > 0:
        assert got[1] == captures
        assert got[2] == loads
    else:
        assert got[1] is got[2] is None


def assert_same_photons(a, b):
    assert a.dtype == b.dtype and a.size == b.size
    for name in a.dtype.names:
        assert np.array_equal(a[name], b[name]), name


def random_device(seed):
    """A small random device: per-site radii, capture probabilities and
    capacities, either direction and a spot that births pockets inside
    windows."""
    g = np.random.default_rng(seed)
    saw = SawWave(float(g.uniform(50.0, 400.0)), float(g.uniform(1.5, 8.0)),
                  amplitude=float(g.choice([0.0, 0.3, 1.0], p=[0.2, 0.3, 0.5])),
                  direction=int(g.choice([-1, 1])))
    models = (CascadeModel((0.7,)), CascadeModel((1.5, 1.4, 0.9)))
    positions = g.uniform(-12.0, 12.0, g.integers(1, 9))
    positions[: g.integers(0, 3)] = g.uniform(-1.0, 1.0)  # share a window
    # radius, capture probability and model, site by site
    radius, prob, site_models = zip(*[
        (g.uniform(0.05, 5.0),
         g.choice([0.0, g.uniform(), 1.0], p=[0.1, 0.6, 0.3]),
         models[int(g.integers(2))]) for _ in positions])
    sites = SiteField(positions, np.zeros(positions.size), radius, prob,
                      site_models)
    spot = LaserSpot(float(g.uniform(-3.0, 3.0)), float(g.uniform(0.2, 3.0)),
                     float(g.uniform(0.5, 6.0)))
    pulses = int(g.integers(5, 40))
    period = saw.period_ns * float(g.choice([1.0, 0.5, g.uniform(0.2, 3.0)]))
    return spot, sites, saw, period, pulses


# at the default block a random layout's passes fit in one block; at 2 a
# layout of more than one site spans several blocks
@pytest.mark.parametrize("block", [transport.DRAW_BLOCK, 2],
                         ids=["default", "2"])
def test_kernel_matches_event_loop_oracle(block, monkeypatch):
    monkeypatch.setattr(transport, "DRAW_BLOCK", block)
    # the kernel's columns, which `run_device` hands on unsorted
    recorded, convey = [], transport._convey

    def recording(*args):
        recorded.append(convey(*args))
        return recorded[-1]
    monkeypatch.setattr(transport, "_convey", recording)
    seen = {"amplitude": set(), "direction": set(), "capacity": set(),
            "exited": 0, "inside_before": 0, "inside_past": 0, "ties": 0,
            "one_level": 0, "mixed_prob": 0, "site_order": 0}
    for seed in range(100):
        run = random_device(seed)
        _, sites, saw = run[:3]
        recorded.clear()
        got = device_outputs(*run, seed)
        for _, (t, pk, rank, _, _) in recorded:
            # by (rank, time, pocket): the sampler's site-by-site order
            assert np.array_equal(np.lexsort((pk, t, rank)), np.arange(t.size))
            # which differs from event order when a later site captures first
            seen["site_order"] += not np.array_equal(
                np.lexsort((rank, pk, t)), np.arange(t.size))
        tallies, captures, loads, photons = reference_device(*run, seed)
        assert_same_rows(got, tallies, captures, loads, saw.amplitude)
        assert_same_photons(got[3], photons)
        seen["amplitude"].add(saw.amplitude)
        seen["direction"].add(saw.direction)
        site = site_rows(sites)  # by id
        seen["capacity"].update(s.capacity for s in site)
        # photons of one-level sites only: run_device's one-level path
        loaded = {load[1] for load in loads}
        seen["one_level"] += bool(loaded) and all(
            site[i].capacity == 1 for i in loaded)
        inside = [c[0] > c[4] for c in captures
                  if 0 < abs(site[c[1]].position_um - c[5])
                  <= site[c[1]].capture_radius_um]
        if saw.amplitude > 0:
            # conveyed carriers left in pockets past the last site
            seen["exited"] += sum(tallies["exited"].values()) > 0
            seen["inside_before"] += any(inside)  # captured at the center
            seen["inside_past"] += not all(inside)  # captured at birth
            # captures of two pockets at one site and instant
            times = [(c[0], c[1]) for c in captures]
            seen["ties"] += len(times) - len(set(times))
            # a draw below the largest capture probability can still miss
            prob = sites.capture_prob
            seen["mixed_prob"] += 0 < prob.min() < prob.max()
    # the layouts reach every case the kernel must order exactly
    assert seen["amplitude"] == {0.0, 0.3, 1.0}
    assert seen["direction"] == {-1, 1}
    assert seen["capacity"] == {1, 3}
    assert seen["exited"] >= 10
    assert seen["inside_before"] >= 10 and seen["inside_past"] >= 10
    assert seen["ties"] >= 10
    assert seen["one_level"] >= 10 and seen["mixed_prob"] >= 10
    assert seen["site_order"] >= 10


@pytest.mark.parametrize("direction", [-1, 1])
def test_kernel_matches_event_loop_oracle_on_fig7_device(direction):
    # the fig7 preset's device at its 2,000 pulses: each capacity-3 site it
    # feeds resolves over a thousand hits in one scan, so the deep doubling
    # rounds are checked too; the random devices give short scans only
    p = ScenarioConfig.from_dict({"scenario": "fig7_remote"}).params
    model = CascadeModel(**p["cascade"])
    sites = line_sites(p["sites"]["positions_um"], p["sites"]["capture_prob"],
                       p["sites"]["capture_radius_um"], model)
    saw = SawWave(**p["saw"], direction=direction)
    run = (LaserSpot(**p["spot"]), sites, saw, saw.period_ns, p["num_pulses"],
           12345)
    got = device_outputs(*run)
    tallies, captures, loads, photons = reference_device(*run)
    assert model.num_levels == 3
    assert_same_rows(got, tallies, captures, loads, saw.amplitude)
    assert_same_photons(got[3], photons)
    per_site = np.bincount([c[1] for c in captures], minlength=len(sites))
    assert per_site.max() > 1024


def test_site_photons_count_the_photons(monkeypatch):
    """`site_photons` is the photons' count per site id, whichever of the two
    is read first.  Reading the photons opens no stream: a one-level run
    stamps them from its kept loads, and any other run's sampler has drawn
    them before `run_device` returns."""
    def refuse(*args):
        raise AssertionError("a stream was opened")

    runs = [(*random_device(seed), seed) for seed in range(60)] + [
        (*simple_layout(positions, pairs=pairs), saw, saw.period_ns, 50, 3)
        for positions, pairs in (((), 2.0), ((0.0, -7.0), 0.0))
        for saw in (SawWave(193.0, 15.0, amplitude=a, direction=-1)
                    for a in (0.0, 1.0))]
    levels, wave_off = set(), 0
    for run in runs:
        sites = run[1]
        results = [run_device(*run), run_device(*run)]
        with monkeypatch.context() as patch:
            for name in ("substream", "substreams"):
                patch.setattr(transport, name, refuse)
            counts = results[0].site_photons
            photons = results[0].photons
            assert_same_photons(results[1].photons, photons)
            other = results[1].site_photons
        assert results[0].photons is photons
        expected = np.bincount(photons["emitter_id"], minlength=len(sites))
        assert counts.tolist() == other.tolist() == expected.tolist()
        emitting = {sites.models[i].num_levels for i in np.flatnonzero(counts)}
        levels.add(max(emitting, default=0))
        wave_off += run[2].amplitude == 0 and bool(emitting)
    assert levels == {0, 1, 3} and wave_off >= 5


def counting_streams(stubs):
    """A stand-in for `substreams`: a `CountingStream` per key, each taken
    only once the one before it has drawn."""
    def batch(master_seed, *key):
        for _ in np.ravel(key[-1]):
            assert not stubs or stubs[-1].calls
            stubs.append(CountingStream())
            yield stubs[-1]
    return batch


def test_one_level_path_takes_one_wait_per_load(monkeypatch):
    # every wait is 1.  With the wave off and one site that captures every
    # pair at its pulse, a load emits 4 ns later unless a pair of the same
    # or the next pulse (4 ns later, exactly when the photon would leave)
    # loads the dot first
    stubs = []
    monkeypatch.setattr(transport, "substreams", counting_streams(stubs))
    model = CascadeModel((4.0,))
    saw = SawWave(193.0, 15.0, amplitude=0.0)
    spot = LaserSpot(0.0, 0.01, 1.0)
    res = run_device(spot, line_sites((0.0,), 1.0, model=model), saw, 4.0,
                     400, 9)
    loads, _ = draw_pairs(spot, saw, res.log.pulse_times, substream(9, 0, 0))
    assert [stub.sizes for stub in stubs] == [[loads.size]]
    after = loads + 4.0
    kept = after < np.append(loads[1:], math.inf)
    assert res.photons["time_ns"].tolist() == after[kept].tolist()
    assert set(res.photons["transition"].tolist()) == {model.labels[0]}
    assert res.site_photons.tolist() == [np.count_nonzero(kept)]
    cut_at_next_pulse = loads[1:] == after[:-1]
    assert cut_at_next_pulse.sum() >= 20 and np.count_nonzero(kept) >= 20
    # conveyed to several one-level sites: one call per loaded site, in
    # encounter order, of one wait per load
    one_level = CascadeModel((0.7,))
    seen = 0
    for seed in range(40):
        spot, sites, saw, period, pulses = random_device(seed)
        if saw.amplitude == 0:
            continue
        sites = SiteField(sites.x_um, sites.y_um, sites.capture_radius_um,
                          sites.capture_prob, (one_level,) * len(sites))
        stubs.clear()
        res, _, loads = run_with_rows(spot, sites, saw, period, pulses, seed)
        per_site = np.bincount([site for _, site, _ in loads],
                               minlength=len(sites))
        order = np.argsort(saw.direction * sites.x_um, kind="stable")
        assert [stub.sizes for stub in stubs] == [
            [n] for n in per_site[order].tolist() if n]
        # a site's load emits 0.7 ns later unless its next load comes first
        emitted = np.zeros(len(sites), np.int64)
        for site in np.flatnonzero(per_site):
            times = np.array([t for t, i, _ in loads if i == site])
            emitted[site] = np.count_nonzero(
                times + 0.7 < np.append(times[1:], math.inf))
        assert res.site_photons.tolist() == emitted.tolist()
        seen += np.count_nonzero(per_site) > 1
    assert seen >= 10


def test_draw_block_never_shows(monkeypatch):
    # blocks of at most 1, 2, 7 or 30 passes (or of one rank) draw the
    # stream in several calls and split a pocket's hits over several scans,
    # so a tie at a site that the pocket index does not break shows;
    # SCAN_HITS 1 resolves one site per scan
    runs = [random_device(seed) for seed in range(40)]
    default = [device_outputs(*run, 5) for run in runs]
    for name, size in (("DRAW_BLOCK", 1), ("DRAW_BLOCK", 2),
                       ("DRAW_BLOCK", 7), ("DRAW_BLOCK", 30),
                       ("SCAN_HITS", 1), ("SCAN_HITS", 5)):
        with monkeypatch.context() as patch:
            patch.setattr(transport, name, size)
            for run, expected in zip(runs, default):
                got = device_outputs(*run, 5)
                assert got[:3] == expected[:3], (name, size)
                assert_same_photons(got[3], expected[3])


def test_draw_block_never_shows_in_presets(monkeypatch, tmp_path):
    # fig5's field has about 3,000 sites, where the random devices have at
    # most 8; at DRAW_BLOCK 1 every rank is a block of its own
    configs = [{"scenario": "fig5_ensemble",
                "params": {"num_pulses": 20, "write_photons": True}},
               {"scenario": "fig7_remote", "params": {"num_pulses": 200}}]
    manifests = []
    for size in (transport.DRAW_BLOCK, 1, 7):
        monkeypatch.setattr(transport, "DRAW_BLOCK", size)
        manifests.append([output_hashes(config, tmp_path / f"{i}-{size}")
                          for i, config in enumerate(configs)])
    assert manifests[1] == manifests[0] and manifests[2] == manifests[0]


def dry_device(seed):
    """`random_device(seed)` with the wave at full amplitude, every capture
    probability 1 and five pulses of one pair on average: its pockets often
    run dry before the last site."""
    spot, sites, saw, period, _ = random_device(seed)
    return (LaserSpot(spot.center_um, spot.radius_um, 1.0),
            SiteField(sites.x_um, sites.y_um, sites.capture_radius_um,
                      np.ones(len(sites)), sites.models),
            SawWave(saw.frequency_mhz, saw.wavelength_um, 1.0, saw.direction),
            period, 5)


class RecordingStream:
    """Stands in for the kernel's generator: records the size of each
    `random` call and draws it from the wrapped stream."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size):
        self.sizes.append(int(size))
        return self.rng.random(size)


# at the default block a random layout's passes fit in one block; at 2
# there are blocks of several ranks and blocks of one rank with more passes
@pytest.mark.parametrize("block", [transport.DRAW_BLOCK, 2],
                         ids=["default", "2"])
def test_each_block_reads_exactly_its_passes(block, monkeypatch):
    """The kernel draws its capture uniforms in consecutive calls, one per
    block: each takes exactly the passes at the block's ranks, by the
    oracle's enumeration of the stream, and is the longest run of ranks
    whose passes fit in DRAW_BLOCK, or one rank.  The blocks come in sweep
    order from rank 0, a pocket holds carriers when each block starts, and
    the sweep stops at the last rank or once no pocket holds carriers."""
    monkeypatch.setattr(transport, "DRAW_BLOCK", block)
    calls, convey = [], transport._convey

    def recording_convey(*args):
        stream = RecordingStream(args[-1])
        calls.append({"args": args, "sizes": stream.sizes})
        calls[-1]["out"] = convey(*args[:-1], stream)
        return calls[-1]["out"]
    monkeypatch.setattr(transport, "_convey", recording_convey)
    seen = {"blocks": 0, "wide": 0, "single": 0, "stopped": 0}
    for seed in range(140):
        calls.clear()
        run_device(*(random_device(seed) if seed < 100 else dry_device(seed)),
                   seed)
        for call in calls:
            pockets, pos, radius, _, _, saw, _ = call["args"]
            _, (_, pk, rank, moved, _) = call["out"]
            pos, radius = pos.tolist(), radius.tolist()
            at_rank = np.bincount(
                [r for _, r in reference_passes(
                    [CarrierPocket(SPECIES[p["species"]], int(p["count"]),
                                   float(p["position_um"]),
                                   float(p["birth_time_ns"]))
                     for p in pockets],
                    [SimpleNamespace(position_um=x, capture_radius_um=c)
                     for x, c in zip(pos, radius)], saw)],
                minlength=len(pos)).tolist()
            # each pocket's count before each rank
            taken = np.zeros((len(pockets), len(pos) + 1), np.int64)
            np.add.at(taken, (pk, rank + 1), moved)
            held = pockets["count"][:, None] - np.cumsum(taken, axis=1)
            lo = 0
            for size in call["sizes"]:
                assert lo < len(pos) and held[:, lo].any(), seed
                hi = lo + 1
                while hi < len(pos) and sum(at_rank[lo:hi + 1]) <= block:
                    hi += 1
                assert size == sum(at_rank[lo:hi]), seed
                assert size <= block or hi == lo + 1, seed
                seen["wide"] += hi > lo + 1
                seen["single"] += size > block
                lo = hi
            assert lo == len(pos) or not held[:, lo].any(), seed
            seen["blocks"] += len(call["sizes"]) > 1
            seen["stopped"] += 0 < lo < len(pos)
    # several blocks, of several ranks and of one, and sweeps stopped early
    if block == 2:
        assert seen["blocks"] >= 10 and seen["wide"] >= 10
        assert seen["single"] >= 10 and seen["stopped"] >= 10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_clamp_add_scan_matches_sequential_clamp(length, scale, seed):
    g = np.random.default_rng(seed)
    d, lo, width = g.integers([[-scale], [-scale], [0]], scale + 1, (3, length))
    hi = lo + width
    x, expected = 0, []
    for dk, lk, hk in zip(d.tolist(), lo.tolist(), hi.tolist()):
        x = min(hk, max(lk, x + dk))
        expected.append(x)
    assert transport._clamp_add_scan(d, lo, hi).tolist() == expected


def test_rank_layout_matches_oracle_enumeration():
    behind = 0
    for seed in range(100):
        spot, sites, saw, period, pulses = random_device(seed)
        d = saw.direction
        sites = sorted(site_rows(sites), key=lambda s: d * s.position_um)
        pockets = [CarrierPocket(SPECIES[p["species"]], int(p["count"]),
                                 float(p["position_um"]), float(p["birth_time_ns"]))
                   for p in launch_pockets(*draw_pairs(
                       spot, saw, np.arange(pulses) * period,
                       substream(seed, 0, 0)), saw)]
        starts, passer = transport._rank_layout(
            np.array([d * p.position_um for p in pockets]),
            np.array([d * s.position_um for s in sites]),
            np.array([s.capture_radius_um for s in sites]))
        expected = reference_passes(pockets, sites, saw)
        ranks = [r for _, r in expected]
        assert starts.tolist() == [sum(r < k for r in ranks)
                                   for k in range(len(sites) + 1)], seed
        pk, rank = passer(np.arange(len(expected)))
        assert list(zip(pk.tolist(), rank.tolist())) == expected, seed
        sp = [d * s.position_um for s in sites]
        behind += any(sp[r] < d * pockets[i].position_um for i, r in expected)
    # pockets born inside the window past a site
    assert behind >= 10


def test_capture_draws_stay_lazy(monkeypatch, tmp_path):
    """fig5 at its defaults draws its passes up to the end of the block in
    which its last pocket runs dry, and no further.  Of the drawn passes
    only those whose draw is below the capture probability look up their
    pocket and rank."""
    count = {"lookups": 0}
    layout, convey = transport._rank_layout, transport._convey

    def counting_layout(*args):
        count["starts"], passer = layout(*args)

        def counting_passer(j):
            count["lookups"] += np.size(j)
            return passer(j)
        return count["starts"], counting_passer

    def counting_convey(*args):
        stream = RecordingStream(args[-1])
        count["sizes"] = stream.sizes
        count["out"] = convey(*args[:-1], stream)
        return count["out"]

    monkeypatch.setattr(transport, "_rank_layout", counting_layout)
    monkeypatch.setattr(transport, "_convey", counting_convey)
    config = ScenarioConfig.from_dict({"scenario": "fig5_ensemble",
                                       "params": {"num_pulses": 200}})
    run_scenario(config, tmp_path / "out")
    starts, sizes = count["starts"], count["sizes"]
    left, (_, _, rank, _, _) = count["out"]
    draws = sum(sizes)
    assert starts[-1] > 10 ** 6
    # every pocket runs dry at the last capture, and the passes of its rank
    # lie in the last block drawn
    top = rank.max()
    assert not left.any() and draws < starts[-1]
    assert draws - sizes[-1] <= starts[top] < starts[top + 1] <= draws
    # fig5 captures with probability 0.2: about a fifth of the draws
    assert count["lookups"] <= 0.3 * draws
