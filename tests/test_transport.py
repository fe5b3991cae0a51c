import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawsps.cascade import CascadeModel, PumpSpec
from sawsps.rng import substream
from sawsps.transport import (ELECTRON, HOLE, CarrierPocket, ChannelLayout,
                              LaserSpot, QdSite, SawWave, arrival_delay,
                              capture_pass, exciton_formation, generate_pockets, per_cycle_emission_times,
                              pocket_lattice_position, run_device,
                              uniform_site_field)

MODEL = CascadeModel((1.5, 1.4, 0.9))
SAW = SawWave(193.0, 15.0)
# frozen from the configured device numbers: v = 193 MHz * 15 um = 2.895 um/ns
V_UM_PER_NS = 2.895
DELAY_7UM = 2.4179620034542313
DELAY_14UM = 4.835924006908463


def simple_layout(site_positions=(0.0, -7.0, -14.0), capture_prob=0.5,
                  pairs=2.0, radius=0.5):
    sites = tuple(QdSite(i, float(x), radius, capture_prob, MODEL)
                  for i, x in enumerate(site_positions))
    return ChannelLayout((-20.0, 6.0), LaserSpot(0.0, 1.0, pairs), sites)


class TestSawWave:
    def test_velocity_from_paper_device(self):
        assert SAW.velocity_um_per_ns == pytest.approx(V_UM_PER_NS, abs=1e-12)
        assert SAW.period_ns == pytest.approx(1e3 / 193.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SawWave(0.0, 15.0)
        with pytest.raises(ValueError):
            SawWave(193.0, 15.0, amplitude=1.5)
        with pytest.raises(ValueError):
            SawWave(193.0, 15.0, direction=0)


class TestGeneratePockets:
    def test_no_pairs_no_pockets(self):
        layout = simple_layout(pairs=0.0)
        assert generate_pockets(layout, SAW, 0.0, substream(1, 0)) == []

    def test_species_counts_balance(self):
        layout = simple_layout(pairs=5.0)
        pockets = generate_pockets(layout, SAW, 0.3, substream(2, 0))
        e = sum(p.count for p in pockets if p.species == ELECTRON)
        h = sum(p.count for p in pockets if p.species == HOLE)
        assert e == h > 0

    def test_half_wavelength_offset(self):
        layout = simple_layout(pairs=1.0)
        rng = substream(3, 0)
        for _ in range(20):
            pockets = generate_pockets(layout, SAW, 0.0, rng)
            es = [p.position_um for p in pockets if p.species == ELECTRON]
            hs = [p.position_um for p in pockets if p.species == HOLE]
            for e in es:
                for h in hs:
                    offset = (e - h) % 15.0
                    assert min(offset, 15.0 - offset) == pytest.approx(7.5, abs=1e-9)


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
        site = QdSite(0, 0.0, 0.5, 0.0, MODEL)
        pocket = CarrierPocket(ELECTRON, 5, 0.0, 0.0)
        assert capture_pass(pocket, site, substream(5, 0)) == 0
        assert pocket.count == 5

    def test_forced_transfer_respects_capacity(self):
        site = QdSite(0, 0.0, 0.5, 1.0, MODEL)
        pocket = CarrierPocket(ELECTRON, 5, 0.0, 0.0)
        moved = capture_pass(pocket, site, substream(5, 1), amplitude=1.0)
        assert moved == 3 and pocket.count == 2 and site.n_electrons == 3

    def test_already_held_reduces_room(self):
        site = QdSite(0, 0.0, 0.5, 1.0, MODEL, n_electrons=2)
        pocket = CarrierPocket(ELECTRON, 5, 0.0, 0.0)
        moved = capture_pass(pocket, site, substream(5, 2), amplitude=1.0)
        assert moved == 1 and site.n_electrons == 3


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
        with pytest.raises(ValueError):
            arrival_delay(-1.0, SAW)


class TestRunDevice:
    def run(self, direction=-1, amplitude=1.0, pulses=2000, seed=11, **kw):
        saw = SawWave(193.0, 15.0, amplitude=amplitude, direction=direction)
        layout = simple_layout(**kw)
        pump = PumpSpec(1.0, saw.period_ns, num_pulses=pulses)
        duration = pulses * saw.period_ns + 30.0
        return layout, saw, run_device(layout, saw, pump, duration, seed)

    def test_forward_feeds_all_sites(self):
        layout, saw, res = self.run()
        emitted = set(res.photons["emitter_id"].tolist())
        assert emitted == {0, 1, 2}

    def test_conservation(self):
        for seed in (1, 2, 3):
            _, _, res = self.run(seed=seed, pulses=500)
            assert res.log.conservation_ok()

    def test_exact_ballistic_causality(self):
        layout, saw, res = self.run()
        pos = {s.site_id: s.position_um for s in layout.sites}
        checked = 0
        for ev in res.log.captures:
            dist = abs(pos[ev.site_id] - ev.pocket_birth_um)
            if dist > 0.5:  # born outside the capture window: exact delay
                checked += 1
                assert ev.time_ns >= ev.pocket_birth_ns \
                    + dist / saw.velocity_um_per_ns - 1e-9
        assert checked > 100

    def test_remote_photons_respect_spot_delay(self):
        # photons from the 7 um site: no earlier than the pocket lattice
        # allowance (distance - lambda/2) over the sound velocity
        layout, saw, res = self.run()
        first_pulse = res.log.pulse_times[0]
        ids, times = res.photons["emitter_id"], res.photons["time_ns"]
        assert np.all(times[ids == 1] >= first_pulse + (7.0 - 7.5) / 2.895 - 1e-9)
        assert np.all(times[ids == 2] >= first_pulse + (14.0 - 7.5) / 2.895 - 1e-9)

    def test_reversed_direction_dark_side(self):
        _, _, res = self.run(direction=+1, pulses=5000)
        emitted = set(res.photons["emitter_id"].tolist())
        assert 1 not in emitted and 2 not in emitted
        assert 0 in emitted  # the spot site still captures passing pockets

    def test_saw_off_only_spot_emits(self):
        _, _, res = self.run(amplitude=0.0, pulses=5000)
        emitted = set(res.photons["emitter_id"].tolist())
        assert emitted == {0}
        assert res.log.conservation_ok()

    def test_mirror_symmetry_exact(self):
        saw_m = SawWave(193.0, 15.0, direction=-1)
        saw_p = SawWave(193.0, 15.0, direction=+1)
        lay_m = simple_layout((0.0, -7.0, -14.0))
        sites_p = tuple(QdSite(i, -s.position_um, 0.5, 0.5, MODEL)
                        for i, s in enumerate(lay_m.sites))
        lay_p = ChannelLayout((-6.0, 20.0), lay_m.spot, sites_p)
        pump = PumpSpec(1.0, saw_m.period_ns, num_pulses=1000)
        dur = 1000 * saw_m.period_ns + 30.0
        res_m = run_device(lay_m, saw_m, pump, dur, 21)
        res_p = run_device(lay_p, saw_p, pump, dur, 21)
        assert len(res_m.photons) == len(res_p.photons)
        a, b = res_m.photons, res_p.photons
        assert np.allclose(a["time_ns"], b["time_ns"], rtol=0, atol=1e-9)
        assert np.allclose(a["x_um"], -b["x_um"], rtol=0, atol=1e-9)
        assert np.array_equal(a["transition"], b["transition"])

    def test_depletion_monotonic_in_series(self):
        # two identical sites, both beyond the pocket birth zone (half a
        # wavelength around the spot): finite pockets deplete upstream first
        sites = tuple(QdSite(i, x, 0.5, 0.5, MODEL)
                      for i, x in enumerate((-12.0, -17.0)))
        layout = ChannelLayout((-25.0, 6.0), LaserSpot(0.0, 1.0, 2.0), sites)
        saw = SawWave(193.0, 15.0, direction=-1)
        pump = PumpSpec(1.0, saw.period_ns, num_pulses=10000)
        res = run_device(layout, saw, pump, 10000 * saw.period_ns + 40.0, 31)
        captures = {0: 0, 1: 0}
        for ev in res.log.captures:
            captures[ev.site_id] += ev.count
        photons = np.bincount(res.photons["emitter_id"], minlength=2)
        assert captures[0] > captures[1] > 0
        assert photons[0] > photons[1] > 0

    def test_capacity_one_single_exciton_per_cycle(self):
        # at most one pair per cycle reaching a capacity-1 site: every load is
        # a single exciton and no two loads share a SAW cycle
        sites = (QdSite(0, -7.0, 0.5, 1.0, CascadeModel((0.5,))),)
        layout = ChannelLayout((-20.0, 6.0), LaserSpot(0.0, 0.3, 1.0), sites)
        saw = SawWave(193.0, 15.0, direction=-1)
        pump = PumpSpec(1.0, saw.period_ns, num_pulses=20000)
        res = run_device(layout, saw, pump, 20000 * saw.period_ns + 30.0, 41)
        loads = res.log.loads_by_site()[0]
        assert loads and all(k == 1 for _, k in loads)
        cycles = [int(t // saw.period_ns) for t, _ in loads]
        assert len(cycles) == len(set(cycles))

    def test_site_outside_extent_rejected(self):
        sites = (QdSite(0, 50.0, 0.5, 0.5, MODEL),)
        with pytest.raises(ValueError):
            ChannelLayout((-20.0, 6.0), LaserSpot(0.0, 1.0, 1.0), sites)

    def test_duplicate_site_ids_rejected(self):
        sites = (QdSite(0, 0.0, 0.5, 0.5, MODEL),
                 QdSite(0, -7.0, 0.5, 0.5, MODEL))
        with pytest.raises(ValueError):
            ChannelLayout((-20.0, 6.0), LaserSpot(0.0, 1.0, 1.0), sites)

    def test_saw_off_pairs_go_to_nearest_covering_site(self):
        # both windows cover the spot: every pair is captured whole by the
        # nearer site, at its pulse time
        sites = (QdSite(0, 0.1, 0.5, 1.0, MODEL), QdSite(1, 0.4, 0.5, 1.0, MODEL))
        layout = ChannelLayout((-20.0, 6.0), LaserSpot(0.0, 0.01, 2.0), sites)
        saw = SawWave(193.0, 15.0, amplitude=0.0)
        pump = PumpSpec(1.0, saw.period_ns, num_pulses=200)
        res = run_device(layout, saw, pump, 200 * saw.period_ns + 30.0, 71)
        captures = res.log.captures
        assert captures and len(captures) % 2 == 0
        pulse_times = set(res.log.pulse_times)
        for ev in captures:
            assert ev.site_id == 0 and ev.count == 1
            assert ev.time_ns in pulse_times and ev.time_ns == ev.pocket_birth_ns
        for e_ev, h_ev in zip(captures[0::2], captures[1::2]):
            assert (e_ev.species, h_ev.species) == (ELECTRON, HOLE)
            assert (e_ev.time_ns, e_ev.pocket_birth_um) \
                == (h_ev.time_ns, h_ev.pocket_birth_um)
        assert res.log.recombined == {ELECTRON: 0, HOLE: 0}
        assert res.log.conservation_ok()

    def test_formation_time_is_later_species_arrival(self):
        layout, saw, res = self.run(pulses=300)
        arrivals = {}
        for ev in res.log.captures:
            arrivals.setdefault(ev.site_id, []).append(ev.time_ns)
        for site_id, loads in res.log.loads_by_site().items():
            for t, _ in loads:
                assert any(abs(t - a) < 1e-9 for a in arrivals[site_id])


class TestFieldAndPerCycle:
    def test_uniform_field_density(self):
        rng = substream(50, 0)
        sites = uniform_site_field(30.0, ((0.0, 10.0), (-5.0, 5.0)),
                                   CascadeModel((1.5,)), 0.05, 0.2, rng)
        assert abs(len(sites) - 3000) < 3 * np.sqrt(3000)
        assert all(0.0 <= s.position_um <= 10.0 for s in sites)

    def test_per_cycle_times_sorted_and_thinned(self):
        rng = substream(51, 0)
        times = per_cycle_emission_times(100000, 5.0, 0.5, 0.5, rng)
        assert np.all(np.diff(times) >= 0)
        assert abs(times.size - 50000) < 3 * np.sqrt(25000)

    def test_per_cycle_validation(self):
        with pytest.raises(ValueError):
            per_cycle_emission_times(0, 5.0, 0.5, 0.5, substream(0, 0))
        with pytest.raises(ValueError):
            per_cycle_emission_times(10, 5.0, 1.5, 0.5, substream(0, 0))
