import csv
import hashlib
import json

import numpy as np

import pytest

from sawsps.analysis import g2_histogram
from sawsps.cli import main
from sawsps.scenarios import (ConfigError, ScenarioConfig, list_scenarios,
                              run_scenario)
from sawsps import rng, scenarios, transport


def dir_digest(path, skip=()):
    """Content hash of every file in a directory, keyed by name."""
    out = {}
    for p in sorted(path.iterdir()):
        if p.name in skip:
            continue
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestListing:
    def test_six_presets_stable_order(self):
        names = [name for name, _ in list_scenarios()]
        assert names == ["fig3_power_series", "fig4_transients", "fig4c_delays",
                         "fig5_ensemble", "fig7_remote", "g2_antibunching"]
        assert names == [name for name, _ in list_scenarios()]

    def test_descriptions_present(self):
        assert all(desc for _, desc in list_scenarios())


class TestConfig:
    def test_round_trip_every_preset(self):
        for name, _ in list_scenarios():
            cfg = ScenarioConfig.preset(name, master_seed=7)
            back = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
            assert back == cfg

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.preset("fig9_nope")

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="fig4_transients.irf_fwhm"):
            ScenarioConfig.preset("fig4_transients", {"irf_fwhm": 0.3})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="saw.speed"):
            ScenarioConfig.preset("g2_antibunching", {"saw": {"speed": 3.0}})

    def test_override_applies(self):
        cfg = ScenarioConfig.preset("g2_antibunching",
                                    {"num_cycles": 1000, "site": {"capture_prob": 0.3}})
        assert cfg.params["num_cycles"] == 1000
        assert cfg.params["site"]["capture_prob"] == 0.3
        assert cfg.params["site"]["lifetime_ns"] == 0.5  # default kept

    def test_bad_seed(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.preset("fig4_transients", master_seed=-1)

    def test_invalid_parameter_fails_before_outputs(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            cfg = ScenarioConfig.preset("fig4_transients",
                                        {"cascade": {"lifetimes_ns": [-1.0]}})
            run_scenario(cfg, out)
        assert not out.exists()

    def test_values_take_the_type_of_their_default(self):
        p = ScenarioConfig.preset("fig5_ensemble",
                                  {"pulses_per_saw_cycle": 2}).params
        assert type(p["pulses_per_saw_cycle"]) is float
        frame = ScenarioConfig.preset(
            "fig7_remote", {"frame": {"row_extent_um": [-16, 4]}}).params["frame"]
        assert frame["row_extent_um"] == (-16.0, 4.0)
        assert type(frame["row_extent_um"][0]) is float

    def test_emitter_shift_for_any_site_id(self, tmp_path):
        cfg = ScenarioConfig.preset("fig7_remote",
                                    {"num_pulses": 50,
                                     "emitter_shifts_nm": {"0": 1.0}})
        assert cfg.params["emitter_shifts_nm"] == {0: 1.0, 1: 1.6, 2: -2.4}
        assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        run_scenario(cfg, tmp_path / "out")
        with pytest.raises(ConfigError, match="emitter_shifts_nm"):
            ScenarioConfig.preset("fig7_remote", {"emitter_shifts_nm": {"1.5": 1.0}})

    def test_fewer_sites_keep_the_default_shifts(self, tmp_path):
        # the default shifts of sites 1 and 2 may outlive those sites; a
        # changed shift of a missing site is refused (BAD_CONFIGS)
        cfg = ScenarioConfig.preset("fig7_remote",
                                    {"num_pulses": 50,
                                     "sites": {"positions_um": [0.0, -7.0]}})
        run_scenario(cfg, tmp_path / "out")
        with pytest.raises(ConfigError, match="fig7_remote: need"):
            ScenarioConfig.preset("fig7_remote",
                                  {"sites": {"positions_um": [0.0, -7.0]},
                                   "emitter_shifts_nm": {"2": 5.0}})

    def test_every_bound_names_a_preset_key(self):
        def paths(params, prefix):
            for key, value in params.items():
                yield key, f"{prefix}.{key}"
                if isinstance(value, dict):
                    yield from paths(value, f"{prefix}.{key}")

        known = {"master_seed", *scenarios._PRESETS}
        for name, entry in scenarios._PRESETS.items():
            for key, path in paths(entry["params"], name):
                known |= {str(key), path}
        assert set(scenarios._BOUNDS) <= known


class TestRunScenario:
    def test_refuses_non_empty_dir(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("old")
        cfg = ScenarioConfig.preset("fig4c_delays")
        with pytest.raises(ConfigError, match="not empty"):
            run_scenario(cfg, out)
        assert (out / "stale.txt").exists()

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("old")
        cfg = ScenarioConfig.preset("fig4c_delays")
        manifest = run_scenario(cfg, out, force=True)
        assert not (out / "stale.txt").exists()
        assert (out / "delays.csv").exists()
        assert manifest["files"][0]["name"] == "delays.csv"

    def test_manifest_lists_all_files_with_hashes(self, tmp_path):
        out = tmp_path / "out"
        cfg = ScenarioConfig.preset("fig4c_delays")
        manifest = run_scenario(cfg, out)
        on_disk = {p.name for p in out.iterdir()}
        listed = {f["name"] for f in manifest["files"]}
        assert on_disk == listed | {"manifest.json"}
        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_failed_forced_run_keeps_previous_outputs(self, tmp_path,
                                                      monkeypatch):
        out = tmp_path / "out"
        run_scenario(ScenarioConfig.preset("fig4c_delays"), out)
        before = dir_digest(out)

        def broken(cfg, out, threads):
            (out / "partial.csv").write_text("half-written")
            raise RuntimeError("boom")

        monkeypatch.setitem(scenarios._RUNNERS, "fig4c_delays", broken)
        with pytest.raises(RuntimeError):
            run_scenario(ScenarioConfig.preset("fig4c_delays"), out, force=True)
        assert dir_digest(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        # the staged directory that became `out` has the usual permissions
        (tmp_path / "plain").mkdir()
        assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_interrupted_removal_keeps_complete_outputs(self, tmp_path,
                                                        monkeypatch):
        # an interrupt while the previous outputs are deleted, after one of
        # their files is gone, leaves the new outputs whole at `out`: the
        # files and manifest of a complete run
        out = tmp_path / "out"
        run_scenario(ScenarioConfig.preset("fig4c_delays"), out)
        expected = dir_digest(out)
        (out / "stale.txt").write_text("old")
        rmtree = scenarios.shutil.rmtree

        def interrupted(path, *args, **kwargs):
            if (path / "stale.txt").exists():
                (path / "delays.csv").unlink()
                raise KeyboardInterrupt
            rmtree(path, *args, **kwargs)

        monkeypatch.setattr(scenarios.shutil, "rmtree", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_scenario(ScenarioConfig.preset("fig4c_delays"), out, force=True)
        assert dir_digest(out) == expected
        # the next complete run removes the set the interrupt left aside
        monkeypatch.setattr(scenarios.shutil, "rmtree", rmtree)
        run_scenario(ScenarioConfig.preset("fig4c_delays"), out, force=True)
        assert dir_digest(out) == expected
        assert not list(tmp_path.glob(".out.partial-*"))

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        def broken(cfg, out, threads):
            (out / "partial.csv").write_text("half-written")
            raise RuntimeError("boom")

        monkeypatch.setitem(scenarios._RUNNERS, "fig4c_delays", broken)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError):
            run_scenario(ScenarioConfig.preset("fig4c_delays"), out)
        assert not out.exists()

    def test_one_cycle_runs(self, tmp_path):
        # one photon at most: no pair, so no zero-peak ratio
        run_scenario(ScenarioConfig.preset("g2_antibunching",
                                           {"num_cycles": 1}), tmp_path / "g2")
        rows = (tmp_path / "g2" / "g2_summary.csv").read_text().splitlines()
        num_photons, num_cycles, ratio = rows[1].split(",")
        assert int(num_photons) <= 1 and num_cycles == "1"
        assert ratio == "nan"
        with pytest.raises(ConfigError, match="num_cycles"):
            ScenarioConfig.preset("g2_antibunching", {"num_cycles": 0})

    def test_fig3_counts_1e12_pulses_per_point(self, tmp_path):
        # a pump value's counts are one draw, whatever the pulse count: each
        # rate lies within 5 binomial standard errors of its model column,
        # and no level is loaded by more pulses than the level below it
        pulses = 10 ** 12
        run_scenario(ScenarioConfig.preset("fig3_power_series",
                                           {"mc_pulses_per_point": pulses}),
                     tmp_path / "fig3")
        with open(tmp_path / "fig3" / "intensity_vs_g.csv",
                  newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        labels = scenarios._CASCADE_DEFAULTS["labels"]
        for row in rows:
            model = np.array([float(row[f"model_{lab}"]) for lab in labels])
            mc = np.array([float(row[f"mc_{lab}"]) for lab in labels])
            se = np.sqrt(model * (1 - model) / pulses)
            assert np.all(np.abs(mc - model) <= 5 * se), row
            assert np.all(np.diff(mc) <= 0), row

    def test_seed_changes_outputs(self, tmp_path):
        over = {"num_cycles": 50000}
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario(ScenarioConfig.preset("g2_antibunching", over, 1), a)
        run_scenario(ScenarioConfig.preset("g2_antibunching", over, 2), b)
        assert dir_digest(a, skip=("manifest.json",)) != \
            dir_digest(b, skip=("manifest.json",))


class TestDeterminism:
    @pytest.mark.parametrize("name,overrides", [
        ("g2_antibunching", {"num_cycles": 100000}),
        ("fig3_power_series", {"mc_pulses_per_point": 50000,
                               "g_values": [0.02, 0.05, 0.1, 0.5]}),
        ("fig7_remote", {"num_pulses": 300}),
        ("fig5_ensemble", {"num_pulses": 40}),
    ])
    def test_byte_identical_across_thread_counts(self, tmp_path, name, overrides):
        cfg = ScenarioConfig.preset(name, overrides, master_seed=31415)
        man1 = run_scenario(cfg, tmp_path / "t1", threads=1)
        # g2's ~50k photons make four pair chunks: two threads share them
        for threads in (2, 4) if name == "g2_antibunching" else (4,):
            out = tmp_path / f"t{threads}"
            assert run_scenario(cfg, out, threads=threads) == man1
            assert dir_digest(out) == dir_digest(tmp_path / "t1")

    def test_one_thread_builds_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        cfg = ScenarioConfig.preset("g2_antibunching", {"num_cycles": 5000})
        run_scenario(cfg, tmp_path / "t1", threads=1)
        with pytest.raises(AssertionError, match="thread pool"):
            run_scenario(cfg, tmp_path / "t2", threads=2)

    def test_g2_pairs_walk_on_the_run_threads(self, tmp_path, monkeypatch):
        seen = []

        def spy(*args, threads=1):
            seen.append(threads)
            return g2_histogram(*args, threads=threads)

        monkeypatch.setattr(scenarios, "g2_histogram", spy)
        cfg = ScenarioConfig.preset("g2_antibunching", {"num_cycles": 5000})
        run_scenario(cfg, tmp_path / "out", threads=3)
        assert seen == [3]

    @pytest.mark.parametrize("threads", [0, -1, 2.5, "2", None, True])
    def test_threads_must_be_a_positive_int(self, tmp_path, threads):
        # rejected before the output path is touched
        cfg = ScenarioConfig.preset("g2_antibunching", {"num_cycles": 5000})
        with pytest.raises(ConfigError, match="threads must be an int >= 1"):
            run_scenario(cfg, tmp_path / "out", threads=threads)
        assert not any(tmp_path.iterdir())


# A small config of every preset, for the stream-key checks.
SMALL = {
    "fig3_power_series": {"mc_pulses_per_point": 2000},
    "fig4_transients": {"g_values": [0.2, 1.9], "horizon_ns": 6.0},
    "fig4c_delays": {"g_values": [0.1, 1.0]},
    "fig5_ensemble": {"num_pulses": 10},
    "fig7_remote": {"num_pulses": 50},
    "g2_antibunching": {"num_cycles": 5000},
}


def streams_used(monkeypatch, tmp_path, name, seed, **changed):
    """(master_seed, *key) of every substream one run of a preset opens, on
    its own or in a batch; `changed` overrides keys of its SMALL config."""
    keys = []

    def recording(master_seed, *key):
        keys.append((master_seed, *key))
        return rng.substream(master_seed, *key)

    def recording_batch(master_seed, *key):
        each = zip(*(np.ravel(k).tolist() for k in np.broadcast_arrays(*key)))
        for one, stream in zip(each, rng.substreams(master_seed, *key),
                               strict=True):
            keys.append((master_seed, *one))
            yield stream

    for module in (scenarios, transport):
        monkeypatch.setattr(module, "substream", recording)
    monkeypatch.setattr(transport, "substreams", recording_batch)
    run_scenario(ScenarioConfig.preset(name, {**SMALL[name], **changed},
                                       master_seed=seed),
                 tmp_path / "-".join([name, str(seed), *changed]))
    return keys


class TestStreamKeys:
    def test_no_two_streams_of_a_run_share_a_key(self, monkeypatch, tmp_path):
        assert sorted(SMALL) == [name for name, _ in list_scenarios()]
        opened = {}
        for name in SMALL:
            keys = opened[name] = streams_used(monkeypatch, tmp_path, name, 7)
            assert len(keys) == len(set(keys)), name
        # fig5's photons are stamped from its kept loads when they are
        # written: reading them opens no stream
        assert streams_used(monkeypatch, tmp_path, "fig5_ensemble", 7,
                            write_photons=True) == opened["fig5_ensemble"]

    def test_fig5_counts_its_photons_without_the_sampler(self, monkeypatch,
                                                          tmp_path):
        def refuse(*args, **kw):
            raise AssertionError("fig5 called the cascade sampler")
        monkeypatch.setattr(transport, "sample_cascade_from_loads", refuse)
        manifest = run_scenario(ScenarioConfig.preset("fig5_ensemble"),
                                tmp_path / "fig5")
        assert {f["name"] for f in manifest["files"]} == {
            "site_emission.csv", "depletion_stats.csv", "pl_image.pgm",
            "pl_image_axes.csv"}

    def test_fig5_opens_one_stream_per_loaded_site(self, monkeypatch,
                                                   tmp_path):
        loaded = set()  # encounter ranks of the sites that got a load

        def recording_run(spot, sites, saw, *args):
            result = transport.run_device(spot, sites, saw, *args)
            order = np.argsort(saw.direction * sites.x_um, kind="stable")
            rank = np.argsort(order)  # of each site id
            # one level: a site's last load always emits, so the loaded
            # sites are the emitting ones
            assert {m.num_levels for m in sites.models} == {1}
            loaded.update(rank[result.photons["emitter_id"]].tolist())
            return result

        monkeypatch.setattr(scenarios, "run_device", recording_run)
        keys = streams_used(monkeypatch, tmp_path, "fig5_ensemble", 7)
        site_keys = [key[1:] for key in keys if key[1] == 1]
        assert len(loaded) > 10
        assert sorted(site_keys) == [(1, 0, r) for r in sorted(loaded)]

    def test_fig7_variants_do_not_replay_the_next_seed(self, monkeypatch,
                                                       tmp_path):
        # variant 1 of seed 7 once reused the device stream of variant 0 of
        # seed 8 (seed + variant)
        at_7 = streams_used(monkeypatch, tmp_path, "fig7_remote", 7)
        at_8 = streams_used(monkeypatch, tmp_path, "fig7_remote", 8)
        assert at_7 and not set(at_7) & set(at_8)
        first_8 = {tuple(rng.substream(*k).random(4)) for k in at_8}
        assert not any(tuple(rng.substream(*k).random(4)) in first_8
                       for k in at_7)


def read_pgm(path):
    raw = path.read_bytes()
    header, pixels = raw.split(b"65535\n", 1)
    dims = header.decode().split("\n")[1].split()
    width, height = int(dims[0]), int(dims[1])
    return np.frombuffer(pixels, dtype=">u2").reshape(height, width)


class TestRenderedFrames:
    def test_remote_frames_show_line_sets_at_site_rows(self, tmp_path):
        cfg = ScenarioConfig.preset("fig7_remote", {"num_pulses": 400},
                                    master_seed=5)
        run_scenario(cfg, tmp_path / "fig7")
        axes = (tmp_path / "fig7" / "frame_idt1_axes.csv").read_text()
        rows_um = np.array([float(line.split(",")[2])
                            for line in axes.strip().splitlines()[1:]
                            if line.startswith("row_center_um")])

        def row_signal(tag, center):
            frame = read_pgm(tmp_path / "fig7" / f"frame_{tag}.pgm")
            band = np.abs(rows_um - center) <= 1.0
            return frame[band].sum()

        # SAW toward the remote posts: line sets at 0, -7 and -14 um
        for center in (0.0, -7.0, -14.0):
            assert row_signal("idt1", center) > 0
        # without SAW or with the direction reversed the remote rows are dark
        for tag in ("saw_off", "idt2"):
            assert row_signal(tag, 0.0) > 0
            assert row_signal(tag, -7.0) == 0
            assert row_signal(tag, -14.0) == 0

    def test_depletion_image_concentrated_on_source_edge(self, tmp_path):
        cfg = ScenarioConfig.preset("fig5_ensemble", {"num_pulses": 60},
                                    master_seed=6)
        run_scenario(cfg, tmp_path / "fig5")
        image = read_pgm(tmp_path / "fig5" / "pl_image.pgm")
        columns = image.sum(axis=0).astype(float)
        left = columns[: columns.size // 2].sum()
        assert left > 0.9 * columns.sum()


# Invalid configs, each with the key path its error must name.
BAD_CONFIGS = [
    ({"scenario": "fig5_ensemble", "params": {"pulses_per_saw_cycle": 0}},
     "fig5_ensemble.pulses_per_saw_cycle"),
    ({"scenario": "fig5_ensemble", "params": {"num_pulses": "abc"}},
     "fig5_ensemble.num_pulses"),
    ({"scenario": "fig5_ensemble", "params": {"num_pulses": 0}},
     "fig5_ensemble.num_pulses"),
    ({"scenario": "fig5_ensemble", "params": {"field": {"capture_prob": 1.5}}},
     "fig5_ensemble.field.capture_prob"),
    ({"scenario": "fig5_ensemble", "params": {"image": {"pixel_um": 0}}},
     "fig5_ensemble.image.pixel_um"),
    ({"scenario": "fig4_transients", "params": {"g_values": [-1.0]}},
     "fig4_transients.g_values"),
    ({"scenario": "fig4_transients", "params": {"g_values": "abc"}},
     "fig4_transients.g_values"),
    ({"scenario": "fig4_transients", "params": {"g_values": [0.2, 0.2000001]}},
     "fig4_transients.g_values"),
    ({"scenario": "fig4c_delays", "params": {"g_values": [-1.0]}},
     "fig4c_delays.g_values"),
    ({"scenario": "fig4c_delays", "params": {"onset_threshold": 2}},
     "fig4c_delays.onset_threshold"),
    ({"scenario": "fig3_power_series", "params": {"mc_pulses_per_point": -5}},
     "fig3_power_series.mc_pulses_per_point"),
    ({"scenario": "fig7_remote", "params": {"sites": {"capture_prob": 1.5}}},
     "fig7_remote.sites.capture_prob"),
    ({"scenario": "fig7_remote", "params": {"frame": {"row_bin_um": 0}}},
     "fig7_remote.frame.row_bin_um"),
    ({"scenario": "g2_antibunching", "params": {"site": {"capture_prob": 1.5}}},
     "g2_antibunching.site.capture_prob"),
    ({"scenario": "g2_antibunching", "params": {"g2_bin_ns": 0}},
     "g2_antibunching.g2_bin_ns"),
    # accepted and run by earlier versions
    ({"scenario": "fig5_ensemble", "params": {"num_pulses": 2.5}},
     "fig5_ensemble.num_pulses"),
    ({"scenario": "fig5_ensemble", "params": {"write_photons": "yes"}},
     "fig5_ensemble.write_photons"),
    ({"scenario": "fig3_power_series", "params": {"mc_pulses_per_point": 0}},
     "fig3_power_series.mc_pulses_per_point"),
    # numpy's counts are int64; 10**20 failed mid-run with exit 1
    ({"scenario": "fig3_power_series",
      "params": {"mc_pulses_per_point": 2 ** 63}},
     "fig3_power_series.mc_pulses_per_point"),
    ({"scenario": "fig7_remote", "params": {"num_pulses": True}},
     "fig7_remote.num_pulses"),
    ({"scenario": "fig4c_delays", "master_seed": True}, "master_seed"),
    ({"scenario": "fig4_transients", "params": {"irf_fwhm_ns": float("nan")}},
     "fig4_transients.irf_fwhm_ns"),
    ({"scenario": "fig7_remote", "params": {"emitter_shifts_nm": {"x": 1.0}}},
     "fig7_remote.emitter_shifts_nm"),
    # a key that changed no output and is gone
    ({"scenario": "fig5_ensemble",
      "params": {"channel_extent_um": [-20.0, 12.0]}},
     "fig5_ensemble.channel_extent_um"),
    ({"scenario": "fig7_remote", "params": {"channel_extent_um": [-20.0, 6.0]}},
     "fig7_remote.channel_extent_um"),
    # conditions between keys
    ({"scenario": "fig4_transients",
      "params": {"cascade": {"lifetimes_ns": [1.5, 1.4], "labels": ["1X"]}}},
     "fig4_transients.cascade"),
    ({"scenario": "fig4_transients", "params": {"horizon_ns": 0.01}},
     "horizon_ns"),
    # labels become CSV columns and file names
    ({"scenario": "fig4c_delays",
      "params": {"cascade": {"lifetimes_ns": [1.5, 0.9],
                             "labels": ["a,b", "c"]}}},
     "fig4c_delays.cascade.labels"),
    ({"scenario": "fig4_transients",
      "params": {"cascade": {"lifetimes_ns": [1.5], "labels": ["a/b"]}}},
     "fig4_transients.cascade.labels"),
    # a frame bin wider than its extent leaves fewer than two bin edges
    ({"scenario": "fig7_remote", "params": {"frame": {"row_bin_um": 45}}},
     "fig7_remote.frame"),
    ({"scenario": "fig7_remote", "params": {"frame": {"col_bin_nm": 60}}},
     "fig7_remote.frame"),
    # a bin that does not divide its extent leaves its far end out of the frame
    ({"scenario": "fig7_remote", "params": {"frame": {"row_bin_um": 15}}},
     "fig7_remote.frame"),
    ({"scenario": "fig7_remote", "params": {"frame": {"col_bin_nm": 0.3}}},
     "fig7_remote.frame"),
    # a pixel that does not divide the field leaves part of it off the image
    ({"scenario": "fig5_ensemble", "params": {"image": {"pixel_um": 0.3}}},
     "fig5_ensemble"),
    ({"scenario": "fig5_ensemble", "params": {"image": {"pixel_um": 6.0}}},
     "fig5_ensemble"),
    # fig7 frames need a spectral line for every label, with its center
    # > 0 nm at every emitter shift; both failed mid-run with exit 1
    ({"scenario": "fig7_remote",
      "params": {"cascade": {"lifetimes_ns": [1.5, 1.4, 0.9, 0.8],
                             "labels": ["1X", "2X", "3X", "4X"]}}},
     "fig7_remote"),
    ({"scenario": "fig7_remote", "params": {"emitter_shifts_nm": {"1": -900.0}}},
     "fig7_remote"),
    # a shift of a site that does not exist changed no output
    ({"scenario": "fig7_remote", "params": {"emitter_shifts_nm": {"7": 5.0}}},
     "fig7_remote"),
]


class TestCli:
    def test_list_exit_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7_remote" in out and "g2_antibunching" in out

    def test_run_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", "fig4c_delays", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        assert (out / "manifest.json").exists()

    def test_validation_failures_exit_two(self, tmp_path, capsys):
        assert main(["run", "--scenario", "nope",
                     "--out", str(tmp_path / "x")]) == 2
        out = tmp_path / "busy"
        out.mkdir()
        (out / "f").write_text("x")
        assert main(["run", "--scenario", "fig4c_delays",
                     "--out", str(out)]) == 2
        # a bad value exits 2 naming its key, before any output is touched
        cfg_file = tmp_path / "cfg.json"
        for config, key in BAD_CONFIGS:
            cfg_file.write_text(json.dumps(config))
            capsys.readouterr()
            code = main(["run", "--config", str(cfg_file), "--out", str(out),
                         "--force"])
            err = capsys.readouterr().err
            assert code == 2 and key in err, (config, err)
            assert dir_digest(out) == {"f": hashlib.sha256(b"x").hexdigest()}
        # an unreadable config file exits 2: a non-UTF-8 byte, a directory,
        # a missing file
        cfg_file.write_bytes(b'{"scenario": "fig4c_delays\xff"}')
        for path in (cfg_file, tmp_path, tmp_path / "missing.json"):
            assert main(["run", "--config", str(path), "--out", str(out),
                         "--force"]) == 2, path
            assert dir_digest(out) == {"f": hashlib.sha256(b"x").hexdigest()}
        # fewer than one thread exits 2 before the output path is touched
        for threads, target in (("0", out), ("-3", tmp_path / "x")):
            assert main(["run", "--scenario", "fig4_transients", "--out",
                         str(target), "--force", "--threads", threads]) == 2
            assert dir_digest(out) == {"f": hashlib.sha256(b"x").hexdigest()}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["busy", "cfg.json"]

    def test_dark_fig4c_pump_exits_two(self, tmp_path, capsys):
        # g passes the bounds, but a loading weight underflows to 0 there
        # and leaves 2X dark: a bad value, reported as one, with no output
        cfg_file = tmp_path / "cfg.json"
        for g in (1e-300, 5e-324):
            cfg_file.write_text(json.dumps(
                {"scenario": "fig4c_delays", "params": {"g_values": [g, 1.0]}}))
            capsys.readouterr()
            assert main(["run", "--config", str(cfg_file),
                         "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert f"fig4c_delays.g_values: transition 2X emits nothing " \
                   f"at g = {g!r}" in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"scenario": "g2_antibunching",
             "params": {"num_cycles": 50000}}))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_file), "--seed", "9",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 9

    def test_conflicting_scenario_names_exit_two(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "fig4c_delays"}))
        code = main(["run", "--scenario", "fig4_transients",
                     "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_config_key_exit_two(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"scenario": "fig4_transients", "params": {"nope": 1}}))
        assert main(["run", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o")]) == 2
