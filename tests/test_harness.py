import dataclasses
import json

import numpy as np
import pytest

from gdmrelay.channel import ChannelRealization, substream
from gdmrelay.harness import (
    BATCH_FRAMES,
    ExperimentConfig,
    reproduce_figure,
    run_frame,
    run_ser_experiment,
    wilson_interval,
    write_csv,
    write_gnuplot,
    write_json,
)


def small_cfg(**kw):
    base = dict(n_relays=1, m=4, k_frame=15, l_block=1, detector="nmld",
                snr_grid_db=(10.0,), min_errors=20, max_frames=200,
                master_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_unknown_detector(self):
        with pytest.raises(ValueError):
            small_cfg(detector="viterbi")

    def test_rejects_bad_genie_count(self):
        with pytest.raises(ValueError):
            small_cfg(relay_mode="genie-r", genie_r=2)

    def test_rejects_genie_count_outside_genie_r_mode(self):
        for mode in ("realistic", "genie-all"):
            with pytest.raises(ValueError, match="genie_r"):
                small_cfg(n_relays=2, relay_mode=mode, genie_r=2)

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            small_cfg(snr_grid_db=(10.0, 10.0))

    def test_rejects_incompatible_frame_split(self):
        with pytest.raises(ValueError):
            small_cfg(k_frame=16, l_block=8)

    def test_default_power_is_optimal(self):
        pa = small_cfg(k_frame=15, l_block=8).power_allocation()
        from gdmrelay.power import optimize_power

        assert pa.rho_n == pytest.approx(optimize_power(8).rho_n_star)

    def test_explicit_rho_n(self):
        pa = small_cfg(k_frame=15, l_block=8, rho_n=0.5).power_allocation()
        assert pa.rho_n == 0.5
        assert pa.rho_r == pytest.approx(8 - 7 * 0.5)

    def test_rejects_rho_n_exceeding_budget(self):
        with pytest.raises(ValueError):
            small_cfg(k_frame=15, l_block=8, rho_n=1.2).power_allocation()

    def test_topology_offsets(self):
        t = small_cfg(sr_offset_db=10.0).topology(20.0)
        assert t.snr_sd == pytest.approx(100.0)
        assert t.snr_sr[0] == pytest.approx(1000.0)


class TestWilson:
    def test_no_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0 < hi < 0.01

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_empty_sample(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestRunFrame:
    def test_noise_free_strong_links_error_free(self):
        cfg = small_cfg()
        real = ChannelRealization(h_sd=1000.0 + 0j,
                                  h_sr=np.array([1000.0 + 0j]),
                                  h_rd=np.array([1000.0 + 0j]))
        err = run_frame(cfg, 10.0, real, substream(0, 0))
        assert err.shape == (15,)
        assert not err.any()

    def test_deep_sd_fade_relay_carries(self):
        cfg = small_cfg(snr_grid_db=(30.0,))
        real = ChannelRealization(h_sd=1e-6 + 0j,
                                  h_sr=np.array([1000.0 + 0j]),
                                  h_rd=np.array([1000.0 + 0j]))
        err = run_frame(cfg, 30.0, real, substream(1, 0))
        assert err.mean() < 0.5  # relay branch keeps the frame mostly intact


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        a = run_ser_experiment(small_cfg())
        b = run_ser_experiment(small_cfg())
        assert a.points == b.points

    def test_seed_changes_results(self):
        a = run_ser_experiment(small_cfg())
        b = run_ser_experiment(small_cfg(master_seed=6))
        assert a.points != b.points

    def test_worker_count_does_not_change_results(self):
        a = run_ser_experiment(small_cfg(max_frames=3 * BATCH_FRAMES, min_errors=10**9))
        b = run_ser_experiment(small_cfg(max_frames=3 * BATCH_FRAMES, min_errors=10**9,
                                         workers=3))
        assert a.points == b.points

    def test_worker_count_does_not_change_early_stop(self):
        # waves of 3 batches; 5 dB stops at batch 1 and 10 dB at batch 3, both
        # mid-wave, and 20 dB runs all 7 batches down to the short last one
        kw = dict(snr_grid_db=(5.0, 10.0, 20.0), min_errors=1100,
                  max_frames=6 * BATCH_FRAMES + 100)
        a = run_ser_experiment(small_cfg(**kw))
        b = run_ser_experiment(small_cfg(workers=3, **kw))
        assert a.points == b.points
        assert [p.symbols for p in a.points] == [2 * BATCH_FRAMES * 15, 4 * BATCH_FRAMES * 15,
                                                 (6 * BATCH_FRAMES + 100) * 15]

    def test_stop_rule_respects_frame_cap(self):
        r = run_ser_experiment(small_cfg(snr_grid_db=(40.0,), min_errors=10**9,
                                         max_frames=100))
        assert r.points[0].symbols == 100 * 15

    def test_error_target_stops_early(self):
        r = run_ser_experiment(small_cfg(snr_grid_db=(0.0,), min_errors=5,
                                         max_frames=10**5))
        p = r.points[0]
        assert p.errors >= 5
        assert p.symbols <= BATCH_FRAMES * 15  # one low-SNR batch suffices

    def test_ser_decreases_with_snr(self):
        r = run_ser_experiment(small_cfg(snr_grid_db=(0.0, 10.0, 20.0),
                                         min_errors=200, max_frames=2000))
        sers = r.sers()
        assert sers[0] > sers[1] > sers[2]

    def test_genie_all_matches_full_genie_r(self):
        a = run_ser_experiment(small_cfg(n_relays=2, relay_mode="genie-all"))
        b = run_ser_experiment(small_cfg(n_relays=2, relay_mode="genie-r", genie_r=2))
        assert a.points == b.points

    def test_genie_all_beats_realistic_at_low_snr(self):
        kw = dict(n_relays=2, snr_grid_db=(5.0,), min_errors=10**9, max_frames=2000)
        genie = run_ser_experiment(small_cfg(relay_mode="genie-all", **kw))
        real = run_ser_experiment(small_cfg(**kw))
        assert genie.points[0].ser < real.points[0].ser

    @pytest.mark.parametrize("detector", ["nmld", "amld", "pld", "coherent",
                                          "relay-only"])
    def test_all_detectors_run(self, detector):
        r = run_ser_experiment(small_cfg(detector=detector, min_errors=10**9,
                                         max_frames=50))
        assert r.points[0].symbols == 50 * 15

    def test_no_relay_direct_only(self):
        r = run_ser_experiment(small_cfg(n_relays=0, min_errors=10**9, max_frames=50))
        assert 0 < r.points[0].ser < 1

    def test_ops_metadata(self):
        r = run_ser_experiment(small_cfg(max_frames=20, min_errors=10**9))
        assert r.ops_per_symbol == (24 * 4 - 1) * 1 + 20 * 4 - 1

    def test_gdm_runs(self):
        r = run_ser_experiment(small_cfg(k_frame=31, l_block=8, min_errors=10**9,
                                         max_frames=100))
        assert r.points[0].symbols == 100 * 31


class TestSeededResults:
    """Exact per-point (symbols, errors) of fixed-budget seeded sweeps.

    Any change to the draw order, the encoders or a detector's decisions moves
    these counts; a refactor of the pipeline must leave them as they are.
    """

    CASES = {
        "nmld": (dict(n_relays=2, m=4, k_frame=31, l_block=1, detector="nmld",
                      snr_grid_db=(5.0, 15.0), master_seed=1),
                 [(15872, 3499), (15872, 97)]),
        "amld": (dict(n_relays=2, m=8, k_frame=15, l_block=1, detector="amld",
                      snr_grid_db=(10.0, 20.0), master_seed=2),
                 [(7680, 1886), (7680, 54)]),
        "pld-ps": (dict(n_relays=1, m=4, k_frame=63, l_block=8, detector="pld",
                        snr_grid_db=(10.0, 20.0), p_s=1.7, master_seed=3),
                   [(32256, 747), (32256, 62)]),
        "coherent-ps": (dict(n_relays=2, m=4, k_frame=63, l_block=1, detector="coherent",
                             snr_grid_db=(5.0, 15.0), p_s=1.7, master_seed=4),
                        [(32256, 1176), (32256, 11)]),
        "relay-only": (dict(n_relays=1, m=4, k_frame=63, l_block=8, detector="relay-only",
                            snr_grid_db=(10.0,), master_seed=5),
                       [(32256, 3535)]),
        "relay-only-n3": (dict(n_relays=3, m=4, k_frame=31, l_block=4, detector="relay-only",
                               snr_grid_db=(10.0, 20.0), master_seed=10),
                          [(15872, 2048), (15872, 245)]),
        "genie-all": (dict(n_relays=2, m=4, k_frame=31, l_block=1, detector="nmld",
                           relay_mode="genie-all", snr_grid_db=(10.0,), master_seed=6),
                      [(15872, 214)]),
        "genie-r": (dict(n_relays=3, m=4, k_frame=31, l_block=4, detector="nmld",
                         relay_mode="genie-r", genie_r=1, snr_grid_db=(10.0,),
                         master_seed=7),
                    [(15872, 203)]),
        "gdm-rho": (dict(n_relays=1, m=4, k_frame=63, l_block=16, detector="nmld",
                         rho_n=0.6, snr_grid_db=(10.0, 20.0), master_seed=8),
                    [(32256, 2092), (32256, 70)]),
        "coherent-genie": (dict(n_relays=1, m=8, k_frame=15, l_block=1, detector="coherent",
                                relay_mode="genie-all", snr_grid_db=(15.0,), master_seed=9),
                           [(7680, 96)]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_pinned_counts(self, name):
        kw, expected = self.CASES[name]
        r = run_ser_experiment(ExperimentConfig(max_frames=512, min_errors=10**9, **kw))
        assert [(p.symbols, p.errors) for p in r.points] == expected


class TestCommonRandomNumbers:
    def test_detectors_share_channel_realizations(self):
        # same seed means the same frames; detector disagreement is rare
        kw = dict(min_errors=10**9, max_frames=300, snr_grid_db=(15.0,))
        a = run_ser_experiment(small_cfg(detector="nmld", **kw))
        b = run_ser_experiment(small_cfg(detector="amld", **kw))
        ra, rb = a.points[0].ser, b.points[0].ser
        assert abs(ra - rb) < 0.1 * max(ra, rb)


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        r = run_ser_experiment(small_cfg(max_frames=30, min_errors=10**9))
        path = tmp_path / "out.csv"
        write_csv(r, path)
        lines = path.read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert any("master_seed=5" in l for l in header)
        rows = [l for l in lines if not l.startswith("#")]
        assert rows[0].split(",") == ["snr_db", "symbols", "errors", "ser",
                                      "ci_lo", "ci_hi"]
        assert len(rows) == 1 + len(r.points)

    def test_json_round_trip(self, tmp_path):
        r = run_ser_experiment(small_cfg(max_frames=30, min_errors=10**9))
        path = tmp_path / "out.json"
        write_json(r, path)
        data = json.loads(path.read_text())
        assert data["config"]["k_frame"] == 15
        assert len(data["points"]) == 1
        assert data["points"][0]["symbols"] == 30 * 15

    def test_gnuplot_two_columns(self, tmp_path):
        r = run_ser_experiment(small_cfg(max_frames=30, min_errors=10**9))
        path = tmp_path / "out.dat"
        write_gnuplot(r, path)
        rows = [l.split() for l in path.read_text().splitlines()
                if not l.startswith("#")]
        assert all(len(row) == 2 for row in rows)


class TestFigurePresets:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            reproduce_figure("fig99")

    def test_opcount_figure_writes_data(self, tmp_path):
        out = reproduce_figure("fig4a", out_dir=tmp_path)
        assert out == {}
        text = (tmp_path / "fig4a_opcounts.dat").read_text()
        assert "15703" not in text  # per-M sweep at n=1, not the n=12 row
        assert len(text.splitlines()) == 5

    def test_simulated_figure_writes_each_curve(self, tmp_path, monkeypatch):
        from gdmrelay import harness

        monkeypatch.setitem(harness.FIGURE_PRESETS, "fig3", lambda scale, seed: {
            "tiny": small_cfg(snr_grid_db=(10.0,), max_frames=20, master_seed=seed)})
        out = reproduce_figure("fig3", out_dir=tmp_path, master_seed=3)
        assert list(out) == ["tiny"]
        assert out["tiny"].config.master_seed == 3
        assert out["tiny"].points[0].symbols == 20 * 15
        for ext in ("csv", "json", "dat"):
            assert (tmp_path / f"fig3_tiny.{ext}").exists()

    def test_preset_configs_are_valid(self):
        # constructing every preset validates frame shapes and powers
        from gdmrelay.harness import FIGURE_PRESETS

        for fig, builder in FIGURE_PRESETS.items():
            runs = builder("desk", 0)
            for cfg in runs.values():
                assert isinstance(cfg, ExperimentConfig)
