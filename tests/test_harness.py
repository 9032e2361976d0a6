import dataclasses
import itertools
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gdmrelay import analysis, harness
from gdmrelay.channel import complex_normal, substream
from gdmrelay.detectors import clamp_epsilon, relay_reliability
from gdmrelay.modulation import gdm_encode, make_alphabet
from gdmrelay.harness import (
    BATCH_FRAMES,
    ExperimentConfig,
    _point_epsilons,
    _simulate_batch_noncoherent,
    reproduce_figure,
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

    def test_rejects_unknown_relay_mode(self):
        with pytest.raises(ValueError, match="unknown relay mode 'bogus'"):
            small_cfg(relay_mode="bogus")

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            small_cfg(snr_grid_db=(10.0, 10.0))

    @pytest.mark.parametrize("kw", [dict(sr_offset_db=3100.0), dict(rd_offset_db=3100.0),
                                    dict(rd_offset_db=float("nan")),
                                    dict(snr_grid_db=(10.0, float("inf")))])
    def test_rejects_link_snr_that_is_not_finite(self, kw):
        with pytest.raises(ValueError, match="finite"):
            small_cfg(**kw)

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

    def test_rejects_no_workers(self):
        for workers in (0, -5):
            with pytest.raises(ValueError, match="workers"):
                small_cfg(workers=workers)

    @pytest.mark.parametrize("k_frame, l_block", [(15, 4), (16, 8)])
    def test_coherent_rejects_block_length(self, k_frame, l_block):
        with pytest.raises(ValueError, match="coherent reference has no block structure"):
            small_cfg(detector="coherent", k_frame=k_frame, l_block=l_block)

    def test_topology_offsets(self):
        snrs = small_cfg(sr_offset_db=10.0, rd_offset_db=-10.0).link_snrs(20.0)
        assert snrs == pytest.approx((100.0, 1000.0, 10.0))


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

    @pytest.mark.parametrize("z", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_a_z_that_is_not_finite_and_positive(self, z):
        with pytest.raises(ValueError, match="need a finite z > 0"):
            wilson_interval(3, 10, z=z)

    def test_default_z_values_are_unchanged(self):
        # the default z, which criterion 4 uses, gives these values bit for bit
        assert wilson_interval(50, 1000) == (0.038130262311297014, 0.06531382037982765)
        assert wilson_interval(3, 10) == (0.10779126655639398, 0.6032218546540291)


class TestRunFrame:
    """Seeded frames end to end, with the destination's relay error rates given."""

    @staticmethod
    def run(cfg, seed, n_frames=16):
        snr = cfg.snr_grid_db[0]
        return _simulate_batch_noncoherent(cfg, snr, _point_epsilons(cfg, snr),
                                           substream(seed, 0), n_frames)

    def test_noise_free_strong_links_error_free(self):
        err = self.run(small_cfg(snr_grid_db=(60.0,)), 0)
        assert err.shape == (16, 15)
        assert not err.any()

    def test_deep_sd_fade_relay_carries(self):
        cfg = small_cfg(snr_grid_db=(-30.0,), sr_offset_db=60.0, rd_offset_db=60.0)
        err = self.run(cfg, 1)
        assert err.mean() < 0.5  # relay branch keeps the frame mostly intact


class TestPointPlan:
    @pytest.mark.parametrize("k_frame, l_block", [(15, 1), (31, 4), (511, 256)])
    def test_thresholds_are_the_closed_form_eta(self, k_frame, l_block):
        # the simulated destination and the closed forms share one eta per pair type
        cfg = small_cfg(n_relays=2, k_frame=k_frame, l_block=l_block)
        pa, epsilons = cfg.power_allocation(), (1e-3, 0.2)
        plan = harness._point_plan(cfg, 10.0, epsilons)
        assert plan.etas.shape == (2, k_frame)
        for i, eps in enumerate(epsilons):
            for k in range(k_frame):  # pair k detects symbol k + 1, a reference at block heads
                rho_t = pa.rho_r if (k + 1) % l_block == 0 else pa.rho_n
                want = analysis.eta_threshold(eps, cfg.m, rho_t, pa.rho_r)
                assert plan.etas[i, k] == pytest.approx(want, rel=1e-12)


    def test_coherent_thresholds_are_the_reliability_term(self):
        # eta = relay_reliability of the clamped coherent relay SER; at -30 dB that
        # SER is above 1/2, so the plan must clamp it first
        grid = (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0)
        cfg = small_cfg(n_relays=2, detector="coherent", snr_grid_db=grid)
        sers = [analysis.coherent_mpsk_rayleigh_ser(cfg.p_s * cfg.link_snrs(s)[1], cfg.m)
                for s in grid]
        assert sers[0] > 0.5
        for i, (snr_db, ser) in enumerate(zip(grid, sers)):
            want = relay_reliability(clamp_epsilon(ser), cfg.m)
            assert harness._point_plan(cfg, snr_db).etas.tolist() == [want, want], i

    def test_pairs_gather_only_at_block_length_above_one(self):
        # at L=1 both halves of a pair are views of y; at L>1 y2 is the gather y[:, k2]
        h = np.ones(2, complex)
        for k_frame, l_block in ((15, 1), (511, 256)):
            plan = harness._point_plan(small_cfg(k_frame=k_frame, l_block=l_block), 10.0)
            y = complex_normal(substream(0, l_block), 1.0, size=(2, k_frame + 1))
            y1, y2 = plan.pairs(y, h)
            k1, k2 = plan.frame.pair_positions()
            np.testing.assert_array_equal(y1, y[:, k1])
            np.testing.assert_array_equal(y2, y[:, k2])
            assert np.shares_memory(y1, y)
            assert np.shares_memory(y2, y) == (l_block == 1)


class TestRelayStage:
    @pytest.mark.parametrize("kw, decides", [
        (dict(), (True, True, True)),
        (dict(relay_mode="genie-all"), (False, False, False)),
        (dict(relay_mode="genie-r", genie_r=1), (False, True, True)),
        (dict(relay_mode="genie-all", detector="relay-only"), (True,)),
    ], ids=["realistic", "genie-all", "genie-r", "relay-only-genie-all"])
    def test_plan_settles_which_relays_decide(self, kw, decides):
        # relay-only runs relay 1 alone, and it decides in every relay mode
        plan = harness._point_plan(small_cfg(n_relays=3, **kw), 10.0)
        assert plan.decides == decides
        assert plan.relay.func is harness.detectors.relay_detect_batch
        assert (plan.decide is None) == (kw.get("detector") == "relay-only")

    def test_batch_reads_the_relay_stage_from_the_plan(self):
        # a batch follows its plan's relay roles and kernels, whatever its config says
        genie = small_cfg(n_relays=2, relay_mode="genie-all")
        plan = harness._point_plan(genie, 10.0)
        for cfg in (genie, small_cfg(n_relays=2), small_cfg(n_relays=2, detector="pld")):
            got = harness._simulate_batch(cfg, plan, substream(5, 0, 0), 20)
            np.testing.assert_array_equal(got, _batch(genie, 20, 0))

    def test_kind_without_a_batch_kernel_is_refused(self, monkeypatch):
        # only "relay-only" runs without a destination: any other kind needs its kernel
        monkeypatch.setattr(harness, "DETECTOR_KINDS", (*harness.DETECTOR_KINDS, "viterbi"))
        cfg = small_cfg(detector="viterbi")
        with pytest.raises(AttributeError, match="viterbi_detect_batch"):
            harness._point_plan(cfg, 10.0)


class TestReceive:
    def test_noiseless(self):
        # with zero noise a link receives exactly h*u: u the frame gdm_encode makes,
        # sqrt(p_s) times the info's points when coherent; M=3 sums in a wide temporary
        rng = substream(0, 0)
        h = complex_normal(rng, 4.0, size=3)
        for l_block, m, p_s in itertools.product((1, 8, 256), (3, 4, 64), (1.0, 0.3)):
            cfg = small_cfg(m=m, k_frame=255, l_block=l_block, p_s=p_s)
            plan = harness._point_plan(cfg, 10.0)
            info = rng.integers(1, m + 1, size=(3, 255)).astype(np.min_scalar_type(m))
            y = plan.receive(h, harness._encode_batch(plan, info), np.zeros((3, 256), complex))
            hu = h[:, None] * gdm_encode(info, plan.frame).u
            np.testing.assert_array_equal(y, hu)
            k1, k2 = plan.frame.pair_positions()
            for got, want in zip(plan.pairs(y, h), (hu[:, k1], hu[:, k2])):
                np.testing.assert_array_equal(got, want)
            if l_block == 1:
                plan = harness._point_plan(dataclasses.replace(cfg, detector="coherent"), 10.0)
                y = plan.receive(h, harness._encode_batch(plan, info), np.zeros((3, 255), complex))
                x = np.sqrt(p_s) * make_alphabet(m).points
                np.testing.assert_array_equal(y, h[:, None] * x[info - 1])
                np.testing.assert_array_equal(plan.pairs(y, h)[1], h[:, None])

    @pytest.mark.parametrize("l_block, rows", [(1, 1), (8, 2), (256, 2)])
    def test_table_holds_the_rows_a_frame_uses(self, l_block, rows):
        # L=1 sends only reference symbols, so its table is the M points at sqrt(rho_r)
        for m in (3, 4, 64):
            plan = harness._point_plan(small_cfg(m=m, k_frame=255, l_block=l_block), 10.0)
            assert plan.tx.shape == (rows * m,)


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

    @pytest.mark.parametrize("kw", [
        dict(), dict(detector="amld"), dict(detector="pld"), dict(detector="coherent"),
        dict(detector="relay-only"), dict(relay_mode="genie-all"),
        dict(relay_mode="genie-r", genie_r=1), dict(k_frame=31, l_block=16),
        dict(detector="amld", l_block=4, sr_offset_db=3.0, rd_offset_db=-2.0),
    ], ids=["nmld", "amld", "pld", "coherent", "relay-only", "genie-all", "genie-r1", "L16",
            "amld-L4-offsets"])
    def test_worker_count_does_not_change_any_branch(self, kw):
        # waves of 3 batches with mid-wave stops, on every branch of the batch pipeline
        cfg = small_cfg(n_relays=2, snr_grid_db=(5.0, 10.0, 20.0), min_errors=900,
                        max_frames=6 * BATCH_FRAMES + 100, **kw)
        serial = run_ser_experiment(cfg)
        pooled = run_ser_experiment(dataclasses.replace(cfg, workers=3))
        assert pooled.points == serial.points

    def test_pool_size_capped_at_cpu_count(self, monkeypatch):
        # a thread pool starts one thread per queued batch, up to its size, so the size is
        # capped at the CPUs the process may run on; a stand-in records it and maps serially
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            map = staticmethod(map)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        kw = dict(max_frames=3 * BATCH_FRAMES, min_errors=10**9)
        want = run_ser_experiment(small_cfg(**kw)).points
        assert sizes == []  # one worker runs in the calling thread, with no pool
        for workers, size in [(5000, 2), (2, 2)]:
            assert run_ser_experiment(small_cfg(workers=workers, **kw)).points == want
            assert sizes.pop() == size
        # pinned to one CPU of two, as under `taskset -c 0`
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        run_ser_experiment(small_cfg(workers=2, **kw))
        assert sizes.pop() == 1
        # no affinity source and no CPU count
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_ser_experiment(small_cfg(workers=3, **kw))
        assert sizes == [1]

    def test_pooled_run_leaves_nothing_behind(self):
        # a dm-relays-shaped batch's workspace holds several MiB, so one that
        # outlived its pool thread would show in the traced size
        cfg = small_cfg(n_relays=3, k_frame=127, snr_grid_db=(18.0,), min_errors=10**9,
                        max_frames=4 * BATCH_FRAMES)
        run_ser_experiment(cfg)  # fill lazy caches before measuring
        threads = threading.active_count()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_ser_experiment(dataclasses.replace(cfg, workers=2))
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert threading.active_count() == threads
        assert not vars(harness._SLOT)
        assert abs(after - before) < 2**20

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
        # distinct S-R and R-D variances: pins the order of the fading draws
        "link-offsets": (dict(n_relays=2, m=4, k_frame=31, l_block=1, detector="nmld",
                              snr_grid_db=(5.0, 15.0), sr_offset_db=6.0, rd_offset_db=-3.0,
                              master_seed=11),
                         [(15872, 3123), (15872, 46)]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_pinned_counts(self, name):
        kw, expected = self.CASES[name]
        r = run_ser_experiment(ExperimentConfig(max_frames=512, min_errors=10**9, **kw))
        assert [(p.symbols, p.errors) for p in r.points] == expected


class TestGenieRelays:
    @pytest.mark.parametrize("kw, per_block", [
        (dict(), 3),
        (dict(relay_mode="genie-all"), 0),
        (dict(relay_mode="genie-r", genie_r=1), 2),
        (dict(relay_mode="genie-all", detector="relay-only"), 1),
    ], ids=["realistic", "genie-all", "genie-r", "relay-only-genie-all"])
    def test_relay_decides_only_when_used(self, kw, per_block, monkeypatch):
        # a genie relay forwards the source's samples, so it makes no decision;
        # relay-only still decides relay 1
        calls = []
        detect = harness.detectors.relay_detect_batch
        monkeypatch.setattr(harness.detectors, "relay_detect_batch",
                            lambda *a, **kw: calls.append(1) or detect(*a, **kw))
        monkeypatch.setattr(harness, "BLOCK_SYMBOLS", 8 * 16)  # blocks of 8 frames
        _batch(small_cfg(n_relays=3, **kw), 40, 0)
        assert len(calls) == 5 * per_block


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

    def test_unknown_scale_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="scale must be 'desk' or 'full'"):
            reproduce_figure("fig3", scale="huge", out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

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


def _batch(cfg, n_frames, key):
    """One `_simulate_batch` of ``cfg`` at its first SNR point, keyed by ``key``."""
    plan = harness._point_plan(cfg, cfg.snr_grid_db[0])
    return harness._simulate_batch(cfg, plan, substream(cfg.master_seed, 0, key), n_frames)


def _drawn_like_one_batch(cfg, n_frames, key):
    """The substream of `_batch` advanced by one batch's draws, made one by
    one: the info symbols, the fading, then two normal parts per link's noise,
    S-D and S-R_i, R-D_i per relay (relay-only ends with S-R_1)."""
    rng = substream(cfg.master_seed, 0, key)
    rng.integers(1, cfg.m + 1, size=(n_frames, cfg.k_frame))
    for _ in range(2 * (2 * cfg.n_relays + 1)):
        rng.standard_normal(n_frames)
    links = 2 if cfg.detector == "relay-only" else 2 * cfg.n_relays + 1
    width = cfg.k_frame + (cfg.detector != "coherent")
    for _ in range(2 * links):
        rng.standard_normal((n_frames, width))
    return rng


def _in_fresh_thread(fn, *args):
    """``fn(*args)`` run in a new thread, whose workspace starts empty."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    thread.join()
    return out[0]


class TestWorkspace:
    """The per-thread batch workspace changes no result: every mask equals the
    same batch run with an empty workspace, and no mask aliases it."""

    # (config, frames): N = 0..3, M in {2, 4, 8}, L in {1, 4}, every scheme kind and
    # mode, repeated shapes (reuse) and changed shapes (replacement) in turn
    SEQUENCE = [
        (small_cfg(n_relays=0, m=2), 40),
        (small_cfg(n_relays=0, m=2, master_seed=6), 40),
        (small_cfg(n_relays=1, m=8, l_block=4), 40),
        (small_cfg(n_relays=2, m=8, detector="amld"), 40),
        (small_cfg(n_relays=3, m=2, l_block=4, detector="pld"), 40),
        (small_cfg(n_relays=3, m=2, l_block=4, detector="pld", master_seed=7), 40),
        (small_cfg(n_relays=2, m=8, detector="coherent"), 40),
        (small_cfg(n_relays=3, m=2, l_block=4, detector="relay-only"), 40),
        (small_cfg(n_relays=3, m=8, l_block=4, relay_mode="genie-r", genie_r=1), 40),
        (small_cfg(n_relays=3, m=8, l_block=4, relay_mode="genie-r", genie_r=1), 13),
        (small_cfg(n_relays=1, m=8, l_block=4), 40),
        (small_cfg(n_relays=2, m=2, relay_mode="genie-all"), 13),
        (small_cfg(n_relays=3, m=8, detector="amld"), 40),
        (small_cfg(n_relays=0, detector="coherent"), 13),
        (small_cfg(n_relays=2, detector="relay-only", relay_mode="genie-all"), 13),
    ]

    def test_sequence_matches_fresh_threads(self):
        masks = [_batch(cfg, f, i) for i, (cfg, f) in enumerate(self.SEQUENCE)]
        kept = [m.copy() for m in masks]
        for i, (cfg, f) in enumerate(self.SEQUENCE):
            np.testing.assert_array_equal(masks[i], _in_fresh_thread(_batch, cfg, f, i))
            np.testing.assert_array_equal(masks[i], kept[i])  # later batches left it alone
            assert masks[i].shape == (f, cfg.k_frame)
        assert 0 < sum(m.sum() for m in masks) < sum(m.size for m in masks)

    def test_concurrent_threads_match_serial(self):
        # more threads than cores, switching often, each on its own batch shape
        configs = [self.SEQUENCE[i] for i in (3, 4, 6, 7)]
        serial = [[_batch(cfg, f, k) for k in range(4)] for cfg, f in configs]
        start = threading.Barrier(len(configs))
        results = [None] * len(configs)

        def run(i):
            cfg, f = configs[i]
            start.wait(timeout=60)
            results[i] = [_batch(cfg, f, k) for k in range(4)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("block", [1, 2, 8, 256])
    def test_blocking_changes_no_result(self, block, monkeypatch):
        # the default block holds a whole batch at K = 15; the draw amount is pinned too
        want = [_batch(cfg, f, i) for i, (cfg, f) in enumerate(self.SEQUENCE)]
        monkeypatch.setattr(harness, "BLOCK_SYMBOLS", block * (15 + 1))
        for i, (cfg, f) in enumerate(self.SEQUENCE):
            assert cfg.k_frame == 15 and harness._block_frames(cfg.k_frame) == block
            plan = harness._point_plan(cfg, cfg.snr_grid_db[0])
            rng = substream(cfg.master_seed, 0, i)
            np.testing.assert_array_equal(harness._simulate_batch(cfg, plan, rng, f), want[i])
            assert rng.bit_generator.state == _drawn_like_one_batch(cfg, f, i).bit_generator.state

    @pytest.mark.parametrize("m", [2, 3, 8, 255, 256, 1024])
    def test_chunked_info_draw_is_the_same_stream(self, m, monkeypatch):
        # chunks of 1,000 symbols leave a ragged tail of 40 * 63 = 2,520
        monkeypatch.setattr(harness, "BLOCK_SYMBOLS", 1000)
        want_rng, rng = substream(4, m), substream(4, m)
        want = want_rng.integers(1, m + 1, size=(40, 63))
        info = harness._draw_info(rng, m, (40, 63))
        assert info.dtype == np.min_scalar_type(m) and info.dtype.kind == "u"
        np.testing.assert_array_equal(info, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_batch_holds_one_noise_buffer_per_received_link(self, monkeypatch):
        # N + 1 (S-D and R-D_i; S-R_i shares R-D_i's), 1 for relay-only (S-R_1 takes S-D's);
        # blocks of 8 frames, so no kernel array has a batch's 13 or 40 frames
        monkeypatch.setattr(harness, "BLOCK_SYMBOLS", 8 * (15 + 1))
        for i, (cfg, f) in enumerate(self.SEQUENCE):
            def held():
                _batch(cfg, f, i)
                shape = (f, cfg.k_frame + (cfg.detector != "coherent"))  # the shape of u
                return sum(a.shape == shape and a.dtype == complex
                           for a in harness._SLOT.ws.values())

            want = 1 if cfg.detector == "relay-only" else cfg.n_relays + 1
            assert _in_fresh_thread(held) == want, cfg

    def test_block_frames(self):
        assert [harness._block_frames(k) for k in (15, 63, 127, 255, 511, 16383, 40000)] == [
            256, 128, 64, 32, 16, 1, 1]

    @pytest.mark.parametrize("kw, bound_mib", [
        (dict(k_frame=511, l_block=256, snr_grid_db=(28.0,)), 7.2),  # gdm-long
        (dict(k_frame=511, detector="coherent", snr_grid_db=(28.0,)), 5.9),
        (dict(n_relays=3, k_frame=127, snr_grid_db=(18.0,)), 3.45),  # dm-relays
        (dict(n_relays=3, k_frame=127, snr_grid_db=(18.0,), detector="pld"), 3.9),
        (dict(n_relays=2, m=16, k_frame=127, snr_grid_db=(18.0,)), 4.6),  # M x block scores
    ], ids=["gdm-long", "gdm-long-coherent", "dm-relays", "dm-relays-pld", "m16"])
    def test_footprint(self, kw, bound_mib):
        # one batch of a benchmark workload's sweep, from an empty workspace: besides
        # the N + 1 noise arrays, a batch holds only block-sized and compact arrays
        cfg = small_cfg(**kw)

        def peak():
            tracemalloc.start()
            try:
                _batch(cfg, BATCH_FRAMES, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _in_fresh_thread(peak) < bound_mib * 2**20

    def test_experiment_drops_the_workspace(self):
        _batch(*self.SEQUENCE[2], 0)
        assert vars(harness._SLOT)
        run_ser_experiment(small_cfg(max_frames=20, min_errors=10**9))
        assert not vars(harness._SLOT)
