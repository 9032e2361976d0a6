import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdmrelay.modulation import (
    GdmFrameConfig,
    PowerAllocation,
    _phase_indices,
    gdm_encode,
    make_alphabet,
    noiseless_decode,
)
from gdmrelay.power import optimize_power


def reference_encode(info, cfg):
    """Independent sample-by-sample encoder used as the oracle.

    Follows the chain rules directly with complex multiplications instead of
    index arithmetic.
    """
    alphabet = make_alphabet(cfg.m)
    l = cfg.l_block
    sr = np.sqrt(cfg.power.rho_r)
    sn = np.sqrt(cfg.power.rho_n)
    u = np.empty(cfg.k_frame + 1, dtype=complex)
    u[0] = sr
    for k in range(1, cfg.k_frame + 1):
        x = alphabet.point(int(info[k - 1]))
        if k % l == 0:
            u[k] = u[k - l] * x  # chained to previous block head
        else:
            head = (k // l) * l
            u[k] = sn / sr * u[head] * x
    return u


def make_cfg(k, l, m, power=None):
    if power is None:
        power = optimize_power(l).as_allocation()
    return GdmFrameConfig(k_frame=k, l_block=l, m=m, power=power)


class TestAlphabet:
    def test_roots_of_unity(self):
        a = make_alphabet(4)
        np.testing.assert_allclose(a.points, [1, 1j, -1, -1j], atol=1e-15)

    def test_point_is_one_based(self):
        a = make_alphabet(8)
        assert a.point(1) == 1.0
        np.testing.assert_allclose(a.point(3), 1j, atol=1e-15)

    def test_unit_modulus(self):
        for m in (2, 3, 4, 8, 16):
            np.testing.assert_allclose(np.abs(make_alphabet(m).points), 1.0)

    @pytest.mark.parametrize("bad", [1, 0, -4, 2.5, "4"])
    def test_rejects_bad_order(self, bad):
        with pytest.raises(ValueError):
            make_alphabet(bad)


class TestPowerAllocation:
    def test_ns_scale(self):
        pa = PowerAllocation(rho_r=2.0, rho_n=0.5, p_s=1.0)
        assert pa.ns_scale == pytest.approx(0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PowerAllocation(rho_r=0.0, rho_n=1.0, p_s=1.0)

    def test_frame_config_checks_constraint(self):
        pa = PowerAllocation(rho_r=2.0, rho_n=1.0, p_s=1.0)
        with pytest.raises(ValueError):
            GdmFrameConfig(k_frame=7, l_block=4, m=4, power=pa)

    def test_constraint_holds_for_optimum(self):
        for l in (2, 8, 16, 256):
            pa = optimize_power(l).as_allocation()
            assert pa.rho_r + (l - 1) * pa.rho_n == pytest.approx(l * 1.0, abs=1e-9)


class TestFrameConfig:
    def test_rejects_bad_frame_split(self):
        with pytest.raises(ValueError):
            make_cfg(320, 16, 4)

    def test_block_count(self):
        assert make_cfg(319, 16, 4).n_blocks == 20

    def test_ref_mask(self):
        mask = make_cfg(7, 4, 4).ref_mask()
        assert mask.tolist() == [True, False, False, False, True, False, False, False]

    def test_l1_all_reference(self):
        assert make_cfg(5, 1, 4).ref_mask().all()


class TestPairPositions:
    @pytest.mark.parametrize("k,l", [(7, 1), (127, 1), (7, 2), (15, 4), (31, 8),
                                     (319, 16), (15, 16), (255, 256)])
    def test_matches_chain_rule(self, k, l):
        # the chain rule of reference_encode: k-L at a block head, k//L*L otherwise
        k1, k2 = make_cfg(k, l, 4).pair_positions()
        assert k1.tolist() == list(range(1, k + 1))
        assert k2.tolist() == [j - l if j % l == 0 else j // l * l for j in range(1, k + 1)]


class TestEncode:
    @pytest.mark.parametrize("k,l,m", [(7, 1, 2), (7, 4, 4), (15, 4, 8),
                                       (31, 8, 4), (319, 16, 2), (15, 16, 4)])
    def test_matches_reference_encoder(self, k, l, m):
        cfg = make_cfg(k, l, m)
        rng = np.random.default_rng(k * 100 + l * 10 + m)
        info = rng.integers(1, m + 1, size=k)
        frame = gdm_encode(info, cfg)
        np.testing.assert_allclose(frame.u, reference_encode(info, cfg), atol=1e-12)

    def test_initial_sample(self):
        cfg = make_cfg(7, 4, 4)
        frame = gdm_encode([1] * 7, cfg)
        assert frame.u[0] == pytest.approx(np.sqrt(cfg.power.rho_r))

    def test_per_symbol_power(self):
        cfg = make_cfg(15, 4, 4)
        frame = gdm_encode(np.random.default_rng(0).integers(1, 5, 15), cfg)
        p = np.abs(frame.u) ** 2
        np.testing.assert_allclose(p[frame.ref_mask], cfg.power.rho_r)
        np.testing.assert_allclose(p[~frame.ref_mask], cfg.power.rho_n)

    def test_rejects_out_of_range_symbols(self):
        cfg = make_cfg(7, 4, 4)
        with pytest.raises(ValueError):
            gdm_encode([0, 1, 1, 1, 1, 1, 1], cfg)
        with pytest.raises(ValueError):
            gdm_encode([5, 1, 1, 1, 1, 1, 1], cfg)

    def test_no_phase_drift_on_long_frame(self):
        # index arithmetic must keep samples exactly on the constellation grid
        cfg = make_cfg(2047, 1, 8)
        info = np.random.default_rng(5).integers(1, 9, 2047)
        u = gdm_encode(info, cfg).u
        pts = make_alphabet(8).points
        err = np.abs(u[:, None] - pts[None, :]).min(axis=1)
        assert err.max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.sampled_from([(7, 1, 2), (7, 2, 4), (15, 4, 8), (31, 8, 4)]))
    def test_round_trip(self, seed, shape):
        k, l, m = shape
        cfg = make_cfg(k, l, m)
        info = np.random.default_rng(seed).integers(1, m + 1, size=k)
        frame = gdm_encode(info, cfg)
        assert noiseless_decode(frame, cfg).tolist() == info.tolist()

    @pytest.mark.parametrize("k,l,m", [(127, 1, 4), (31, 4, 8), (63, 16, 2), (511, 256, 4),
                                       (15, 16, 4)])
    def test_round_trip_block_shapes(self, k, l, m):
        cfg = make_cfg(k, l, m)
        info = np.random.default_rng(k * l).integers(1, m + 1, size=k)
        assert np.array_equal(noiseless_decode(gdm_encode(info, cfg), cfg), info)

    @pytest.mark.parametrize("k,l,m", [(7, 1, 2), (15, 4, 8), (31, 8, 4), (319, 16, 2)])
    def test_stacked_frames_match_row_by_row(self, k, l, m):
        cfg = make_cfg(k, l, m)
        info = np.random.default_rng(k + l + m).integers(1, m + 1, size=(2, 3, k))
        frame = gdm_encode(info, cfg)
        assert frame.u.shape == (2, 3, k + 1)
        for idx in np.ndindex(2, 3):
            row = gdm_encode(info[idx], cfg)
            assert np.array_equal(frame.u[idx], row.u)
            assert np.array_equal(frame.info[idx], row.info)

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 64, 255, 256, 1000])
    @pytest.mark.parametrize("k,l", [(127, 1), (319, 16)])
    def test_compact_phases_match_wide(self, k, l, m):
        # the harness's info dtype: sums wrap in it only where that is exact mod M
        cfg = make_cfg(k, l, m)
        info = np.random.default_rng(m).integers(1, m + 1, size=(4, k))
        compact = info.astype(np.min_scalar_type(m))
        phase = _phase_indices(compact, cfg)
        assert phase.dtype == compact.dtype
        np.testing.assert_array_equal(phase, _phase_indices(info, cfg))

    def test_stacked_frames_validated(self):
        cfg = make_cfg(7, 4, 4)
        with pytest.raises(ValueError):
            gdm_encode(np.ones((3, 8), dtype=int), cfg)
        with pytest.raises(ValueError):
            gdm_encode(np.full((3, 7), 5), cfg)

    def test_l1_equal_power_is_classical_dm(self):
        cfg = make_cfg(7, 1, 4, power=optimize_power(1).as_allocation())
        info = [2, 3, 1, 4, 2, 2, 3]
        u = gdm_encode(info, cfg).u
        a = make_alphabet(4)
        for k in range(1, 8):
            np.testing.assert_allclose(u[k], u[k - 1] * a.point(info[k - 1]),
                                       atol=1e-12)
