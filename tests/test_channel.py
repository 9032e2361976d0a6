import numpy as np
import pytest

from gdmrelay.channel import NetworkTopology, complex_normal, effective_receive_snr, substream
from gdmrelay.harness import ExperimentConfig


def topology(n_relays, snr_db, **offsets):
    cfg = ExperimentConfig(n_relays=n_relays, m=4, k_frame=15, l_block=1, detector="nmld",
                           snr_grid_db=(snr_db,), **offsets)
    return cfg.topology(snr_db)


class TestTopology:
    def test_symmetric_defaults(self):
        t = topology(3, 10.0)
        assert t.snr_sr == (10.0,) * 3
        assert t.snr_rd == (10.0,) * 3

    def test_relay_link_override(self):
        t = topology(2, 10.0, sr_offset_db=10.0, rd_offset_db=10.0)
        assert t.snr_sd == 10.0
        assert t.snr_sr == t.snr_rd == (100.0, 100.0)

    def test_rejects_wrong_tuple_length(self):
        with pytest.raises(ValueError):
            NetworkTopology(n_relays=2, snr_sd=1.0, snr_sr=(1.0,), snr_rd=(1.0, 1.0))

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            NetworkTopology(n_relays=1, snr_sd=0.0, snr_sr=(1.0,), snr_rd=(1.0,))


class TestRandomStreams:
    def test_substream_reproducible(self):
        a = substream(7, 1, 2).standard_normal(5)
        b = substream(7, 1, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_substream_keys_independent(self):
        a = substream(7, 1, 2).standard_normal(5)
        b = substream(7, 1, 3).standard_normal(5)
        assert not np.allclose(a, b)

    def test_complex_normal_variance(self):
        rng = substream(0, 0)
        z = complex_normal(rng, 4.0, size=200000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(4.0, rel=0.02)
        assert np.mean(z.real * z.imag) == pytest.approx(0.0, abs=0.02)


class TestEffectiveSnr:
    def test_equal_powers_halve(self):
        assert effective_receive_snr(1.0, 1.0, 10.0) == pytest.approx(5.0)

    def test_harmonic_form(self):
        assert effective_receive_snr(0.5, 2.0, 1.0) == pytest.approx(0.4)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            effective_receive_snr(0.0, 1.0, 1.0)
