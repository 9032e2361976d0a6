import numpy as np
import pytest

from gdmrelay.channel import (
    NetworkTopology,
    complex_normal,
    draw_realization,
    effective_receive_snr,
    substream,
    transmit,
)


class TestTopology:
    def test_symmetric_defaults(self):
        t = NetworkTopology.symmetric(3, snr_sd=10.0)
        assert t.snr_sr == (10.0,) * 3
        assert t.snr_rd == (10.0,) * 3

    def test_relay_link_override(self):
        t = NetworkTopology.symmetric(2, snr_sd=10.0, snr_relay=100.0)
        assert t.snr_sr == (100.0, 100.0)

    def test_rejects_wrong_tuple_length(self):
        with pytest.raises(ValueError):
            NetworkTopology(n_relays=2, snr_sd=1.0, snr_sr=(1.0,), snr_rd=(1.0, 1.0))

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            NetworkTopology.symmetric(1, snr_sd=0.0)


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


class TestRealization:
    def test_shapes(self):
        t = NetworkTopology.symmetric(3, snr_sd=10.0)
        r = draw_realization(t, substream(1, 0))
        assert np.shape(r.h_sr) == (3,)
        assert np.shape(r.h_rd) == (3,)

    def test_fading_power(self):
        t = NetworkTopology.symmetric(1, snr_sd=25.0)
        rng = substream(2, 0)
        hs = [draw_realization(t, rng).h_sd for _ in range(20000)]
        assert np.mean(np.abs(hs) ** 2) == pytest.approx(25.0, rel=0.05)


class TestTransmit:
    def test_noiseless(self):
        y = transmit(np.array([1.0, 1j]), 2.0, 1.0, noiseless=True)
        np.testing.assert_allclose(y, [2.0, 2j])

    def test_requires_rng_when_noisy(self):
        with pytest.raises(ValueError):
            transmit(np.array([1.0]), 1.0, 1.0)

    def test_noise_level(self):
        rng = substream(3, 0)
        y = transmit(np.zeros(100000), 1.0, 0.25, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.25, rel=0.03)


class TestEffectiveSnr:
    def test_equal_powers_halve(self):
        assert effective_receive_snr(1.0, 1.0, 10.0) == pytest.approx(5.0)

    def test_harmonic_form(self):
        assert effective_receive_snr(0.5, 2.0, 1.0) == pytest.approx(0.4)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            effective_receive_snr(0.0, 1.0, 1.0)
