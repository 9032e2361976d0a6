import math

import numpy as np
import pytest

from gdmrelay.channel import complex_normal, effective_receive_snr, substream
from gdmrelay.harness import ExperimentConfig


def config(n_relays, snr_db, **offsets):
    return ExperimentConfig(n_relays=n_relays, m=4, k_frame=15, l_block=1, detector="nmld",
                            snr_grid_db=(snr_db,), **offsets)


class TestTopology:
    """A grid point has three linear link SNRs, (S-D, S-R, R-D), shared by all relays."""

    def test_symmetric_defaults(self):
        assert config(3, 10.0).link_snrs(10.0) == (10.0, 10.0, 10.0)

    def test_relay_link_override(self):
        assert config(2, 10.0, sr_offset_db=10.0, rd_offset_db=10.0).link_snrs(10.0) == (
            10.0, 100.0, 100.0)

    def test_rejects_nonpositive_snr(self):
        # 10^(-4000/10) underflows to a linear SNR of 0
        with pytest.raises(ValueError, match="finite and > 0"):
            config(1, -4000.0)


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

    @pytest.mark.parametrize("chunk", [None, 1, 7, 64, 25 * 11, 10**4])
    def test_chunked_draw_is_the_same_stream(self, chunk):
        # a scratch shorter than the array and a length (25 * 11) it does not divide
        want_rng, rng = substream(3, 1), substream(3, 1)
        want = complex_normal(want_rng, 2.5, (25, 11))
        out = np.empty((25, 11), complex)
        scratch = None if chunk is None else np.empty(chunk)
        assert complex_normal(rng, 2.5, (25, 11), out=out, scratch=scratch) is out
        np.testing.assert_array_equal(out, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_rejects_out_that_is_not_contiguous(self):
        # a chunked draw writes through a flat view of out, which a transpose has not
        with pytest.raises(ValueError, match="C-contiguous"):
            complex_normal(substream(3, 1), 1.0, (4, 3), out=np.empty((3, 4), complex).T)

    @pytest.mark.parametrize("size, shape", [((5, 7), (3,)), (3, (3, 1)), ((), (1,))])
    def test_rejects_size_other_than_out_shape(self, size, shape):
        rng = substream(3, 1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="differs from out.shape"):
            complex_normal(rng, 1.0, size, out=np.empty(shape, complex))
        assert rng.bit_generator.state == state  # nothing drawn

    def test_size_equal_to_out_shape_is_accepted(self):
        out = np.empty(3, complex)
        assert complex_normal(substream(3, 1), 1.0, 3, out=out).shape == (3,)

    @pytest.mark.parametrize("var", [-1.0, 0.0, math.nan, math.inf, np.array([1.0, -1.0])])
    @pytest.mark.parametrize("out", [False, True])
    def test_rejects_a_variance_that_is_not_finite_and_positive(self, var, out):
        rng = substream(3, 1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="need a finite var > 0"):
            complex_normal(rng, var, 3, out=np.empty(3, complex) if out else None)
        assert rng.bit_generator.state == state  # nothing drawn


class TestEffectiveSnr:
    def test_equal_powers_halve(self):
        assert effective_receive_snr(1.0, 1.0, 10.0) == pytest.approx(5.0)

    def test_harmonic_form(self):
        assert effective_receive_snr(0.5, 2.0, 1.0) == pytest.approx(0.4)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            effective_receive_snr(0.0, 1.0, 1.0)
