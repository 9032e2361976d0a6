import math

import pytest

from gdmrelay import power
from gdmrelay.detectors import EPSILON_FLOOR, relay_reliability
from gdmrelay.power import FEASIBILITY_WARN_RATIO, feasibility_diagnostic, optimize_power


class TestOptimum:
    def test_l2_splits_evenly(self):
        s = optimize_power(2)
        assert s.rho_r_star == pytest.approx(1.0, abs=1e-3)
        assert s.rho_n_star == pytest.approx(1.0, abs=1e-3)

    def test_l8(self):
        s = optimize_power(8)
        assert s.rho_n_star == pytest.approx(8 / (7 + math.sqrt(7)), rel=1e-12)
        assert s.rho_n_star == pytest.approx(0.830, abs=1e-3)

    def test_l256(self):
        assert optimize_power(256).rho_n_star == pytest.approx(0.945, abs=1e-3)

    def test_ratio_is_sqrt_l_minus_1(self):
        for l in (2, 8, 64, 256):
            assert optimize_power(l).ratio == pytest.approx(math.sqrt(l - 1), rel=1e-12)

    def test_power_constraint(self):
        for l in (2, 5, 8, 256):
            s = optimize_power(l, p_s=2.0)
            assert s.rho_r_star + (l - 1) * s.rho_n_star == pytest.approx(2.0 * l, abs=1e-9)

    def test_scales_with_p_s(self):
        a, b = optimize_power(8, 1.0), optimize_power(8, 3.0)
        assert b.rho_n_star == pytest.approx(3 * a.rho_n_star, rel=1e-12)

    def test_l1_degenerate(self):
        s = optimize_power(1)
        assert s.degenerate
        assert s.rho_r_star == 1.0
        s.as_allocation()  # still yields a usable allocation

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            optimize_power(0)
        with pytest.raises(ValueError):
            optimize_power(8, p_s=0.0)

    @pytest.mark.parametrize("l_block", [1, 8])
    @pytest.mark.parametrize("p_s", [math.inf, math.nan])
    def test_rejects_non_finite_power(self, l_block, p_s):
        with pytest.raises(ValueError, match="finite"):
            optimize_power(l_block, p_s)

    @pytest.mark.parametrize("field", ["rho_r", "rho_n", "p_s"])
    def test_allocation_rejects_infinite_power(self, field):
        from gdmrelay.modulation import PowerAllocation

        with pytest.raises(ValueError, match="finite"):
            PowerAllocation(**{"rho_r": 1.0, "rho_n": 1.0, "p_s": 1.0, field: math.inf})


class TestFeasibility:
    def test_strong_relay_link_is_quiet(self):
        s = optimize_power(8)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = feasibility_diagnostic(s, 4, gamma_sr_bar=1e6, gamma_sd=1.0)
        assert ratio > FEASIBILITY_WARN_RATIO

    def test_weak_relay_link_warns(self):
        s = optimize_power(8)
        with pytest.warns(UserWarning):
            feasibility_diagnostic(s, 4, gamma_sr_bar=2.0, gamma_sd=1000.0)

    def test_ratio_decreases_with_sd_snr(self):
        s = optimize_power(8)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r1 = feasibility_diagnostic(s, 4, 1e4, 1.0)
            r2 = feasibility_diagnostic(s, 4, 1e4, 10.0)
        assert r1 == pytest.approx(10 * r2, rel=1e-9)

    def test_zero_relay_error_rate_is_floored(self, monkeypatch):
        # relay_epsilon rounds to 0.0 on a strong S-R link (1e17); the ratio
        # then uses the detectors' floor instead of dividing by zero
        monkeypatch.setattr(power, "relay_epsilon", lambda *args: 0.0)
        ratio = feasibility_diagnostic(optimize_power(4), 4, 1e17, 1.0)
        z2 = math.sin(math.pi / 4) ** 2 * 8.0 / (4.0 + 2.0 * math.sqrt(3.0))
        assert ratio == pytest.approx(relay_reliability(EPSILON_FLOOR, 4) / (2.0 * z2), rel=1e-12)

    @pytest.mark.parametrize("snrs", [(math.inf, 10.0), (10.0, math.inf), (math.nan, 10.0)])
    def test_rejects_non_finite_snr(self, snrs):
        with pytest.raises(ValueError, match="finite"):
            feasibility_diagnostic(optimize_power(8), 4, *snrs)
