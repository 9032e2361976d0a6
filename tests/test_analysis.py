import math

import numpy as np
import pytest
from scipy import integrate

from gdmrelay.analysis import (
    bessel_k,
    coherent_mpsk_rayleigh_ser,
    diversity_order,
    diversity_with_errors,
    eta_threshold,
    fit_diversity_slope,
    q_function,
    relay_epsilon,
    ser_avg_error_free,
    ser_avg_erroneous,
    ser_conditional_single,
)
from gdmrelay.detectors import relay_reliability
from gdmrelay.power import optimize_power


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------


def quad_mpsk_rayleigh_ser(gamma_bar, m):
    """Craig-form average of the exact M-PSK SER over exponential fading."""
    s2 = math.sin(math.pi / m) ** 2

    def integrand(theta):
        return 1.0 / (1.0 + gamma_bar * s2 / math.sin(theta) ** 2)

    val, _ = integrate.quad(integrand, 0.0, math.pi * (m - 1) / m, limit=200)
    return val / math.pi


def quad_avg_error_free(n, m, epsilon, eta, gamma_bar, gamma_sd_bar):
    """Gamma-distributed combined-SNR average with the half-Gaussian kernel.

    Per inactive-floor count j: integrate
    (1/2) exp(-(2 s^2 g + (n-j) eta / 2)^2 / (8 s^2 g)) against the gamma
    density of the combined SNR, then weight by the binomial multiplicity.
    """
    s2 = math.sin(math.pi / m) ** 2
    total = 0.0
    for j in range(n):
        gbar_j = (j * gamma_bar + gamma_sd_bar) / (j + 1)

        def integrand(g, j=j, gbar_j=gbar_j):
            num = (2 * s2 * g + (n - j) * eta / 2.0) ** 2
            return (0.5 * math.exp(-num / (8 * s2 * g))
                    * g**j * math.exp(-g / gbar_j)
                    / (math.gamma(j + 1) * gbar_j ** (j + 1)))

        peak = (n - j) * eta / (4 * s2)  # kernel maximum; split for accuracy
        v1, _ = integrate.quad(integrand, 0.0, peak, limit=400)
        v2, _ = integrate.quad(integrand, peak, np.inf, limit=400)
        total += math.comb(n, j) * (v1 + v2)
    return 2.0 * (1 - epsilon) ** n * total


def quad_avg_erroneous(n, m, epsilon, eta, gamma_sd_bar):
    """Exponential-fading average of the erroneous-relaying decomposition.

    Per (wrong-relay count, competitor) pair with balance a = 2*n_err - n:
    the below-crossover mass is counted in full (probability that the S-D
    SNR sits under the floor-dominated region) and the half-Gaussian kernel
    (1/2) exp(-(c1 g - a eta / 2)^2 / (4 c1 g)) is integrated over the whole
    positive axis, mirroring the bracket structure of the closed form.
    """
    from gdmrelay.modulation import make_alphabet

    pts = make_alphabet(m).points
    total = 0.0
    for n_err in range(1, n + 1):
        a = 2 * n_err - n
        w = (math.comb(n, n_err) / (m - 1)
             * epsilon**n_err * (1 - epsilon) ** (n - n_err))
        for v in range(2, m + 1):
            c1 = (1.0 - np.conj(pts[0]) * pts[v - 1]).real
            if a == 0:
                total += w * 2.0 / (4.0 + c1 * gamma_sd_bar)
                continue

            def integrand(g, a=a, c1=c1):
                arg = (c1 * g - a * eta / 2.0)
                return (0.5 * math.exp(-arg**2 / (4 * c1 * g))
                        * math.exp(-g / gamma_sd_bar) / gamma_sd_bar)

            term = 1.0 - math.exp(-a * eta / (2 * c1 * gamma_sd_bar)) if a > 0 else 0.0
            peak = abs(a) * eta / (2 * c1)  # kernel maximum; split for accuracy
            v1, _ = integrate.quad(integrand, 0.0, peak, limit=400)
            v2, _ = integrate.quad(integrand, peak, np.inf, limit=400)
            total += w * (term + v1 + v2)
    return total


def quad_bessel_k(order, x):
    """Integral representation K_v(x) = int_0^inf e^{-x cosh t} cosh(v t) dt."""

    def integrand(t):
        log_val = -x * math.cosh(t) + math.log(math.cosh(order * t)) if order \
            else -x * math.cosh(t)
        return math.exp(log_val) if log_val > -700 else 0.0

    # the integrand is negligible once x cosh(t) dominates; cap the domain
    t_max = math.acosh(750.0 / x) if x < 750.0 else 1.0
    val, _ = integrate.quad(integrand, 0.0, t_max, limit=400)
    return val


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestQFunction:
    def test_known_values(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)
        assert q_function(-1.0) == pytest.approx(1 - 0.15865525393145707, rel=1e-12)

    def test_against_quadrature(self):
        for x in (0.5, 1.5, 3.0, 5.0, 8.0):
            val, _ = integrate.quad(
                lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, np.inf)
            assert q_function(x) == pytest.approx(val, rel=1e-10)

    def test_vectorized(self):
        out = q_function(np.array([0.0, 1.0]))
        assert out.shape == (2,)


class TestCoherentSer:
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("snr_db", [0, 10, 20, 30, 120, 150, 170])
    def test_against_craig_quadrature(self, m, snr_db):
        g = 10.0 ** (snr_db / 10.0)
        # abs=0: approx's default abs=1e-12 would pass any value near 0 at 120 dB and up
        assert coherent_mpsk_rayleigh_ser(g, m) == pytest.approx(
            quad_mpsk_rayleigh_ser(g, m), rel=1e-9, abs=0)

    def test_bpsk_closed_form(self):
        # binary case reduces to (1 - sqrt(g/(1+g)))/2
        g = 10.0
        want = 0.5 * (1 - math.sqrt(g / (1 + g)))
        assert coherent_mpsk_rayleigh_ser(g, 2) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("g", [math.inf, math.nan, 0.0])
    def test_rejects_non_finite_snr(self, g):
        with pytest.raises(ValueError, match="finite and > 0"):
            coherent_mpsk_rayleigh_ser(g, 4)
        with pytest.raises(ValueError, match="finite and > 0"):
            relay_epsilon(optimize_power(8).as_allocation(), 8, g, 4)


class TestRelayEpsilon:
    def test_l1_is_reference_only(self):
        pa = optimize_power(1).as_allocation()
        e = relay_epsilon(pa, 1, 100.0, 4)
        assert e == pytest.approx(coherent_mpsk_rayleigh_ser(50.0, 4), rel=1e-12)

    def test_mixture_weights(self):
        pa = optimize_power(16).as_allocation()
        phi_r = pa.rho_r / 2
        phi_n = 1 / (1 / pa.rho_n + 1 / pa.rho_r)
        g = 100.0
        want = (coherent_mpsk_rayleigh_ser(phi_r * g, 4) / 16
                + 15 / 16 * coherent_mpsk_rayleigh_ser(phi_n * g, 4))
        assert relay_epsilon(pa, 16, g, 4) == pytest.approx(want, rel=1e-12)

    def test_decreasing_in_snr(self):
        pa = optimize_power(8).as_allocation()
        es = [relay_epsilon(pa, 8, g, 4) for g in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(es, es[1:]))


class TestEtaThreshold:
    def test_value(self):
        want = 2.0 * math.log(0.99 * 3 / 0.01)
        assert eta_threshold(0.01, 4, 1.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_scales_with_power_ratio(self):
        base = eta_threshold(0.01, 4, 1.0, 1.0)
        half = eta_threshold(0.01, 4, 0.5, 1.0)
        assert half == pytest.approx(base * 1.5 / 2.0, rel=1e-12)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            eta_threshold(0.6, 4, 1.0, 1.0)

    def test_is_the_relay_reliability_term(self):
        assert eta_threshold(0.01, 4, 0.5, 1.0) == 1.5 * relay_reliability(0.01, 4)


class TestConditionalSingle:
    def setup_method(self):
        self.pa = optimize_power(1).as_allocation()

    def test_decreasing_in_sd_snr(self):
        eta = eta_threshold(0.01, 4, 1.0, 1.0)
        vals = [ser_conditional_single(g, 10.0, 0.01, eta, self.pa, 4).value
                for g in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_error_free_limit(self):
        # epsilon -> 0 leaves only the relay-correct contribution
        eta = eta_threshold(1e-9, 4, 1.0, 1.0)
        p = ser_conditional_single(50.0, 50.0, 1e-9, eta, self.pa, 4)
        assert p.erroneous < 1e-8
        assert p.value == pytest.approx(p.error_free, abs=1e-8)
        assert p.value == pytest.approx(p.error_free + p.erroneous, rel=1e-12)

    def test_m2_halves_leading_factors(self):
        eta = eta_threshold(0.01, 2, 1.0, 1.0)
        p2 = ser_conditional_single(10.0, 10.0, 0.01, eta, self.pa, 2)
        # transcribe the binary expression independently
        s = 1.0
        phi = 0.5
        a_both = s * math.sqrt(2 * phi * 20.0)
        a_sd = s * math.sqrt(2 * phi * 10.0)
        shift = eta / (2 * 2.0 * a_sd)
        want_c = 0.99 * (q_function(a_both) + q_function(a_sd + shift))
        want_e = 0.01 * (q_function(a_sd) + q_function(a_sd - shift))
        assert p2.error_free == pytest.approx(want_c, rel=1e-12)
        assert p2.erroneous == pytest.approx(want_e, rel=1e-12)

    def test_zero_sd_snr_degenerates(self):
        eta = eta_threshold(0.01, 4, 1.0, 1.0)
        p = ser_conditional_single(0.0, 10.0, 0.01, eta, self.pa, 4)
        assert 0.0 <= p.value <= 1.0

    def test_zero_sd_snr_pinned(self):
        # with no direct link the shifted tails are exactly Q(inf)=0 and Q(-inf)=1
        eta = eta_threshold(0.01, 4, 1.0, 1.0)
        p = ser_conditional_single(0.0, 10.0, 0.01, eta, self.pa, 4)
        assert p.error_free == 2 * 0.99 * q_function(math.sin(math.pi / 4) * math.sqrt(10.0))
        assert p.erroneous == 2 * 0.01 * 0.5 + 2 * 0.01 / 3
        assert p.value == p.error_free + p.erroneous

    def test_rejects_unknown_symbol_type(self):
        eta = eta_threshold(0.01, 4, 1.0, 1.0)
        with pytest.raises(ValueError, match="symbol_type must be 'R' or 'N'"):
            ser_conditional_single(10.0, 10.0, 0.01, eta, self.pa, 4, symbol_type="X")

    def test_symbol_type_changes_effective_power(self):
        pa = optimize_power(16).as_allocation()
        eta_r = eta_threshold(0.01, 4, pa.rho_r, pa.rho_r)
        eta_n = eta_threshold(0.01, 4, pa.rho_n, pa.rho_r)
        pr = ser_conditional_single(10.0, 10.0, 0.01, eta_r, pa, 4, "R")
        pn = ser_conditional_single(10.0, 10.0, 0.01, eta_n, pa, 4, "N")
        assert pr.value < pn.value  # reference symbols get more power


class TestBesselK:
    def test_recurrence(self):
        # K_{v+1}(x) = K_{v-1}(x) + (2 v / x) K_v(x)
        for x in (0.5, 2.0, 10.0, 40.0):
            for v in (1, 2, 5):
                lhs = bessel_k(v + 1, x)
                rhs = bessel_k(v - 1, x) + 2 * v / x * bessel_k(v, x)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_asymptotic_tail(self):
        for x in (30.0, 60.0, 120.0):
            approx = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
            assert bessel_k(0, x) == pytest.approx(approx, rel=0.01)
            assert bessel_k(1, x) == pytest.approx(approx, rel=0.05)

    def test_against_integral_representation(self):
        for v in (0, 1, 3):
            for x in (0.5, 2.0, 8.0):
                assert bessel_k(v, x) == pytest.approx(
                    quad_bessel_k(v, x), rel=1e-8)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bessel_k(1, 0.0)
        with pytest.raises(ValueError):
            bessel_k(-1, 1.0)


def eps_eta(m, gamma_bar):
    pa = optimize_power(1).as_allocation()
    eps = relay_epsilon(pa, 1, gamma_bar, m)
    return eps, eta_threshold(eps, m, 1.0, 1.0)


class TestAveragedErrorFree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("snr_db", [10, 20, 30])
    def test_against_quadrature(self, n, snr_db):
        g = 10.0 ** (snr_db / 10.0)
        eps, eta = eps_eta(4, g)
        want = quad_avg_error_free(n, 4, eps, eta, g, g)
        got = ser_avg_error_free(n, 4, eps, eta, g)
        assert got == pytest.approx(want, rel=1e-3)

    def test_separate_sd_snr(self):
        g = 100.0
        eps, eta = eps_eta(4, g)
        want = quad_avg_error_free(2, 4, eps, eta, g, 10 * g)
        got = ser_avg_error_free(2, 4, eps, eta, g, gamma_sd_bar=10 * g)
        assert got == pytest.approx(want, rel=1e-3)

    def test_decreasing_in_snr(self):
        vals = []
        for snr_db in (10, 15, 20, 25, 30):
            g = 10.0 ** (snr_db / 10.0)
            eps, eta = eps_eta(4, g)
            vals.append(ser_avg_error_free(3, 4, eps, eta, g))
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAveragedErroneous:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("snr_db", [10, 20, 30])
    def test_against_quadrature(self, n, m, snr_db):
        g = 10.0 ** (snr_db / 10.0)
        eps, eta = eps_eta(m, g)
        want = quad_avg_erroneous(n, m, eps, eta, g)
        got = ser_avg_erroneous(n, m, eps, eta, g)
        assert got == pytest.approx(want, rel=1e-2)

    def test_balanced_case_exact(self):
        # n_err = n/2 collapses to a rational term; check the n=2 piece alone
        g = 100.0
        eps, eta = eps_eta(4, g)
        from gdmrelay.modulation import make_alphabet

        pts = make_alphabet(4).points
        want = 0.0
        w = math.comb(2, 1) / 3 * eps * (1 - eps)
        for v in range(2, 5):
            c1 = (1.0 - np.conj(pts[0]) * pts[v - 1]).real
            want += w * 2.0 / (4.0 + c1 * g)
        # isolate the n_err=1 share by subtracting the n_err=2 share
        full = ser_avg_erroneous(2, 4, eps, eta, g)
        only2 = full - want
        assert only2 > 0
        assert want < full

    def test_scales_linearly_with_epsilon_when_rare(self):
        g = 1000.0
        _, eta = eps_eta(4, g)
        a = ser_avg_erroneous(2, 4, 1e-4, eta, g)
        b = ser_avg_erroneous(2, 4, 2e-4, eta, g)
        assert b / a == pytest.approx(2.0, rel=0.01)


class TestSnrDomain:
    @pytest.mark.parametrize("g", [math.inf, math.nan, 0.0, -1.0])
    def test_averaged_forms_reject_snr(self, g):
        eps, eta = eps_eta(4, 100.0)
        with pytest.raises(ValueError, match="finite and > 0"):
            ser_avg_error_free(2, 4, eps, eta, g)
        with pytest.raises(ValueError, match="finite and > 0"):
            ser_avg_error_free(2, 4, eps, eta, 100.0, gamma_sd_bar=g)
        with pytest.raises(ValueError, match="finite and > 0"):
            ser_avg_erroneous(2, 4, eps, eta, g)

    @pytest.mark.parametrize("g", [math.nan, -1.0])
    def test_conditional_rejects_negative_or_nan_snr(self, g):
        # 0 stays valid: an instantaneous SNR of 0 is a faded-out link
        eta = eta_threshold(0.01, 4, 1.0, 1.0)
        pa = optimize_power(1).as_allocation()
        with pytest.raises(ValueError, match=">= 0"):
            ser_conditional_single(g, 10.0, 0.01, eta, pa, 4)
        with pytest.raises(ValueError, match=">= 0"):
            ser_conditional_single(10.0, g, 0.01, eta, pa, 4)


class TestAveragedDomain:
    @pytest.mark.parametrize("m", [1, 0, -2])
    def test_reject_m_below_two(self, m):
        with pytest.raises(ValueError, match="m >= 2"):
            ser_avg_error_free(2, m, 0.01, 5.0, 100.0)
        with pytest.raises(ValueError, match="m >= 2"):
            ser_avg_erroneous(2, m, 0.01, 5.0, 100.0)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_reject_eta_not_finite_and_positive(self, eta):
        with pytest.raises(ValueError, match="finite eta > 0"):
            ser_avg_error_free(2, 4, 0.01, eta, 100.0)
        with pytest.raises(ValueError, match="finite eta > 0"):
            ser_avg_erroneous(2, 4, 0.01, eta, 100.0)

    @pytest.mark.parametrize("eta", [0.0, -5.0, math.nan, math.inf])
    def test_conditional_rejects_eta_not_finite_and_positive(self, eta):
        pa = optimize_power(1).as_allocation()
        with pytest.raises(ValueError, match="finite eta > 0"):
            ser_conditional_single(10.0, 10.0, 0.01, eta, pa, 4)

    @pytest.mark.parametrize("m", [1, 0])
    def test_conditional_rejects_m_below_two(self, m):
        pa = optimize_power(1).as_allocation()
        with pytest.raises(ValueError, match="m >= 2"):
            ser_conditional_single(10.0, 10.0, 0.01, 5.0, pa, m)

    def test_reject_nan_epsilon(self):
        eta = eta_threshold(0.01, 4, 1.0, 1.0)
        pa = optimize_power(1).as_allocation()
        for call in (lambda: ser_avg_error_free(2, 4, math.nan, eta, 100.0),
                     lambda: ser_avg_erroneous(2, 4, math.nan, eta, 100.0),
                     lambda: ser_conditional_single(10.0, 10.0, math.nan, eta, pa, 4)):
            with pytest.raises(ValueError, match="epsilon"):
                call()


class TestDiversity:
    def test_overall_order(self):
        assert [diversity_order(n) for n in (1, 2, 3, 4, 5, 6)] == [2, 2, 3, 3, 4, 4]

    def test_conditional_on_error_count(self):
        assert diversity_with_errors(3, n_err=0) == 4
        assert diversity_with_errors(3, n_err=1) == 3
        assert diversity_with_errors(3, n_err=2) == 3
        assert diversity_with_errors(3, n_err=3) == 4
        assert diversity_with_errors(4, n_err=2) == 3

    def test_conditional_on_error_free_relays(self):
        assert diversity_with_errors(3, r_error_free=3) == 4
        assert diversity_with_errors(3, r_error_free=2) == 3
        assert diversity_with_errors(3, r_error_free=0) == 3
        assert diversity_with_errors(2, r_error_free=2) == 3

    def test_rejects_both_or_neither(self):
        with pytest.raises(ValueError):
            diversity_with_errors(3)
        with pytest.raises(ValueError):
            diversity_with_errors(3, n_err=1, r_error_free=1)


class TestSlopeFit:
    def test_recovers_exact_slope(self):
        snr_db = np.array([10, 15, 20, 25])
        ser = 10.0 ** (-3.0 * snr_db / 10.0 + 1.0)
        assert fit_diversity_slope(snr_db, ser) == pytest.approx(3.0, abs=1e-9)

    def test_drops_zero_points_with_warning(self):
        snr_db = [10, 15, 20, 25]
        ser = [1e-2, 1e-3, 1e-4, 0.0]
        with pytest.warns(UserWarning):
            slope = fit_diversity_slope(snr_db, ser)
        assert slope == pytest.approx(2.0, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                fit_diversity_slope([10, 20], [1e-2, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    def test_rejects_non_finite_or_negative_ser(self, bad):
        # a NaN used to count as a zero-SER point and an inf gave a NaN slope
        with pytest.raises(ValueError, match="finite and >= 0"):
            fit_diversity_slope([10, 15, 20], [1e-2, bad, 1e-4])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in shape"):
            fit_diversity_slope([10, 15, 20], [1e-2, 1e-3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_snr(self, bad, capfd):
        # polyfit used to raise LinAlgError after LAPACK wrote DLASCL lines to stderr
        with pytest.raises(ValueError, match="SNRs must be finite"):
            fit_diversity_slope([10, bad, 20], [1e-2, 1e-3, 1e-4])
        assert capfd.readouterr().err == ""

    def test_rejects_one_repeated_snr(self):
        # polyfit used to return a slope of 1.5 with only a RankWarning
        with pytest.raises(ValueError, match="2 distinct SNRs"):
            fit_diversity_slope([10, 10, 10], [1e-2, 1e-3, 1e-4])

    def test_counts_distinct_snrs_among_points_kept(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="2 distinct SNRs"):
                fit_diversity_slope([10, 10, 20], [1e-2, 1e-3, 0.0])
