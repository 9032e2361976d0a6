"""Closed-form performance expressions for the DF relay network.

Covers the Gaussian tail function, coherent M-PSK Rayleigh SER, the relay
error rate of a differential source-relay link, the conditional single-relay
SER approximation, the Rayleigh-averaged multi-relay SER (error-free and
erroneous relaying parts), and the diversity-order formulas.

The averaged multi-relay forms assume symmetric relay links (one common
average SNR for all source-relay and relay-destination links) and the
classical differential scheme (block length 1).

`scipy.special` (erfc, Bessel K) loads on the first closed-form call that
needs it, so a Monte Carlo run, whose relay error rates are pure `math`,
never imports it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from gdmrelay.channel import effective_receive_snr
from gdmrelay.detectors import clamp_epsilon, relay_reliability
from gdmrelay.modulation import PowerAllocation

__all__ = [
    "SerPrediction",
    "q_function",
    "coherent_mpsk_rayleigh_ser",
    "relay_epsilon",
    "eta_threshold",
    "ser_conditional_single",
    "ser_avg_error_free",
    "ser_avg_erroneous",
    "diversity_order",
    "diversity_with_errors",
    "bessel_k",
    "fit_diversity_slope",
]


@dataclass(frozen=True)
class SerPrediction:
    """SER estimate split into relay-correct and relay-error contributions."""

    value: float
    error_free: float
    erroneous: float


def q_function(x):
    """Gaussian tail probability Q(x) = P[N(0,1) > x]."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * scipy.special.erfc(x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def coherent_mpsk_rayleigh_ser(gamma_bar: float, m: int) -> float:
    """Average SER of coherent M-PSK over Rayleigh fading at mean SNR gamma_bar."""
    if not gamma_bar > 0:
        raise ValueError("gamma_bar must be > 0")
    if m < 2:
        raise ValueError("m must be >= 2")
    g = gamma_bar * math.sin(math.pi / m) ** 2
    r, c = math.sqrt(g / (1.0 + g)), 1.0 / math.tan(math.pi / m)
    d = 1.0 / ((1.0 + g) * (1.0 + r))  # 1 - r, without the cancellation
    return d * (0.5 + math.atan(r * c) / math.pi) + math.atan(d * c / (1.0 + r * c * c)) / math.pi


def relay_epsilon(power: PowerAllocation, l_block: int, gamma_sr_bar: float,
                  m: int) -> float:
    """Average relay symbol error rate of the differential S-R link.

    Mixes the coherent Rayleigh SER evaluated at the effective receive SNRs
    of the two symbol types, weighted by their share of the frame.
    """
    if l_block < 1:
        raise ValueError("l_block must be >= 1")
    p_r = coherent_mpsk_rayleigh_ser(power.rho_r / 2.0 * gamma_sr_bar, m)
    p_n = coherent_mpsk_rayleigh_ser(
        effective_receive_snr(power.rho_n, power.rho_r, gamma_sr_bar), m)
    return p_r / l_block + (1.0 - 1.0 / l_block) * p_n


def eta_threshold(epsilon: float, m: int, rho_t: float, rho_r: float) -> float:
    """Wrong-relay branch penalty (1 + rho_t/rho_r) * log((1-eps)(M-1)/eps)."""
    if not 0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if m < 2:
        raise ValueError("m must be >= 2")
    return (1.0 + rho_t / rho_r) * relay_reliability(epsilon, m)


def ser_conditional_single(gamma_sd: float, gamma_rd: float, epsilon: float,
                           eta: float, power: PowerAllocation, m: int,
                           symbol_type: str = "N") -> SerPrediction:
    """Conditional SER of the single-relay branch-floor detector.

    ``gamma_sd`` and ``gamma_rd`` are instantaneous link SNRs.  The
    error-free part sums the two dominant nearest-neighbor events; the
    erroneous part adds the relay-mismatch events weighted by epsilon.
    For M=2 the pair of nearest neighbors collapses to one and the leading
    factors are halved.
    """
    if symbol_type not in ("R", "N"):
        raise ValueError("symbol_type must be 'R' or 'N'")
    rho_t = power.rho_r if symbol_type == "R" else power.rho_n
    phi = effective_receive_snr(rho_t, power.rho_r, 1.0)
    ratio = rho_t / power.rho_r
    s = math.sin(math.pi / m)
    lead = 1.0 if m == 2 else 2.0
    eps = clamp_epsilon(epsilon)

    a_both = s * math.sqrt(2.0 * phi * (gamma_sd + gamma_rd))
    a_sd = s * math.sqrt(2.0 * phi * gamma_sd)
    shift = eta / (2.0 * (1.0 + ratio) * a_sd) if a_sd > 0 else math.inf

    p_c = lead * (1 - eps) * q_function(a_both)
    p_c += lead * (1 - eps) * q_function(a_sd + shift)
    p_e = lead * eps * q_function(a_sd)
    p_e += lead * eps / (m - 1) * q_function(a_sd - shift)

    p_c = min(max(p_c, 0.0), 1.0)
    p_e = min(max(p_e, 0.0), 1.0)
    value = min(p_c + p_e, 1.0)
    return SerPrediction(value=value, error_free=p_c, erroneous=p_e)


def bessel_k(order: int, x: float) -> float:
    """Modified Bessel function of the second kind, integer order."""
    if x <= 0:
        raise ValueError("x must be > 0")
    if order < 0 or int(order) != order:
        raise ValueError("order must be a non-negative integer")
    return float(scipy.special.kv(int(order), x))


def _log_kve(order: int, z: float) -> float:
    """log of exp(z) * K_order(z)."""
    return math.log(float(scipy.special.kve(int(order), z)))


def ser_avg_error_free(n_relays: int, m: int, epsilon: float, eta: float,
                       gamma_bar: float, gamma_sd_bar: float | None = None) -> float:
    """Rayleigh-averaged SER contribution of the error-free relaying scenario.

    Sums over the number of branches whose floor is inactive; each term
    pairs a growing exponential with a decaying Bessel factor, so the
    product is evaluated in log space.  Relay links are assumed symmetric
    at average SNR ``gamma_bar`` (``gamma_sd_bar`` defaults to it).
    """
    if n_relays < 1:
        raise ValueError("n_relays must be >= 1")
    if gamma_sd_bar is None:
        gamma_sd_bar = gamma_bar
    eps = clamp_epsilon(epsilon)
    s2 = math.sin(math.pi / m) ** 2
    total = 0.0
    for k in range(n_relays):
        gm = (k * gamma_bar + gamma_sd_bar) / (k + 1)
        delta = s2 / 2.0 + 1.0 / gm
        a = n_relays - k
        z = a * math.sqrt(delta) * eta / (2.0 * math.sqrt(2.0) * math.sqrt(s2))
        log_term = (
            math.log(math.comb(n_relays, k))
            - math.log(2.0) - math.lgamma(k + 1) - (k + 1) * math.log(gm)
            + (-2 * k - 1) * math.log(2.0) + (k + 1) * math.log(a * eta)
            - a * eta / 4.0
            - ((k + 1) / 2.0) * math.log(2.0 * s2 * delta)
            + _log_kve(k + 1, z) - z
        )
        total += math.exp(log_term)
    total *= 2.0 * (1.0 - eps) ** n_relays
    return min(max(total, 0.0), 1.0)


def ser_avg_erroneous(n_relays: int, m: int, epsilon: float, eta: float,
                      gamma_sd_bar: float) -> float:
    """Rayleigh-averaged SER contribution of the erroneous relaying scenario.

    Sums over the number of wrong relays; the balance between wrong and
    correct relays selects one of three integral forms.  Evaluated in log
    space with the exponentially scaled Bessel function.
    """
    if n_relays < 1:
        raise ValueError("n_relays must be >= 1")
    eps = clamp_epsilon(epsilon)
    total = 0.0
    for n_err in range(1, n_relays + 1):
        weight = (math.comb(n_relays, n_err) / (m - 1)
                  * eps**n_err * (1 - eps) ** (n_relays - n_err))
        a = 2 * n_err - n_relays
        inner = 0.0
        for v in range(2, m + 1):
            c1 = 1.0 - math.cos(2.0 * math.pi * (v - 1) / m)
            delta = c1 / 4.0 + 1.0 / gamma_sd_bar
            if a == 0:
                inner += 2.0 / (4.0 + c1 * gamma_sd_bar)
                continue
            z = abs(a) * math.sqrt(delta) * eta / (2.0 * math.sqrt(c1))
            log_z2 = (
                math.log(abs(a) * eta) - 0.5 * math.log(4.0 * c1)
                - math.log(2.0) - 0.5 * math.log(delta) - math.log(gamma_sd_bar)
                + _log_kve(1, z) - z + a * eta / 4.0
            )
            z2 = math.exp(log_z2)
            if a > 0:
                z1 = 1.0 - math.exp(-a * eta / (2.0 * c1 * gamma_sd_bar))
                inner += z1 + z2
            else:
                inner += z2
        total += weight * inner
    return min(max(total, 0.0), 1.0)


def diversity_order(n_relays: int) -> int:
    """Achievable diversity order ceil(N/2) + 1 of the branch-floor detectors."""
    if n_relays < 1:
        raise ValueError("n_relays must be >= 1")
    return math.ceil(n_relays / 2) + 1


def diversity_with_errors(n_relays: int, n_err: int | None = None,
                          r_error_free: int | None = None) -> int:
    """Diversity order conditioned on relay error counts.

    With ``n_err`` wrong relays the order is n_err+1 above the balance
    point and N+1-n_err below it.  With ``r_error_free`` guaranteed-correct
    relays the order is the minimum over the remaining error counts.
    """
    if n_relays < 1:
        raise ValueError("n_relays must be >= 1")
    if (n_err is None) == (r_error_free is None):
        raise ValueError("give exactly one of n_err or r_error_free")
    if r_error_free is not None:
        if not 0 <= r_error_free <= n_relays:
            raise ValueError("r_error_free out of range")
        return min(diversity_with_errors(n_relays, n_err=k)
                   for k in range(0, n_relays - r_error_free + 1))
    if not 0 <= n_err <= n_relays:
        raise ValueError("n_err out of range")
    if n_err >= n_relays / 2:
        return n_err + 1
    return n_relays + 1 - n_err


def fit_diversity_slope(snr_db, ser) -> float:
    """Estimated diversity order from the tail of an SER curve.

    Least-squares slope of log10(SER) against snr_db/10, negated.  Points
    with zero SER are dropped with a warning.
    """
    snr_db = np.asarray(snr_db, dtype=float)
    ser = np.asarray(ser, dtype=float)
    keep = ser > 0
    if not keep.all():
        warnings.warn(f"dropping {int((~keep).sum())} zero-SER points from slope fit")
    snr_db, ser = snr_db[keep], ser[keep]
    if len(ser) < 2:
        raise ValueError("need at least 2 points with SER > 0")
    slope = np.polyfit(snr_db / 10.0, np.log10(ser), 1)[0]
    return float(-slope)
