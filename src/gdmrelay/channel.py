"""Quasi-static Rayleigh fading and AWGN for all network links.

Each link (source-destination, source-relay_n, relay_n-destination) keeps a
single complex fading coefficient for a whole frame, redrawn independently
from frame to frame.  Every link has unit noise variance and fading
h ~ CN(0, snr).  There is no noise setting: the detectors depend on their
samples only through SNR, so a link is described by its average SNR alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "db_to_linear",
    "NetworkTopology",
    "ChannelRealization",
    "substream",
    "draw_realization",
    "transmit",
    "effective_receive_snr",
]


def db_to_linear(db: float) -> float:
    """10^(db/10); inf where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NetworkTopology:
    """Average link SNRs (linear) for N parallel relays; the noise is unit."""

    n_relays: int
    snr_sd: float
    snr_sr: tuple
    snr_rd: tuple

    def __post_init__(self):
        if self.n_relays < 0:
            raise ValueError("n_relays must be >= 0")
        object.__setattr__(self, "snr_sr", tuple(self.snr_sr))
        object.__setattr__(self, "snr_rd", tuple(self.snr_rd))
        if len(self.snr_sr) != self.n_relays or len(self.snr_rd) != self.n_relays:
            raise ValueError("per-relay SNR tuples must have length n_relays")
        if not all(0 < v < math.inf for v in (self.snr_sd, *self.snr_sr, *self.snr_rd)):
            raise ValueError("all SNRs must be finite and > 0")

    @classmethod
    def symmetric(cls, n_relays: int, snr_sd: float, snr_relay: float | None = None):
        """All relay links share one average SNR (defaults to the S-D SNR)."""
        if snr_relay is None:
            snr_relay = snr_sd
        return cls(
            n_relays=n_relays,
            snr_sd=snr_sd,
            snr_sr=(snr_relay,) * n_relays,
            snr_rd=(snr_relay,) * n_relays,
        )


@dataclass(frozen=True)
class ChannelRealization:
    """One frame's fading coefficients: scalar S-D plus per-relay arrays."""

    h_sd: complex
    h_sr: np.ndarray
    h_rd: np.ndarray


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic random stream keyed by (master_seed, *key).

    Used to derive independent per-batch streams so that simulation results
    do not depend on worker scheduling.
    """
    return np.random.default_rng([int(master_seed), *map(int, key)])


def complex_normal(rng: np.random.Generator, var, size=None, out=None,
                   scratch=None) -> np.ndarray:
    """Circular complex Gaussian with total variance ``var`` (var/2 per part).

    With ``out`` (complex, of shape ``size``) the draw is written there: each
    part is drawn into the float ``scratch`` of shape ``size`` (a fresh one
    when it is None) and scaled into ``out.real`` / ``out.imag``.
    """
    scale = np.sqrt(np.asarray(var) / 2.0)
    if out is None:
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal(size, out=scratch), scale, out=part)
    return out


def draw_realization(topo: NetworkTopology, rng: np.random.Generator) -> ChannelRealization:
    """Draw one frame's independent link coefficients."""
    h_sd = complex(complex_normal(rng, topo.snr_sd))
    h_sr = complex_normal(rng, np.array(topo.snr_sr), size=topo.n_relays)
    h_rd = complex_normal(rng, np.array(topo.snr_rd), size=topo.n_relays)
    return ChannelRealization(h_sd=h_sd, h_sr=h_sr, h_rd=h_rd)


def transmit(u, h, noise_var: float, rng: np.random.Generator | None = None,
             noiseless: bool = False):
    """Received sample(s) ``h*u + n`` with n ~ CN(0, noise_var).

    ``noiseless=True`` returns h*u exactly (no stream consumption).
    Accepts scalars or arrays for ``u``.
    """
    u = np.asarray(u)
    y = h * u
    if noiseless:
        return y
    if rng is None:
        raise ValueError("rng is required unless noiseless=True")
    return y + complex_normal(rng, noise_var, size=u.shape if u.shape else None)


def effective_receive_snr(rho_t: float, rho_r: float, gamma_bar: float) -> float:
    """Average receive SNR of a differential pair, phi_T * gamma_bar.

    phi_T = 1 / (1/rho_t + 1/rho_r) is the harmonic combination of the
    detected symbol's power and the reference power; the higher-order noise
    product term is ignored.
    """
    if not (rho_t > 0 and rho_r > 0):
        raise ValueError("powers must be > 0")
    phi = 1.0 / (1.0 / rho_t + 1.0 / rho_r)
    return phi * gamma_bar
