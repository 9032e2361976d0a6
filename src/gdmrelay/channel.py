"""The link model: average link SNRs, random streams and their draws.

Each link (source-destination, source-relay_n, relay_n-destination) keeps a
single complex fading coefficient for a whole frame, redrawn independently
from frame to frame.  Every link has unit noise variance and fading
h ~ CN(0, snr).  There is no noise setting: the detectors assume unit noise,
so a link is described by its average SNR alone, and the relays share one S-R
and one R-D SNR (`harness.ExperimentConfig.link_snrs`).

The module provides `db_to_linear`, `substream` (the keyed random streams),
`complex_normal` (the one fading and noise draw) and `effective_receive_snr`.
A simulation draws fading and noise only in the draw phase of
`harness._simulate_batch`; y = h*u + n is formed in `harness._PointPlan.receive`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "db_to_linear",
    "substream",
    "complex_normal",
    "effective_receive_snr",
]


def db_to_linear(db: float) -> float:
    """10^(db/10); inf where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


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
