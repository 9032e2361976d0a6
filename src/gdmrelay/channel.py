"""The link model: average link SNRs, random streams and their draws.

Each link (source-destination, source-relay_n, relay_n-destination) keeps a
single complex fading coefficient for a whole frame, redrawn independently
from frame to frame.  Every link has unit noise variance and fading
h ~ CN(0, snr).  There is no noise setting: the detectors assume unit noise,
so a link is described by its average SNR alone, and the relays share one S-R
and one R-D SNR (`harness.ExperimentConfig.link_snrs`).

The module provides `db_to_linear`, `substream` (the keyed random streams),
`complex_normal` (the one fading and noise draw) and `effective_receive_snr`.
A simulation draws fading and noise only in `harness._simulate_batch`, in a
fixed order (chunked draws are the same stream); y = h*u + n is formed in
`harness._PointPlan.receive`.
"""

from __future__ import annotations

import math

import numpy as np

from gdmrelay.modulation import _count, _finite_positive

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
    do not depend on worker scheduling.  The seed and each key are integers >= 0.
    """
    _count(0, master_seed=master_seed, **{f"key[{i}]": k for i, k in enumerate(key)})
    return np.random.default_rng([int(master_seed), *map(int, key)])


def complex_normal(rng: np.random.Generator, var, size=None, out=None,
                   scratch=None) -> np.ndarray:
    """Circular complex Gaussian with total variance ``var`` (var/2 per part).

    One path: ``out`` (C-contiguous complex of shape ``size``, made when it is
    None; ``var`` a scalar) gets each part, real then imaginary, drawn in chunks
    through the 1-D float ``scratch`` (one chunk when it is None) and scaled:
    the same values and generator state as one whole draw.  ``var`` is finite and > 0.
    """
    _finite_positive(var=var)
    scale = np.sqrt(np.asarray(var) / 2.0)
    if out is None:
        out = np.empty(() if size is None else size, complex)
    elif size is not None and out.shape != np.broadcast_to(0, size).shape:
        raise ValueError(f"size {size} differs from out.shape {out.shape}")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    flat = out.reshape(-1)  # a view of out
    scratch = np.empty(flat.size or 1) if scratch is None else scratch
    for part in (flat.real, flat.imag):
        for lo in range(0, part.size, scratch.size):
            chunk = rng.standard_normal(out=scratch[:part.size - lo])
            np.multiply(chunk, scale, out=part[lo:lo + chunk.size])
    return out


def effective_receive_snr(rho_t: float, rho_r: float, gamma_bar: float) -> float:
    """Average receive SNR of a differential pair, phi_T * gamma_bar.

    phi_T = 1 / (1/rho_t + 1/rho_r) is the harmonic combination of the
    detected symbol's power and the reference power; the higher-order noise
    product term is ignored.  All three arguments are finite and > 0.
    """
    _finite_positive(rho_t=rho_t, rho_r=rho_r, gamma_bar=gamma_bar)
    return _phi(rho_t, rho_r) * gamma_bar


def _phi(rho_t: float, rho_r: float) -> float:
    """phi_T of `effective_receive_snr`, for powers already checked."""
    return 1.0 / (1.0 / rho_t + 1.0 / rho_r)
