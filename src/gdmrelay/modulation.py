"""M-PSK alphabet and generalized differential frame encoding.

A frame of K information symbols (plus one initialization symbol) is split
into blocks of length L.  The first symbol of each block is a reference
symbol (RS), transmitted with power ``rho_r``; the remaining L-1 normal
symbols (NS) are transmitted with power ``rho_n``.  Each symbol k1 = 1..K is
differentially chained to one earlier sample k2, the pair rule that
`GdmFrameConfig.pair_positions` states: an RS to the previous block's RS, an
NS to its own block head.  The decoder and the detectors' sample pairs read
it; the encoder (`_phase_indices`) builds the same chain block by block, as
the round-trip tests pin.  L=1 with equal powers is classical differential PSK.

Symbols are kept as alphabet indices (1..M); complex values are derived on
demand so that differential products never accumulate floating-point phase
error over long frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PskAlphabet",
    "PowerAllocation",
    "GdmFrameConfig",
    "EncodedFrame",
    "make_alphabet",
    "gdm_encode",
    "noiseless_decode",
]

_POWER_TOL = 1e-9


def _count(lo: int, hi=np.inf, /, **counts) -> None:
    """The count rule of every public entry point: each value is an int or NumPy
    integer in [lo, hi] (M >= 2; N, K, L >= 1), else ValueError naming it."""
    for name, v in counts.items():
        if not (type(v) is int or isinstance(v, np.integer)) or not lo <= v <= hi:  # no bool
            cap = "" if hi == np.inf else f" and <= {hi}"
            raise ValueError(f"need an integer {name} >= {lo}{cap}, got {v!r}")


def _finite_positive(**values) -> None:
    """The rule of every average SNR, power and eta: each value (an array in every
    element) is finite and > 0, else ValueError naming it."""
    for name, v in values.items():  # a NaN fails every comparison
        try:
            ok = 0 < v < np.inf
        except ValueError:  # an array of several values: check its extremes
            ok = 0 < v.min() and v.max() < np.inf
        if not ok:
            raise ValueError(f"need a finite {name} > 0, got {v!r}: SNRs, powers and eta "
                             "must be finite and > 0")


@dataclass(frozen=True)
class PskAlphabet:
    """The M points ``exp(j*2*pi*(t-1)/M)``, t = 1..M, in index order."""

    m: int
    points: np.ndarray

    def __post_init__(self):
        _count(2, m=self.m)

    def point(self, index: int) -> complex:
        """Complex value of 1-based alphabet index."""
        return complex(self.points[index - 1])


def make_alphabet(m: int) -> PskAlphabet:
    """Build the M-PSK alphabet (M-th roots of unity).

    Raises ValueError unless m is an integer >= 2.
    """
    _count(2, m=m)
    points = np.exp(2j * np.pi * np.arange(m) / m)
    points[0] = 1.0 + 0.0j
    points.setflags(write=False)
    return PskAlphabet(m=int(m), points=points)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-symbol-type transmit powers (linear scale).

    ``rho_r`` is the reference-symbol power, ``rho_n`` the normal-symbol
    power and ``p_s`` the frame-average power.  The constraint
    ``rho_r + (L-1)*rho_n == L*p_s`` is checked by the owning frame config
    since it depends on L.
    """

    rho_r: float
    rho_n: float
    p_s: float

    def __post_init__(self):
        _finite_positive(p_s=self.p_s, rho_n=self.rho_n, rho_r=self.rho_r)

    @property
    def ns_scale(self) -> float:
        """Amplitude ratio sqrt(rho_n / rho_r) applied to normal symbols."""
        return float(np.sqrt(self.rho_n / self.rho_r))


@dataclass(frozen=True)
class GdmFrameConfig:
    """Shape of one transmission frame: K info symbols, block length L, order M."""

    k_frame: int
    l_block: int
    m: int
    power: PowerAllocation

    def __post_init__(self):
        _count(1, k_frame=self.k_frame, l_block=self.l_block)
        _count(2, m=self.m)
        if (self.k_frame + 1) % self.l_block != 0:
            raise ValueError(
                f"(K+1) must be a multiple of L: K={self.k_frame}, L={self.l_block}"
            )
        p = self.power
        if abs(p.rho_r + (self.l_block - 1) * p.rho_n - self.l_block * p.p_s) > _POWER_TOL:
            raise ValueError(
                "power allocation violates rho_r + (L-1)*rho_n = L*p_s: "
                f"rho_r={p.rho_r}, rho_n={p.rho_n}, L={self.l_block}, p_s={p.p_s}"
            )

    @property
    def n_blocks(self) -> int:
        return (self.k_frame + 1) // self.l_block

    def ref_mask(self) -> np.ndarray:
        """Boolean mask over positions 0..K, True at block heads."""
        mask = np.zeros(self.k_frame + 1, dtype=bool)
        mask[:: self.l_block] = True
        return mask

    def pair_positions(self) -> tuple:
        """Positions (k1, k2) of every differential pair: k1 = 1..K and k2 its
        chain partner, the previous block head for an RS, its own for an NS."""
        k1 = np.arange(1, self.k_frame + 1)
        return k1, (k1 - 1) // self.l_block * self.l_block


@dataclass(frozen=True)
class EncodedFrame:
    """Encoded frame(s): K+1 transmitted samples per frame plus the info indices."""

    u: np.ndarray
    info: np.ndarray
    ref_mask: np.ndarray


def _phase_indices(info: np.ndarray, cfg: GdmFrameConfig) -> np.ndarray:
    """Cumulative 0-based phase index of every transmitted sample.

    Works along the last axis of ``info`` (..., K) and returns (..., K+1) in
    info's dtype.  Position 0 carries phase 0; position k1 carries the phase of
    its pair partner k2 plus its own offset.  Every k2 is a block head, whose
    phase is the running sum of the head offsets.  The sums wrap in info's dtype
    where that is exact mod M (M divides 2**bits), else in an int64 temporary.
    """
    exact = (1 << 8 * info.dtype.itemsize) % cfg.m == 0
    phase = np.empty(info.shape[:-1] + (cfg.k_frame + 1,), info.dtype if exact else np.int64)
    phase[..., 0] = 0
    np.subtract(info, 1, out=phase[..., 1:])  # offsets, turned into phases in place
    blocks = phase.reshape(info.shape[:-1] + (cfg.n_blocks, cfg.l_block))  # K+1 = blocks * L
    np.add.accumulate(blocks[..., 0], axis=-1, dtype=phase.dtype, out=blocks[..., 0])  # heads
    blocks[..., 1:] += blocks[..., :1]  # each normal symbol on its own block head
    phase -= cfg.m * (phase // cfg.m)  # phase %= m, but an int64 % costs ~2x the floor division
    return phase.astype(info.dtype, copy=False)


def _transmit_table(cfg: GdmFrameConfig) -> tuple:
    """The transmitted points a frame uses, ``points*sqrt(rho_r)`` then, at
    L > 1, ``points*sqrt(rho_n)``, and the (K+1,) row offset of each position
    into them: 0 at block heads, M elsewhere.  A sample is ``tx[rows + phase]``."""
    points = make_alphabet(cfg.m).points
    powers = (cfg.power.rho_r, cfg.power.rho_n)[:min(cfg.l_block, 2)]  # L=1 sends no NS
    tx = np.concatenate([points * np.sqrt(rho) for rho in powers])
    return tx, np.where(cfg.ref_mask(), 0, cfg.m)


def gdm_encode(info, cfg: GdmFrameConfig) -> EncodedFrame:
    """Differentially encode K information indices into K+1 samples.

    ``info`` holds 1-based alphabet indices for positions 1..K, either one
    frame (K,) or a stack of frames (..., K) encoded row by row into
    (..., K+1).  The sample at position 0 is the fixed initialization
    reference sqrt(rho_r).
    """
    info = np.asarray(info, dtype=np.int64)
    if info.ndim < 1 or info.shape[-1] != cfg.k_frame:
        raise ValueError(f"expected {cfg.k_frame} info symbols, got shape {info.shape}")
    if info.min(initial=cfg.m) < 1 or info.max(initial=1) > cfg.m:
        raise ValueError("info indices must lie in [1, M]")
    tx, rows = _transmit_table(cfg)
    u = tx.take(rows + _phase_indices(info, cfg))
    return EncodedFrame(u=u, info=info.copy(), ref_mask=cfg.ref_mask())


def noiseless_decode(frame: EncodedFrame, cfg: GdmFrameConfig) -> np.ndarray:
    """Exact inverse of :func:`gdm_encode` on a clean frame."""
    m = cfg.m
    phase = np.rint(np.angle(frame.u) * m / (2 * np.pi)).astype(np.int64) % m
    k1, k2 = cfg.pair_positions()
    return (phase[..., k1] - phase[..., k2]) % m + 1
