"""Monte Carlo engine for full-frame SER experiments.

Simulates source encoding, quasi-static fading, relay detection and
re-encoding, and destination detection for every point of an SNR sweep,
accumulating symbol error counts until a stop rule is met.

One pipeline (`_simulate_batch`) serves the differential schemes and the
coherent reference.  `_point_plan` builds an SNR point's invariants once and is
the one branch on the scheme, the rule and the relay mode: it fixes the relay
error rates, the thresholds and the kernels, bound with their per-point
arguments (`_PointPlan.relay` for the relays `.decides` flags, and `.decide`).
The encoder and the detector pairs (`_PointPlan.pairs`) read the scheme from it.

A batch draws the info symbols and the fading, then runs one stage per link in
draw order (S-D, then S-R_i and R-D_i per relay): it draws the link's noise
(nothing else draws it) and, per frame block, forms y in the noise from the
compact alphabet indices sent on the link, through the plan's one table of
transmitted points (`_PointPlan.receive` consumes only the noise).  The S-D
stage keeps the source's indices, which the S-R_i stages receive too.  Relay
i decides every block before its R-D_i noise is drawn into its S-R_i buffer,
and then re-encodes (a genie forwards the source's indices).  The destination
then decides; it holds only the N + 1 received signals, info, the decisions,
the fading and one block's kernel arrays.  A block (`_block_frames`, read from
the plan) has at most ``BLOCK_SYMBOLS`` = 8,192 samples, so its (M, frames, K)
score slabs, pair products and y slices stay near a core's 2 MiB L2; a smaller
block pays more in per-block calls than its arrays save (`BENCH_20.json`).
Chunked draws (the info symbols into the smallest unsigned dtype for M, the
noise through a block-sized scratch) are the same stream.

Each point runs in batches of ``BATCH_FRAMES`` frames (the last one may be
shorter), in waves of ``workers`` batches: with ``workers > 1`` a wave runs in
a thread pool, and the next wave starts only when the stop rule still
holds.  Batch counts are accumulated in batch-index order and the point stops
at the first batch that reaches ``min_errors``, mid-wave if need be.

Workspace rule: one workspace per thread, a dict of named buffers, holds only
the noise of the N + 1 links the destination receives (its only batch-sized
buffers; relay-only draws S-D and S-R_1 into one), the block-sized draw
scratch and the detector kernels' arrays, which cost minor page faults when made
fresh (measured in CHANGES.md).  Encoded
indices are plain arrays.  A named buffer keeps its last shape; when a batch
needs another, `detectors.buffer` drops it and makes it anew.  Nothing reads a
buffer before writing it.  `run_ser_experiment` drops the workspace on return;
each pool thread fills its own, which is freed when the thread exits at the
pool's shutdown.  Nothing returned aliases a workspace.

Reproducibility contract: random draws are keyed by
(master_seed, point_index, batch_index) with a fixed frame-batch size, so
results are bit-identical across runs and across worker counts.  Frames
inside a batch are simulated jointly as arrays for speed; the compute
blocks change no draw and no decision.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import pathlib
import threading
import time
from dataclasses import dataclass, asdict

import numpy as np

from gdmrelay import analysis, detectors
from gdmrelay.channel import complex_normal, db_to_linear, substream
from gdmrelay.detectors import OP_COUNTS, buffer, clamp_epsilon, count_ops, relay_reliability
from gdmrelay.modulation import (GdmFrameConfig, PowerAllocation, _count, _finite_positive,
                                 _phase_indices, _transmit_table, make_alphabet)
from gdmrelay.power import optimize_power

__all__ = [
    "ExperimentConfig",
    "PointResult",
    "SimResult",
    "wilson_interval",
    "run_ser_experiment",
    "reproduce_figure",
    "write_csv",
    "write_json",
    "FIGURE_PRESETS",
]

DETECTOR_KINDS = (*OP_COUNTS, "coherent", "relay-only")
RELAY_MODES = ("realistic", "genie-all", "genie-r")
BATCH_FRAMES = 256  # fixed rng keying unit; do not change between runs
BLOCK_SYMBOLS = 1 << 13  # samples per compute block: near L2 (`BENCH_20.json`)
_SLOT = threading.local()  # this thread's batch workspace: .ws


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one SER sweep.  The counts must be integers, and the
    link SNRs, p_s and rho_n finite and > 0; ValueError names a value that is not."""

    n_relays: int
    m: int
    k_frame: int
    l_block: int
    detector: str
    snr_grid_db: tuple
    relay_mode: str = "realistic"
    genie_r: int = 0
    sr_offset_db: float = 0.0
    rd_offset_db: float = 0.0
    rho_n: float | None = None  # None -> closed-form optimum for L
    p_s: float = 1.0
    min_errors: int = 100
    max_frames: int = 10**6
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(v) for v in self.snr_grid_db))
        if self.detector not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.relay_mode not in RELAY_MODES:
            raise ValueError(f"unknown relay mode {self.relay_mode!r}")
        _count(1 if self.detector == "relay-only" else 0, n_relays=self.n_relays)
        _count(0, self.n_relays if self.relay_mode == "genie-r" else 0, genie_r=self.genie_r)
        _count(1, k_frame=self.k_frame, l_block=self.l_block, min_errors=self.min_errors,
               max_frames=self.max_frames, workers=self.workers)
        _count(2, m=self.m)
        _count(0, master_seed=self.master_seed)
        if self.rho_n is not None and self.l_block == 1:
            raise ValueError(f"L=1 has no normal symbols: rho_n must not be set, got {self.rho_n}")
        if self.detector == "coherent" and self.l_block != 1:
            raise ValueError("the coherent reference has no block structure: "
                             f"l_block must be 1, got {self.l_block}")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("SNR grid must be strictly increasing")
        for snr_db in self.snr_grid_db:
            g_sd, g_sr, g_rd = self.link_snrs(snr_db)
            _finite_positive(gamma_sd_bar=g_sd, gamma_sr_bar=g_sr, gamma_rd_bar=g_rd)
        self.frame_config()  # validate the powers and the K/L split early

    def power_allocation(self) -> PowerAllocation:
        if self.rho_n is None:
            return optimize_power(self.l_block, self.p_s).as_allocation()
        l, rho_n = self.l_block, self.rho_n
        return PowerAllocation(rho_r=l * self.p_s - (l - 1) * rho_n, rho_n=rho_n, p_s=self.p_s)

    def frame_config(self) -> GdmFrameConfig:
        return GdmFrameConfig(k_frame=self.k_frame, l_block=self.l_block,
                              m=self.m, power=self.power_allocation())

    def link_snrs(self, snr_db: float) -> tuple:
        """Linear (S-D, S-R, R-D) average SNRs of grid point ``snr_db``; every
        relay has the one S-R and the one R-D SNR, and the noise is unit."""
        return (db_to_linear(snr_db), db_to_linear(snr_db + self.sr_offset_db),
                db_to_linear(snr_db + self.rd_offset_db))


@dataclass(frozen=True)
class PointResult:
    snr_db: float
    symbols: int
    errors: int
    ser: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class SimResult:
    points: tuple
    config: ExperimentConfig
    elapsed_s: float
    ops_per_symbol: int | None

    def sers(self) -> np.ndarray:
        return np.array([p.ser for p in self.points])


def wilson_interval(errors: int, n: int, z: float = 1.959964) -> tuple:
    """95% Wilson score interval for an error proportion; valid at small counts."""
    _count(0, n=n)
    _count(0, n, errors=errors)
    _finite_positive(z=z)
    if n == 0:
        return (0.0, 1.0)
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == n else min(center + half, 1.0)
    return (lo, hi)


# ---------------------------------------------------------------------------
# per-point plan and the batch simulator
# ---------------------------------------------------------------------------


def _point_epsilons(cfg: ExperimentConfig, snr_db: float) -> list[float]:
    """Average relay error rates assumed by the destination: those of `_point_plan`."""
    return list(_point_plan(cfg, snr_db).epsilons)


@dataclass(frozen=True)
class _PointPlan:
    """Invariants of one SNR point, built once by `_point_plan` and shared by every batch.

    ``frame`` is None for the coherent reference; ``snrs`` are `ExperimentConfig.link_snrs`,
    ``epsilons`` the relay error rates the destination assumes and ``etas`` the branch-floor
    thresholds per relay (`analysis.eta_threshold` per pair, or `relay_reliability` if
    coherent).  ``relay`` (`detectors.relay_detect_batch`, run by relay i if ``decides[i]``;
    relay-only flags relay 1 alone) and ``decide`` (the destination's kernel, None for
    relay-only) have all but their pairs and workspace bound: the scale, points, and ε or η.
    Stages carry alphabet indices (`_encode_batch`).  ``tx`` is the table of transmitted
    points (`modulation._transmit_table`; the points if coherent), and ``base[f, k]`` is
    ``f * tx.size`` plus position k's row offset (0 if coherent): the index of frame f's
    sample k in a block's table h*tx.  Its frame count is the block size.  ``k2`` is the
    pair partners: the slice 0..K-1 at L=1, so y[k2] gathers only at L > 1.
    """

    snrs: tuple
    frame: GdmFrameConfig | None
    tx: np.ndarray
    base: np.ndarray
    k2: np.ndarray | slice | None
    epsilons: tuple
    etas: np.ndarray
    decides: tuple
    relay: functools.partial
    decide: functools.partial | None

    def receive(self, h: np.ndarray, phase: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """y = h*u + ``noise`` for the samples u of alphabet indices ``phase``
        (at most a block of frames), formed in ``noise``; it consumes only ``noise``."""
        noise += (h[:, None] * self.tx).take(self.base[:len(h)] + phase)  # the bits of h*u
        return noise

    def pairs(self, y: np.ndarray, h: np.ndarray) -> tuple:
        """Detector pairs of y: (y, h) when coherent, else (y[k1], y[k2])."""
        return (y, h[:, None]) if self.frame is None else (y[:, 1:], y[:, self.k2])


def _point_plan(cfg: ExperimentConfig, snr_db: float, epsilons=None) -> _PointPlan:
    """The plan of one SNR point; ``epsilons``, if given, replaces the relay error rates."""
    snrs, points = cfg.link_snrs(snr_db), make_alphabet(cfg.m).points
    relay_only = cfg.detector == "relay-only"  # relay 1 decides, genie mode or not
    if cfg.detector == "coherent":  # the branch-floor rule on (y, h) pairs
        fc, k2, scale, rows = None, None, 1.0, np.zeros(cfg.k_frame, int)
        tx = points = math.sqrt(cfg.p_s) * points
        rate = functools.partial(analysis.coherent_mpsk_rayleigh_ser, cfg.p_s * snrs[1], cfg.m)
        eta, kernel = functools.partial(relay_reliability, m=cfg.m), detectors.nmld_detect_batch
    else:
        fc = cfg.frame_config()
        k2 = slice(0, cfg.k_frame) if cfg.l_block == 1 else fc.pair_positions()[1]
        scale = np.where(fc.ref_mask()[1:], 1.0, fc.power.ns_scale)  # sqrt(rho_t/rho_r) per pair
        tx, rows = _transmit_table(fc)
        rate = functools.partial(analysis.relay_epsilon, fc.power, cfg.l_block, snrs[1], cfg.m)
        eta = functools.partial(analysis.eta_threshold, m=cfg.m, rho_t=scale**2, rho_r=1.0)
        kernel = None if relay_only else getattr(detectors, f"{cfg.detector}_detect_batch")
    if epsilons is None:
        epsilons = [clamp_epsilon(rate())] * cfg.n_relays if cfg.n_relays else ()
    epsilons, etas = tuple(epsilons), np.array([eta(e) for e in epsilons])
    bound = {"epsilons": epsilons} if kernel is detectors.amld_detect_batch else {"etas": etas}
    decide = kernel and functools.partial(kernel, scale=scale, points=points, **bound)
    relay = functools.partial(detectors.relay_detect_batch, scale=scale, points=points)
    forced = {"genie-all": cfg.n_relays, "genie-r": cfg.genie_r}.get(cfg.relay_mode, 0)
    decides = (True,) if relay_only else tuple(i >= forced for i in range(cfg.n_relays))
    base = np.arange(_block_frames(cfg.k_frame))[:, None] * tx.size + rows
    return _PointPlan(snrs, fc, tx, base, k2, epsilons, etas, decides, relay, decide)


def _block_frames(k_frame: int) -> int:
    """Frames per compute block: the largest power of two that divides
    ``BATCH_FRAMES`` and keeps a block within ``BLOCK_SYMBOLS`` samples, or 1."""
    fit = max(BLOCK_SYMBOLS // (k_frame + 1), 1)
    return min(BATCH_FRAMES & -BATCH_FRAMES, 1 << fit.bit_length() - 1)


def _encode_batch(plan: _PointPlan, info: np.ndarray) -> np.ndarray:
    """The alphabet indices a link sends for (F, K) info indices, in info's dtype."""
    return info - 1 if plan.frame is None else _phase_indices(info, plan.frame)


def _draw_info(rng: np.random.Generator, m: int, shape: tuple) -> np.ndarray:
    """``rng.integers(1, m + 1, size=shape)``, the same values and generator state,
    drawn in chunks of ``BLOCK_SYMBOLS`` into the smallest unsigned dtype for m."""
    info = np.empty(math.prod(shape), np.min_scalar_type(m))
    for lo in range(0, info.size, BLOCK_SYMBOLS):
        chunk = info[lo:lo + BLOCK_SYMBOLS]
        chunk[:] = rng.integers(1, m + 1, size=chunk.size)
    return info.reshape(shape)


def _simulate_batch(cfg: ExperimentConfig, plan: _PointPlan,
                    rng: np.random.Generator, n_frames: int) -> np.ndarray:
    """Simulate ``n_frames`` frames at one SNR point; returns the (F, K)
    boolean symbol-error mask (True = symbol error)."""
    n = cfg.n_relays
    ws = vars(_SLOT).setdefault("ws", {})

    info = _draw_info(rng, cfg.m, (n_frames, cfg.k_frame))
    g_sd, g_sr, g_rd = plan.snrs  # fading: S-D, then S-R_i, then R-D_i
    h = [complex_normal(rng, v, size=n_frames) for v in (g_sd, *(g_sr,) * n, *(g_rd,) * n)]
    h_sd, h_sr, h_rd = h[0], h[1:n + 1], h[n + 1:]
    relay_only = plan.decide is None  # relay-only: no destination
    step, width = plan.base.shape  # frames per block, samples per frame
    shape = (n_frames, width)
    blocks = [slice(lo, lo + step) for lo in range(0, n_frames, step)]
    scratch = buffer(ws, "scratch", (step * shape[1],))
    # y[0] is S-D and y[i + 1] S-R_i, then R-D_i; relay-only draws S-D and S-R_1 into one
    y = [buffer(ws, ("noise", 0 if relay_only else j), shape, complex) for j in range(n + 1)]
    phase = np.empty(shape, info.dtype)  # the source's alphabet indices, sent on S-D and S-R_i
    det = np.empty(info.shape, info.dtype)  # one relay's decisions, then the destination's

    complex_normal(rng, 1.0, out=y[0], scratch=scratch)  # S-D
    for b in blocks:
        phase[b] = _encode_batch(plan, info[b])
        if not relay_only:
            plan.receive(h_sd[b], phase[b], y[0][b])
    for i, decides in enumerate(plan.decides):  # relay i decides before R-D_i takes its buffer
        complex_normal(rng, 1.0, out=y[i + 1], scratch=scratch)  # S-R_i
        for b in blocks if decides else ():
            y_sr = plan.receive(h_sr[i][b], phase[b], y[i + 1][b])
            det[b] = plan.relay(*plan.pairs(y_sr, h_sr[i][b]), ws=ws)
        if relay_only:
            return det != info
        complex_normal(rng, 1.0, out=y[i + 1], scratch=scratch)  # R-D_i
        for b in blocks:  # a genie forwards the source's indices
            plan.receive(h_rd[i][b], _encode_batch(plan, det[b]) if decides else phase[b],
                         y[i + 1][b])
    del phase  # nothing is kept past its last use

    for b in blocks:
        sd, *rd = (plan.pairs(y_j[b], h_j[b]) for y_j, h_j in zip(y, (h_sd, *h_rd)))
        det[b] = plan.decide(*sd, [p[0] for p in rd], [p[1] for p in rd], ws=ws)
    return det != info


def _simulate_batch_noncoherent(cfg, snr_db, epsilons, rng, n_frames):
    """`_simulate_batch` with the destination's relay error rates given."""
    return _simulate_batch(cfg, _point_plan(cfg, snr_db, epsilons), rng, n_frames)


def _run_batch(cfg: ExperimentConfig, plan: _PointPlan, point_index: int,
               batch_index: int) -> tuple:
    """(errors, symbols) of one batch; only the last batch of a point is short."""
    n_frames = min(BATCH_FRAMES, cfg.max_frames - batch_index * BATCH_FRAMES)
    err = _simulate_batch(cfg, plan, substream(cfg.master_seed, point_index, batch_index),
                          n_frames)
    return int(err.sum()), err.size


def _run_point(cfg: ExperimentConfig, point_index: int, mapper) -> PointResult:
    plan = _point_plan(cfg, cfg.snr_grid_db[point_index])
    run = functools.partial(_run_batch, cfg, plan, point_index)
    n_batches = -(-cfg.max_frames // BATCH_FRAMES)
    step = cfg.workers
    # waves of `step` batches, chained lazily: a wave is mapped only once the
    # one before it is used up without meeting the stop rule
    counts = itertools.chain.from_iterable(
        mapper(run, range(i, min(i + step, n_batches))) for i in range(0, n_batches, step))
    errors = symbols = 0
    for e, s in counts:
        errors += e
        symbols += s
        if errors >= cfg.min_errors:
            break
    ser = errors / symbols if symbols else 0.0
    lo, hi = wilson_interval(errors, symbols)
    return PointResult(snr_db=cfg.snr_grid_db[point_index], symbols=symbols,
                       errors=errors, ser=ser, ci_lo=lo, ci_hi=hi)


def run_ser_experiment(cfg: ExperimentConfig) -> SimResult:
    """Run the full SNR sweep with the configured stop rule."""
    t0 = time.perf_counter()
    try:
        if cfg.workers == 1:
            points = tuple(_run_point(cfg, i, map) for i in range(len(cfg.snr_grid_db)))
        else:
            from concurrent.futures import ThreadPoolExecutor

            # one thread per queued batch, at most one per usable CPU; results do not depend on it
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=min(cfg.workers, cpus)) as pool:
                points = tuple(_run_point(cfg, i, pool.map) for i in range(len(cfg.snr_grid_db)))
    finally:
        vars(_SLOT).clear()
    elapsed = time.perf_counter() - t0
    ops = (count_ops(cfg.detector, cfg.m, cfg.n_relays).total
           if cfg.detector in OP_COUNTS and cfg.n_relays >= 1 else None)
    return SimResult(points=points, config=cfg, elapsed_s=elapsed, ops_per_symbol=ops)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _config_echo(cfg: ExperimentConfig) -> dict:
    return asdict(cfg) | {"snr_grid_db": list(cfg.snr_grid_db)}


def write_csv(result: SimResult, path):
    """One row per SNR point, preceded by a config-echo comment header."""
    with open(path, "w", newline="") as fh:
        for key, val in sorted(_config_echo(result.config).items()):
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "symbols", "errors", "ser", "ci_lo", "ci_hi"])
        for p in result.points:
            writer.writerow([p.snr_db, p.symbols, p.errors,
                             f"{p.ser:.8e}", f"{p.ci_lo:.8e}", f"{p.ci_hi:.8e}"])


def write_json(result: SimResult, path):
    payload = {
        "config": _config_echo(result.config),
        "elapsed_s": result.elapsed_s,
        "ops_per_symbol": result.ops_per_symbol,
        "points": [asdict(p) for p in result.points],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_gnuplot(result: SimResult, path):
    """Two-column (snr_db, ser) plot data."""
    with open(path, "w") as fh:
        fh.write(f"# detector={result.config.detector} n={result.config.n_relays} "
                 f"m={result.config.m} l={result.config.l_block}\n")
        for p in result.points:
            fh.write(f"{p.snr_db:g} {p.ser:.8e}\n")


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def _curve(scale: str, seed: int, **overrides) -> ExperimentConfig:
    """One figure curve: the shared defaults with ``overrides`` applied and, at
    desk scale, the frame budget capped at 20,000."""
    kw = dict(n_relays=1, m=4, k_frame=127, l_block=1, detector="nmld",
              snr_grid_db=tuple(range(0, 35, 5)), master_seed=seed, max_frames=100000)
    kw.update(overrides)
    if scale == "desk":
        kw["max_frames"] = min(kw["max_frames"], 20000)
    return ExperimentConfig(**kw)


def _preset_fig3(scale, seed):
    """Single-relay block-differential sweep, three modulation orders."""
    return {f"m{m}": _curve(scale, seed, m=m, k_frame=319, l_block=16) for m in (2, 4, 8)}


def _preset_fig4b(scale, seed):
    """SER against the normal-symbol power split at two SNRs."""
    return {f"L{l}_snr{int(snr)}_rho{rho_n:.3f}": _curve(
                scale, seed, k_frame=511, l_block=l, snr_grid_db=(snr,), rho_n=rho_n,
                max_frames=50000)
            for l in (8, 256) for snr in (10.0, 20.0)
            for rho_n in [round(0.1 * i, 2) for i in range(1, 10)] + [
                optimize_power(l).rho_n_star]}


def _preset_fig5a(scale, seed):
    """Block-length sweep with the coherent reference as a lower bound."""
    runs = {f"L{l}": _curve(scale, seed, k_frame=511, l_block=l) for l in (1, 8, 64, 256)}
    runs["coherent"] = _curve(scale, seed, k_frame=511, detector="coherent")
    return runs


def _preset_fig6(scale, seed):
    """8-DPSK with N parallel relays, relay links 10 dB above the direct one."""
    return {f"n{n}": _curve(scale, seed, n_relays=n, m=8, sr_offset_db=10.0, rd_offset_db=10.0)
            for n in (2, 3, 4, 6)}


def _preset_fig8a(scale, seed):
    return {f"n{n}_{det}": _curve(scale, seed, n_relays=n, detector=det)
            for n in (2, 3) for det in ("nmld", "amld")}


def _preset_fig8b(scale, seed):
    return {f"r{r}": _curve(scale, seed, n_relays=3, relay_mode="genie-r", genie_r=r)
            for r in (0, 1, 2, 3)}


def _preset_fig9(scale, seed):
    return {f"n{n}_{name}": _curve(scale, seed, n_relays=n, detector=det)
            for n in (2, 3)
            for name, det in (("noncoherent", "nmld"), ("coherent", "coherent"))}


FIGURE_PRESETS = {
    "fig3": _preset_fig3,
    "fig4b": _preset_fig4b,
    "fig5a": _preset_fig5a,
    "fig6": _preset_fig6,
    "fig8a": _preset_fig8a,
    "fig8b": _preset_fig8b,
    "fig9": _preset_fig9,
}

# operation-count figures: the (x, M, N) points of each detector-cost sweep
OPCOUNT_FIGURES = {
    "fig4a": [(m, m, 1) for m in (2, 4, 8, 16)],
    "fig5b": [(n, 8, n) for n in range(1, 13)],
}

FIGURE_IDS = sorted(FIGURE_PRESETS | OPCOUNT_FIGURES)


def reproduce_figure(figure_id: str, scale: str = "desk", out_dir=None,
                     master_seed: int = 0) -> dict:
    """Run a figure preset; returns {curve_name: SimResult}.

    The operation-count figures (``OPCOUNT_FIGURES``) run no simulation and
    return no results; their data files are written when ``out_dir`` is given.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")
    _count(0, master_seed=master_seed)
    if scale not in ("desk", "full"):
        raise ValueError("scale must be 'desk' or 'full'")
    out = pathlib.Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    if figure_id in OPCOUNT_FIGURES:
        if out is not None:
            with open(out / f"{figure_id}_opcounts.dat", "w") as fh:
                fh.write(f"# x {' '.join(OP_COUNTS)} (total ops per symbol)\n")
                for x, m, n in OPCOUNT_FIGURES[figure_id]:
                    totals = (count_ops(kind, m, n).total for kind in OP_COUNTS)
                    fh.write(f"{x} {' '.join(map(str, totals))}\n")
        return {}

    runs = FIGURE_PRESETS[figure_id](scale, master_seed)
    results = {}
    for name, cfg in runs.items():
        results[name] = res = run_ser_experiment(cfg)
        if out is not None:
            write_csv(res, out / f"{figure_id}_{name}.csv")
            write_json(res, out / f"{figure_id}_{name}.json")
            write_gnuplot(res, out / f"{figure_id}_{name}.dat")
    return results
