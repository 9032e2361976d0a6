"""The three benchmark workloads: what one pass runs and how it is checked.

A pass runs every sweep or closed-form evaluation of a workload once and
returns one outcome per operation.  An operation is one SNR point of one
sweep, or one closed-form evaluation point.  Inputs depend only on the seed,
so every pass of a run does identical work and gives identical outcomes.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from gdmrelay import analysis, harness, power
from gdmrelay.detectors import count_ops

# Two keyed 256-frame batches per point, so per-batch and per-point work differ.
MC_FRAMES = 2 * harness.BATCH_FRAMES
# Above any point's symbol count: only the frame budget ends a point.
NEVER_STOP = 10**12
ERROR = "error"      # the operation raised or returned a non-finite value
REFUSED = "refused"  # analyze refuses the point (relay error rate >= 1/2)

# semi-analytic fading average of acceptance criterion 5 (single relay)
COND_L, COND_K = 16, 319
COND_M = (2, 4, 8)
COND_SNR_DB = (10.0, 15.0, 20.0, 25.0)
COND_SAMPLES = 1000
# the `gdmrelay analyze` call sequence over a dense grid
AVG_N = tuple(range(1, 7))
AVG_M = (2, 4, 8)
AVG_SNR_DB = tuple(0.25 * i for i in range(121))  # 0:0.25:30 dB


@dataclass
class PassResult:
    outcomes: dict  # op id -> outcome; dropped once checked
    part_s: dict = field(default_factory=lambda: defaultdict(float))
    work: dict = field(default_factory=lambda: defaultdict(int))
    frames: int = 0


def _report(op: str, exc: BaseException):
    print(f"operation {op} failed:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


class MonteCarlo:
    """Fixed-budget SER sweeps through ``harness.run_ser_experiment``.

    Parts are detector kinds; work is information symbols decided.
    """

    fixed_parts = ()  # parts whose outcomes do not depend on the seed

    def __init__(self, sweeps):
        self.sweeps = sweeps

    @staticmethod
    def op_id(cfg, snr_db) -> str:
        return f"{cfg.detector}.L{cfg.l_block}@{snr_db:g}"

    def warm_up(self):
        for cfg in self.sweeps:
            harness.run_ser_experiment(
                replace(cfg, snr_grid_db=cfg.snr_grid_db[:1], max_frames=8))

    def model_ops(self) -> dict:
        """Model operation count (count_ops total x symbols) per kind and pass."""
        ops = defaultdict(int)
        for cfg in self.sweeps:
            if cfg.detector in ("nmld", "amld", "pld"):
                per_symbol = count_ops(cfg.detector, cfg.m, cfg.n_relays).total
                ops[cfg.detector] += per_symbol * MC_FRAMES * cfg.k_frame * len(cfg.snr_grid_db)
        return ops

    def run_pass(self) -> PassResult:
        res = PassResult(outcomes={})
        for cfg in self.sweeps:
            ids = [self.op_id(cfg, s) for s in cfg.snr_grid_db]
            t0 = time.perf_counter()
            try:
                sim = harness.run_ser_experiment(cfg)
            except Exception as exc:  # count the sweep's points as failed, keep running
                _report(ids[0], exc)
                res.outcomes.update(dict.fromkeys(ids, ERROR))
                continue
            res.part_s[cfg.detector] += time.perf_counter() - t0
            for op, p in zip(ids, sim.points):
                ok = math.isfinite(p.ser)
                res.outcomes[op] = [p.symbols, p.errors] if ok else ERROR
                res.work[cfg.detector] += p.symbols
                res.frames += p.symbols // cfg.k_frame
        return res


class ClosedForm:
    """The ``analysis`` layer alone: no channel draws, no detectors.

    Parts are ``conditional`` (work: ``ser_conditional_single`` calls) and
    ``averaged`` (work: analyze grid points).
    """

    fixed_parts = ("averaged",)

    def __init__(self, seed: int):
        self.pa_cond = power.optimize_power(COND_L).as_allocation()
        self.pa_avg = power.optimize_power(1).as_allocation()
        # sampled instantaneous link SNRs; the only seed-dependent input
        self.samples = {}
        for m in COND_M:
            rng = np.random.default_rng([seed, m])
            for snr in COND_SNR_DB:
                g = 10.0 ** (snr / 10.0)
                self.samples[m, snr] = (rng.exponential(g, COND_SAMPLES).tolist(),
                                        rng.exponential(g, COND_SAMPLES).tolist())

    def warm_up(self):
        self._conditional(COND_M[0], COND_SNR_DB[0], 1)
        self._averaged(AVG_N[0], AVG_M[0], AVG_SNR_DB[-1])

    def _conditional(self, m, snr, n_samples=COND_SAMPLES) -> float:
        """Criterion 5's semi-analytic SER: symbol-type weighted fading average."""
        pa = self.pa_cond
        b = (COND_K + 1) // COND_L
        weights = {"R": (b - 1) / COND_K, "N": b * (COND_L - 1) / COND_K}
        g_sd, g_rd = self.samples[m, snr]
        eps = analysis.relay_epsilon(pa, COND_L, 10.0 ** (snr / 10.0), m)
        log_term = math.log((1 - eps) * (m - 1) / eps)
        semi = 0.0
        for st, rho_t in (("R", pa.rho_r), ("N", pa.rho_n)):
            eta = (1 + rho_t / pa.rho_r) * log_term
            vals = [analysis.ser_conditional_single(a, c, eps, eta, pa, m, st).value
                    for a, c in zip(g_sd[:n_samples], g_rd[:n_samples])]
            semi += weights[st] * math.fsum(vals) / n_samples
        return semi

    def _averaged(self, n, m, snr):
        """One `gdmrelay analyze` grid point; REFUSED where eta_threshold refuses."""
        pa = self.pa_avg
        g = 10.0 ** (snr / 10.0)
        eps = analysis.relay_epsilon(pa, 1, g, m)
        try:
            eta = analysis.eta_threshold(max(eps, 1e-12), m, pa.rho_r, pa.rho_r)
        except ValueError:
            if eps >= 0.5:  # the refusal that makes analyze exit 3
                return REFUSED
            raise
        pc = analysis.ser_avg_error_free(n, m, eps, eta, g)
        pe = analysis.ser_avg_erroneous(n, m, eps, eta, g)
        return min(pc + pe, 1.0)

    def run_pass(self) -> PassResult:
        res = PassResult(outcomes={})
        for part, labels, points, evaluate, work in (
                ("conditional", "M", [(m, s) for m in COND_M for s in COND_SNR_DB],
                 self._conditional, 2 * COND_SAMPLES),
                ("averaged", "NM", [(n, m, s) for m in AVG_M for n in AVG_N for s in AVG_SNR_DB],
                 self._averaged, 1)):
            t0 = time.perf_counter()
            for point in points:
                op = f"{part}." + ".".join(f"{k}{v:g}" for k, v in zip(labels, point[:-1])) \
                    + f"@{point[-1]:g}"
                try:
                    value = evaluate(*point)
                except Exception as exc:  # count the point as failed, keep running
                    _report(op, exc)
                    value = ERROR
                if isinstance(value, float) and not math.isfinite(value):
                    value = ERROR
                res.outcomes[op] = value
                res.work[part] += work
            res.part_s[part] += time.perf_counter() - t0
        return res

    def model_ops(self) -> dict:
        return {}


def _sweep(seed, **kw):
    return harness.ExperimentConfig(master_seed=seed, max_frames=MC_FRAMES,
                                    min_errors=NEVER_STOP, workers=1, **kw)


def build(name: str, seed: int):
    """Construct a workload's inputs from the seed."""
    if name == "dm-relays":
        # classical DM, three realistic relays: the shape of criteria 4-6, figs 8a/9
        return MonteCarlo([
            _sweep(seed, n_relays=3, m=4, k_frame=127, l_block=1, detector=kind,
                   snr_grid_db=(10, 14, 18, 22, 26))
            for kind in ("nmld", "amld", "pld")])
    if name == "gdm-long":
        # one relay, long frames: the L>1 encoder and the coherent path (criterion 7, fig 5a);
        # 20 dB records errors at every seed, where 26-32 dB can record none
        grid = (20, 26, 28, 30, 32)
        return MonteCarlo([
            _sweep(seed, n_relays=1, m=4, k_frame=511, l_block=256, detector="nmld",
                   snr_grid_db=grid),
            _sweep(seed, n_relays=1, m=4, k_frame=511, l_block=1, detector="coherent",
                   snr_grid_db=grid)])
    if name == "closed-form":
        return ClosedForm(seed)
    raise ValueError(f"unknown workload {name!r}")
