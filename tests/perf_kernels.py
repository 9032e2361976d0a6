"""Microbenchmarks of the batch detection kernels (pytest-benchmark).

One 256-frame batch of N=3 relays, M=4, K=127, with the pair layout, scales
and thresholds the harness builds at 18 dB.  The file name keeps it out of
the default test run; run it with

    python3 -m pytest tests/perf_kernels.py --benchmark-only
"""

import numpy as np
import pytest

from gdmrelay import detectors, harness
from gdmrelay.channel import substream

pytest.importorskip("pytest_benchmark")

N, M, K, FRAMES, SNR_DB = 3, 4, 127, harness.BATCH_FRAMES, 18.0


@pytest.fixture(scope="module")
def batch():
    cfg = harness.ExperimentConfig(n_relays=N, m=M, k_frame=K, l_block=1, detector="nmld",
                                   snr_grid_db=(SNR_DB,))
    plan = harness._point_plan(cfg, SNR_DB)
    rng = substream(5, 0)
    gain = np.sqrt(10.0 ** (SNR_DB / 10.0))
    pairs = []
    for _ in range(N + 1):
        h = gain * harness.complex_normal(rng, 1.0, size=(FRAMES, 1))
        u = plan.encode(rng.integers(1, M + 1, size=(FRAMES, K)))
        pairs.append(plan.pairs(h * u + harness.complex_normal(rng, 1.0, size=u.shape), None))
    args = (*pairs[0], [p[0] for p in pairs[1:]], [p[1] for p in pairs[1:]],
            1.0, (1.0,) * N, plan.scale)
    return plan, pairs, args


def test_relay(benchmark, batch):
    plan, pairs, _ = batch
    benchmark(detectors.relay_detect_batch, *pairs[1], plan.scale, plan.points)


def test_nmld(benchmark, batch):
    plan, _, args = batch
    benchmark(detectors.nmld_detect_batch, *args, plan.etas, plan.points)


def test_amld(benchmark, batch):
    plan, _, args = batch
    benchmark(detectors.amld_detect_batch, *args, plan.epsilons, plan.points)


def test_pld(benchmark, batch):
    plan, _, args = batch
    benchmark(detectors.pld_detect_batch, *args, plan.etas, plan.points)
