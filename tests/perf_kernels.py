"""Microbenchmarks of the batch detection kernels and of whole batches (pytest-benchmark).

The kernel benchmarks time one 256-frame batch of N=3 relays, M=4, K=127 at
18 dB through the kernels the harness's point plans bind (`_PointPlan.relay`
and each detector's `_PointPlan.decide`), with one reused workspace, as the
harness calls them.  The batch benchmarks time `harness._simulate_batch` at
the shapes of the two gated benchmark workloads and at one large-alphabet
shape (M=64), where the per-block score arrays grow with M, and record in
``extra_info`` the minor page faults per batch (``ru_minflt``), the bytes the
batch workspace holds and the traced peak bytes of one batch started from an
empty workspace, so allocator churn, footprint and the block size show.
The cold-start benchmark times ``import gdmrelay`` in fresh interpreters and
records the modules loaded and the peak RSS in ``extra_info``, so an
import-time regression shows.  The two-worker benchmark times a
`dm-relays`-shaped nmld sweep on two batch threads and records the peak RSS
of this process and of its children, so a pool that forks shows.  The file
name keeps it out of the default test run; run it with

    python3 -m pytest tests/perf_kernels.py --benchmark-only

`test_perf_file.py` runs it once with timing off, so it keeps up with the API.
"""

import dataclasses
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gdmrelay import harness
from gdmrelay.channel import substream

pytest.importorskip("pytest_benchmark")

N, M, K, FRAMES, SNR_DB = 3, 4, 127, harness.BATCH_FRAMES, 18.0


@pytest.fixture(scope="module")
def batch():
    cfg = harness.ExperimentConfig(n_relays=N, m=M, k_frame=K, l_block=1, detector="nmld",
                                   snr_grid_db=(SNR_DB,))
    plans = {kind: harness._point_plan(dataclasses.replace(cfg, detector=kind), SNR_DB)
             for kind in ("nmld", "amld", "pld")}
    plan = plans["nmld"]
    rng = substream(5, 0)
    gain = 10.0 ** (SNR_DB / 20.0)
    pairs = []
    step = len(plan.base)  # frames per compute block, the most one receive takes
    for _ in range(N + 1):
        phase = harness._encode_batch(plan, rng.integers(1, M + 1, size=(FRAMES, K)))
        h = gain * harness.complex_normal(rng, 1.0, FRAMES)
        y = harness.complex_normal(rng, 1.0, phase.shape)
        for lo in range(0, FRAMES, step):
            plan.receive(h[lo:lo + step], phase[lo:lo + step], y[lo:lo + step])
        pairs.append(plan.pairs(y, h))
    return plans, pairs


def test_relay(benchmark, batch):
    plans, pairs = batch
    benchmark(plans["nmld"].relay, *pairs[1], ws={})


@pytest.mark.parametrize("kind", ["nmld", "amld", "pld"])
def test_decide(benchmark, batch, kind):
    plans, (sd, *rd) = batch
    benchmark(plans[kind].decide, *sd, [p[0] for p in rd], [p[1] for p in rd], ws={})


# the sweeps of the gated benchmark workloads, at one of their SNR points, and a
# large-M shape, whose (M, frames, K) block scores show the block size
BATCH_SHAPES = {
    "dm-relays-nmld": dict(n_relays=3, k_frame=127, l_block=1, detector="nmld", snr=18.0),
    "dm-relays-amld": dict(n_relays=3, k_frame=127, l_block=1, detector="amld", snr=18.0),
    "dm-relays-pld": dict(n_relays=3, k_frame=127, l_block=1, detector="pld", snr=18.0),
    "gdm-long-nmld": dict(n_relays=1, k_frame=511, l_block=256, detector="nmld", snr=28.0),
    "gdm-long-coherent": dict(n_relays=1, k_frame=511, l_block=1, detector="coherent",
                              snr=28.0),
    "m64-pld": dict(n_relays=2, m=64, k_frame=127, l_block=1, detector="pld", snr=18.0),
}


@pytest.mark.parametrize("shape", BATCH_SHAPES)
def test_simulate_batch(benchmark, shape):
    kw = {"m": M} | BATCH_SHAPES[shape]
    snr = kw.pop("snr")
    cfg = harness.ExperimentConfig(snr_grid_db=(snr,), **kw)
    plan = harness._point_plan(cfg, snr)
    calls = 0

    def run():
        nonlocal calls
        calls += 1
        return harness._simulate_batch(cfg, plan, substream(0, 0, calls), FRAMES)

    vars(harness._SLOT).clear()
    tracemalloc.start()
    try:
        run()  # the first batch of a shape, from an empty workspace, fills it
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    calls = 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    benchmark(run)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    benchmark.extra_info["minor_faults_per_batch"] = faults / calls
    benchmark.extra_info["workspace_bytes"] = sum(b.nbytes for b in harness._SLOT.ws.values())
    benchmark.extra_info["first_batch_peak_bytes"] = peak


COLD_START = ("import json, resource, sys; import gdmrelay; print(json.dumps("
              "[len(sys.modules), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")


def test_cold_start(benchmark):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = benchmark.pedantic(subprocess.run, args=([sys.executable, "-c", COLD_START],),
                             kwargs=dict(capture_output=True, text=True, env=env, check=True),
                             rounds=10, warmup_rounds=1)
    modules, maxrss_kb = json.loads(out.stdout)
    benchmark.extra_info["modules"] = modules
    benchmark.extra_info["peak_rss_mb"] = maxrss_kb / 1024.0


def test_two_worker_sweep(benchmark):
    cfg = harness.ExperimentConfig(n_relays=N, m=M, k_frame=K, l_block=1, detector="nmld",
                                   snr_grid_db=(10.0, 14.0, 18.0, 22.0, 26.0),
                                   min_errors=10**12, max_frames=4 * FRAMES, workers=2)
    result = benchmark(harness.run_ser_experiment, cfg)
    assert [p.symbols for p in result.points] == [4 * FRAMES * K] * 5
    for who, name in ((resource.RUSAGE_SELF, "self"), (resource.RUSAGE_CHILDREN, "children")):
        benchmark.extra_info[f"peak_rss_mb_{name}"] = resource.getrusage(who).ru_maxrss / 1024.0
