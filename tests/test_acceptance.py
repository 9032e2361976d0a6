"""End-to-end acceptance gate for the relay-network toolkit.

Each test covers one acceptance criterion and emits exactly one summary line
(CRITERION n: PASS/FAIL ...) on the real stdout, bypassing capture, so the
verdicts are visible in any pytest run.  Simulation-backed criteria use fixed
frame budgets and fixed seeds: quasi-static fading makes symbol errors bursty,
so error-target stopping would bias the estimates (see the repository notes).

Expected wall time for the whole file is roughly ten minutes, dominated by
the diversity-slope and SNR-gap measurements.
"""

import math

import numpy as np

from test_analysis import (
    eps_eta,
    quad_avg_error_free,
    quad_avg_erroneous,
)
from test_detectors import random_context

from gdmrelay import analysis
from gdmrelay.channel import substream
from gdmrelay.detectors import (
    OpCounter,
    count_ops,
    nmld_detect,
    nmld_detect_batch,
    pld_detect_batch,
)
from gdmrelay.harness import (
    ExperimentConfig,
    _point_epsilons,
    _simulate_batch_noncoherent,
    run_ser_experiment,
    wilson_interval,
)
from gdmrelay.modulation import GdmFrameConfig, gdm_encode, make_alphabet, noiseless_decode
from gdmrelay.power import optimize_power


VERDICTS = {}


def report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS[num] = line
    print(line)
    assert ok, line


def simulate_fixed(cfg, snr, frames, seed, batch=4000):
    """Fixed-frame-budget SER estimate with deterministic substreams."""
    eps = _point_epsilons(cfg, snr)
    errors = symbols = 0
    bi = 0
    while symbols < frames * cfg.k_frame:
        err = _simulate_batch_noncoherent(cfg, snr, eps, substream(seed, 0, bi), batch)
        errors += int(err.sum())
        symbols += err.size
        bi += 1
    return errors, symbols


# ---------------------------------------------------------------------------
# 1. power allocation optimum
# ---------------------------------------------------------------------------


def test_criterion_1_power_optimum():
    s2 = optimize_power(2)
    s8 = optimize_power(8)
    s256 = optimize_power(256)
    checks = [
        abs(s2.rho_r_star - 1.0) <= 1e-3,
        abs(s2.rho_n_star - 1.0) <= 1e-3,
        abs(s8.rho_n_star - 8 / (7 + math.sqrt(7))) <= 1e-12,
        abs(s8.rho_n_star - 0.830) <= 1e-3,
        abs(s256.rho_n_star - 0.945) <= 1e-3,
    ]
    report(1, all(checks),
           f"power split rho_n*: L=2 {s2.rho_n_star:.4f}, L=8 {s8.rho_n_star:.4f}, "
           f"L=256 {s256.rho_n_star:.4f} vs 1.000/0.830/0.945 (tol 1e-3)")


# ---------------------------------------------------------------------------
# 2. per-symbol operation counts
# ---------------------------------------------------------------------------


def test_criterion_2_operation_counts():
    # independent closed forms for each detector's per-symbol cost
    forms = {
        "amld": lambda m, n: (m * (9 * m * n - n + 7), m * (11 * m * n + 2 * n + 11),
                              m - 1, n * m),
        "pld": lambda m, n: ((m - 1) * (18 * n + 17), (m - 1) * (23 * n + 23),
                             (m - 1) * (2 * n + 1), 0),
        "nmld": lambda m, n: (m * (11 * n + 8), m * (11 * n + 11),
                              (m - 1) * (n + 1) + n * m, 0),
    }
    ok = True
    for kind, form in forms.items():
        for m in (2, 4, 8, 16):
            for n in (1, 2, 4, 12):
                c = count_ops(kind, m, n)
                got = (c.additions, c.multiplications, c.max_min_ops, c.exp_log_ops)
                ok &= got == form(m, n)

    amld = count_ops("amld", 8, 12).total
    nmld = count_ops("nmld", 8, 12).total
    saving = round(100.0 * (1 - nmld / amld), 2)
    ok &= amld == 15703 and nmld == 2451 and saving == 84.39

    # instrumented runs must tally to the closed form exactly
    for m, n in [(2, 1), (4, 2), (8, 12), (16, 4)]:
        ctx, _, alphabet = random_context(substream(202, m, n), m, n)
        counter = OpCounter()
        nmld_detect(ctx, alphabet, counter=counter)
        ok &= counter.snapshot() == count_ops("nmld", m, n)

    report(2, ok, f"count grid exact over M x N, totals {amld}/{nmld}, "
                  f"saving {saving:.2f}%, instrumented runs tally exactly")


# ---------------------------------------------------------------------------
# 3. detector equivalence on random instances
# ---------------------------------------------------------------------------


def test_criterion_3_detector_oracle_equivalence():
    rng = substream(33)
    total = agree = pld_total = pld_agree = 0
    for m, n, count in [(2, 1, 15000), (2, 3, 15000), (4, 1, 15000),
                        (4, 2, 20000), (8, 1, 10000), (8, 3, 25000)]:
        pts = make_alphabet(m).points
        g = 10 ** (15 / 10)

        def pair(size):
            h = math.sqrt(g / 2) * (rng.standard_normal(size)
                                    + 1j * rng.standard_normal(size))
            x = pts[rng.integers(0, m, size)]
            noise = math.sqrt(0.5) * (rng.standard_normal((2, size))
                                      + 1j * rng.standard_normal((2, size)))
            return h * x + noise[0], h + noise[1]

        y_sd1, y_sd2 = pair(count)
        y_rd = [pair(count) for _ in range(n)]
        eps = rng.uniform(1e-4, 0.2, n)
        etas = [2.0 * math.log((1 - e) * (m - 1) / e) for e in eps]
        scale = np.ones(count)
        eta_arr = np.array(etas)[:, None] * np.ones(count)

        got = nmld_detect_batch(y_sd1, y_sd2, [p[0] for p in y_rd],
                                [p[1] for p in y_rd],
                                scale, eta_arr, pts)

        # independent brute-force minimization of the capped-branch objective
        obj = np.abs(y_sd1[:, None] - y_sd2[:, None] * pts[None, :]) ** 2
        for i, (r1, r2) in enumerate(y_rd):
            f = np.abs(r1[:, None] - r2[:, None] * pts[None, :]) ** 2
            obj += np.minimum(f, f.min(axis=1, keepdims=True) + etas[i])
        want = obj.argmin(axis=1) + 1

        total += count
        agree += int((got == want).sum())

        if m == 2:
            pld = pld_detect_batch(y_sd1, y_sd2, [p[0] for p in y_rd],
                                   [p[1] for p in y_rd],
                                   scale, eta_arr, pts)
            pld_total += count
            pld_agree += int((pld == got).sum())

    ok = total == 100000 and agree == total and pld_agree == pld_total
    report(3, ok, f"branch-floor detector matches brute force on {agree}/{total} "
                  f"random instances; binary pairwise detector matches on "
                  f"{pld_agree}/{pld_total}")


# ---------------------------------------------------------------------------
# 4. max-sum approximation vs averaged-likelihood detection SER
# ---------------------------------------------------------------------------


def test_criterion_4_nmld_tracks_amld_ser():
    grid = [(10.0, 1500), (15.0, 3000), (20.0, 10000), (25.0, 60000)]
    ok = True
    worst_rel = 0.0
    min_errors = 10 ** 9
    for n in (1, 2):
        for snr, frames in grid:
            rates = {}
            for det in ("nmld", "amld"):
                cfg = ExperimentConfig(n_relays=n, m=4, k_frame=127, l_block=1,
                                       detector=det, snr_grid_db=(snr,),
                                       master_seed=21)
                rates[det] = simulate_fixed(cfg, snr, frames, 21)
            (e1, s1), (e2, s2) = rates["nmld"], rates["amld"]
            lo1, hi1 = wilson_interval(e1, s1)
            lo2, hi2 = wilson_interval(e2, s2)
            rel = abs(e1 / s1 - e2 / s2) / max(e1 / s1, e2 / s2)
            ok &= min(e1, e2) >= 100 and lo1 <= hi2 and lo2 <= hi1 and rel < 0.10
            worst_rel = max(worst_rel, rel)
            min_errors = min(min_errors, e1, e2)
    report(4, ok, f"N in {{1,2}} DQPSK over 10-25 dB: worst relative SER "
                  f"difference {worst_rel:.3f} (< 0.10), min errors per point "
                  f"{min_errors} (>= 100), all confidence intervals overlap")


# ---------------------------------------------------------------------------
# 5. closed-form SER vs simulation
# ---------------------------------------------------------------------------


def test_criterion_5_analytic_vs_simulated_ser():
    ok = True
    details = []

    # single relay, block-structured frame, semi-analytic fading average
    l, k = 16, 319
    b = (k + 1) // l
    w_r, w_n = (b - 1) / k, b * (l - 1) / k
    pa = optimize_power(l).as_allocation()
    rng = substream(123, 0)
    single = {2: [(10.0, 3000), (15.0, 6000), (20.0, 20000), (25.0, 240000)],
              4: [(10.0, 3000), (15.0, 6000), (20.0, 20000), (25.0, 60000)],
              8: [(10.0, 3000), (15.0, 6000), (20.0, 20000)]}
    for m, grid in single.items():
        for snr, frames in grid:
            g = 10 ** (snr / 10)
            eps = analysis.relay_epsilon(pa, l, g, m)
            logt = math.log((1 - eps) * (m - 1) / eps)
            gsd = rng.exponential(g, 20000)
            grd = rng.exponential(g, 20000)
            semi = 0.0
            for st, rho_t, w in (("R", pa.rho_r, w_r), ("N", pa.rho_n, w_n)):
                eta = (1 + rho_t / pa.rho_r) * logt
                vals = [analysis.ser_conditional_single(a, c, eps, eta, pa, m, st).value
                        for a, c in zip(gsd, grd)]
                semi += w * float(np.mean(vals))
            cfg = ExperimentConfig(n_relays=1, m=m, k_frame=k, l_block=l,
                                   detector="nmld", snr_grid_db=(snr,),
                                   master_seed=9)
            errors, symbols = simulate_fixed(cfg, snr, frames, 9)
            ratio = semi / (errors / symbols)
            ok &= 1 / 1.5 <= ratio <= 1.5
            details.append(f"M{m}@{snr:g}:{ratio:.2f}")

    # multiple relays, classical differential frame, Rayleigh-averaged forms
    pa1 = optimize_power(1).as_allocation()
    for n in (2, 3):
        for snr, frames in [(10.0, 4000), (15.0, 16000), (20.0, 60000)]:
            g = 10 ** (snr / 10)
            eps = analysis.relay_epsilon(pa1, 1, g, 4)
            eta = analysis.eta_threshold(eps, 4, 1.0, 1.0)
            pred = (analysis.ser_avg_error_free(n, 4, eps, eta, g)
                    + analysis.ser_avg_erroneous(n, 4, eps, eta, g))
            cfg = ExperimentConfig(n_relays=n, m=4, k_frame=127, l_block=1,
                                   detector="nmld", snr_grid_db=(snr,),
                                   master_seed=17)
            errors, symbols = simulate_fixed(cfg, snr, frames, 17)
            ratio = pred / (errors / symbols)
            ok &= 0.5 <= ratio <= 2.0
            details.append(f"N{n}@{snr:g}:{ratio:.2f}")

    report(5, ok, "analytic/simulated SER ratios " + " ".join(details)
                  + " (single relay within 1.5x, multi relay within 2x)")


# ---------------------------------------------------------------------------
# 6. diversity orders from simulated slopes
# ---------------------------------------------------------------------------


def run_slope(n, snrs, fpp, relay_mode="realistic", genie_r=0, sr_off=0.0,
              fit_tail=None):
    sers = []
    for pi, snr in enumerate(snrs):
        cfg = ExperimentConfig(n_relays=n, m=4, k_frame=127, l_block=1,
                               detector="nmld", relay_mode=relay_mode,
                               genie_r=genie_r, sr_offset_db=sr_off,
                               snr_grid_db=(float(snr),), master_seed=11)
        eps = _point_epsilons(cfg, snr)
        errors = symbols = 0
        bi = 0
        while symbols < fpp[pi] * 127:
            err = _simulate_batch_noncoherent(cfg, float(snr), eps,
                                              substream(11, pi, bi), 4000)
            errors += int(err.sum())
            symbols += err.size
            bi += 1
        sers.append(errors / symbols)
    t = fit_tail or len(snrs)
    return analysis.fit_diversity_slope(snrs[-t:], sers[-t:])


def test_criterion_6_diversity_slopes():
    long5 = [4000, 8000, 20000, 60000, 200000]
    mid4 = [8000, 20000, 60000, 200000]
    mid3 = [8000, 30000, 120000]
    cases = [
        # (label, target, slope); slopes fit the high-SNR tail of each sweep
        ("N=2", 2, run_slope(2, [10, 14, 18, 22, 26], long5, fit_tail=3)),
        ("N=3", 3, run_slope(3, [10, 14, 18, 22, 26], long5, fit_tail=3)),
        ("N=4 weak relay links", 3,
         run_slope(4, [14, 18, 22, 26], mid4, sr_off=-10.0)),
        ("N=2 all relays correct", 3,
         run_slope(2, [14, 18, 22, 26], mid4, relay_mode="genie-all")),
        ("N=3 r=0", 3, run_slope(3, [14, 18, 22], mid3,
                                 relay_mode="genie-r", genie_r=0)),
        ("N=3 r=1", 3, run_slope(3, [14, 18, 22], mid3,
                                 relay_mode="genie-r", genie_r=1)),
        ("N=3 r=2 weak relay links", 3,
         run_slope(3, [14, 18, 22], mid3, relay_mode="genie-r", genie_r=2,
                   sr_off=-5.0)),
        ("N=3 r=3", 4, run_slope(3, [15, 18, 21], [20000, 100000, 500000],
                                 relay_mode="genie-r", genie_r=3)),
    ]
    ok = all(abs(slope - target) <= 0.3 for _, target, slope in cases)
    detail = " ".join(f"{lab}:{slope:.2f}/{t}" for lab, t, slope in cases)
    report(6, ok, f"fitted SER slopes vs targets (tol 0.3): {detail}")


# ---------------------------------------------------------------------------
# 7. SNR gap to the coherent baseline
# ---------------------------------------------------------------------------


def gap_curve(detector, l_block):
    grid = [(26, 30000), (28, 40000), (30, 60000), (32, 80000)]
    sers = []
    for snr, frames in grid:
        cfg = ExperimentConfig(n_relays=1, m=4, k_frame=511, l_block=l_block,
                               detector=detector, snr_grid_db=(float(snr),),
                               min_errors=10 ** 9, max_frames=frames,
                               master_seed=13)
        sers.append(run_ser_experiment(cfg).points[0].ser)
    return [g[0] for g in grid], sers


def snr_at(snrs, sers, target=1e-5):
    logs = [math.log10(s) for s in sers]
    lt = math.log10(target)
    for i in range(len(snrs) - 1):
        if logs[i] >= lt >= logs[i + 1]:
            f = (logs[i] - lt) / (logs[i] - logs[i + 1])
            return snrs[i] + f * (snrs[i + 1] - snrs[i])
    return float("nan")


def test_criterion_7_coherent_gap():
    # all three curves share channel draws (same seed and substream keys),
    # which keeps the horizontal gap stable despite bursty frame errors
    x_co = snr_at(*gap_curve("coherent", 1))
    x_gdm = snr_at(*gap_curve("nmld", 256))
    x_dm = snr_at(*gap_curve("nmld", 1))
    gap_gdm = x_gdm - x_co
    gap_dm = x_dm - x_co
    ok = gap_gdm <= 1.0 and 2.5 <= gap_dm <= 3.5
    report(7, ok, f"single relay QPSK at SER 1e-5: block-256 gap "
                  f"{gap_gdm:.2f} dB (<= 1.0), classical-differential gap "
                  f"{gap_dm:.2f} dB (band 3.0 +- 0.5; measured value exceeds "
                  f"the band at this SER level, see notes/decisions ledger)")


# ---------------------------------------------------------------------------
# 8. closed forms vs quadrature of their defining integrals
# ---------------------------------------------------------------------------


def test_criterion_8_closed_form_self_consistency():
    ok = True
    worst_free = worst_err = 0.0
    for n in (1, 2, 3):
        for snr in (10.0, 20.0, 30.0):
            g = 10 ** (snr / 10)
            eps, eta = eps_eta(4, g)
            free = analysis.ser_avg_error_free(n, 4, eps, eta, g)
            qfree = quad_avg_error_free(n, 4, eps, eta, g, g)
            rel = abs(free - qfree) / qfree
            worst_free = max(worst_free, rel)
            ok &= rel <= 1e-3

            err = analysis.ser_avg_erroneous(n, 4, eps, eta, g)
            qerr = quad_avg_erroneous(n, 4, eps, eta, g)
            rel = abs(err - qerr) / qerr
            worst_err = max(worst_err, rel)
            ok &= rel <= 1e-2

    # Bessel-function checks: recurrence and leading asymptotic behavior
    for x in (0.5, 2.0, 20.0):
        for v in (1, 2, 3):
            lhs = analysis.bessel_k(v + 1, x)
            rhs = analysis.bessel_k(v - 1, x) + 2 * v / x * analysis.bessel_k(v, x)
            ok &= abs(lhs - rhs) / rhs <= 1e-8
    for v in (0, 1, 2):
        x = 100.0
        asym = (math.sqrt(math.pi / (2 * x)) * math.exp(-x)
                * (1 + (4 * v * v - 1) / (8 * x)))
        ok &= abs(analysis.bessel_k(v, x) - asym) / asym <= 0.01

    report(8, ok, f"averaged closed forms vs quadrature: worst relative error "
                  f"{worst_free:.2e} (error-free, tol 1e-3) / {worst_err:.2e} "
                  f"(erroneous, tol 1e-2); Bessel recurrence 1e-8 and "
                  f"asymptotics 1% hold")


# ---------------------------------------------------------------------------
# 9. encoding invariants
# ---------------------------------------------------------------------------


def test_criterion_9_encoding_invariants():
    rng = substream(99)
    combos = [(2, 31, 1), (2, 15, 16), (4, 31, 8), (4, 63, 16), (4, 31, 32),
              (8, 15, 4), (8, 31, 16), (16, 31, 8), (16, 15, 2), (4, 255, 256)]
    frames = power_ok = roundtrip_ok = 0
    for m, k, l in combos:
        pa = optimize_power(l, p_s=1.0).as_allocation()
        cfg = GdmFrameConfig(k_frame=k, l_block=l, m=m, power=pa)
        for _ in range(1000):
            info = rng.integers(1, m + 1, size=k)
            frame = gdm_encode(info, cfg)
            frames += 1
            if abs(float(np.mean(np.abs(frame.u) ** 2)) - 1.0) <= 1e-9:
                power_ok += 1
            if np.array_equal(noiseless_decode(frame, cfg), info):
                roundtrip_ok += 1
    ok = frames == 10000 and power_ok == frames and roundtrip_ok == frames
    report(9, ok, f"{frames} random frames: power constraint within 1e-9 on "
                  f"{power_ok}, exact noiseless round-trip on {roundtrip_ok}")
