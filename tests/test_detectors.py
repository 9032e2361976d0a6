import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdmrelay import detectors
from gdmrelay.channel import substream
from gdmrelay.detectors import (
    DetectionContext,
    OpCounter,
    amld_detect,
    amld_detect_batch,
    buffer,
    clamp_epsilon,
    count_ops,
    nmld_detect,
    nmld_detect_batch,
    pld_detect,
    pld_detect_batch,
    pld_pairwise_llr,
    relay_detect_batch,
    relay_reliability,
)
from gdmrelay.modulation import GdmFrameConfig, gdm_encode, make_alphabet
from gdmrelay.power import optimize_power


# ---------------------------------------------------------------------------
# oracles: independent brute-force implementations of the decision rules
# ---------------------------------------------------------------------------


def oracle_branch_floor(ctx, alphabet):
    """Brute-force minimization of the capped-branch objective.

    For each candidate x_s, the relay branch contributes
    min{F_n(x_s), min_{x_t} F_n(x_t) + eta_n}; add the direct distance and
    take the argmin.  Written without sharing code with the implementation.
    """
    m = alphabet.m
    best, best_val = None, math.inf
    for s in range(1, m + 1):
        xs = alphabet.point(s)
        y1, y2 = ctx.y_sd_pair
        val = abs(y1 - ctx.scale * y2 * xs) ** 2
        for (r1, r2), eta in zip(ctx.y_rd_pairs, ctx.etas):
            f_s = abs(r1 - ctx.scale * r2 * xs) ** 2
            f_min = min(abs(r1 - ctx.scale * r2 * alphabet.point(t)) ** 2
                        for t in range(1, m + 1))
            val += min(f_s, f_min + eta)
        if val < best_val:
            best, best_val = s, val
    return best


def oracle_branch_floor_exclusion(ctx, alphabet):
    """Brute-force branch floor with the wrong relay symbol kept apart.

    For each candidate x_s, the relay branch contributes
    min{F_n(x_s), min_{x_r != x_s} F_n(x_r) + eta_n}: a wrong relay decided
    some symbol other than x_s.  Written without sharing code with the
    implementation.
    """
    m = alphabet.m
    best, best_val = None, math.inf
    for s in range(1, m + 1):
        xs = alphabet.point(s)
        y1, y2 = ctx.y_sd_pair
        val = abs(y1 - ctx.scale * y2 * xs) ** 2
        for (r1, r2), eta in zip(ctx.y_rd_pairs, ctx.etas):
            f_s = abs(r1 - ctx.scale * r2 * xs) ** 2
            f_wrong = min(abs(r1 - ctx.scale * r2 * alphabet.point(r)) ** 2
                          for r in range(1, m + 1) if r != s)
            val += min(f_s, f_wrong + eta)
        if val < best_val:
            best, best_val = s, val
    return best


def oracle_averaged_ml(ctx, epsilons, alphabet):
    """Probability-domain averaged-ML decision (no log-space tricks).

    Likelihood of candidate x_s multiplies, per relay, the mixture
    (1-eps) * g(x_s) + eps/(M-1) * sum_{t != s} g(x_t) with Gaussian kernels
    g of variance 1 + scale^2 (unit noise on every link).
    """
    m = alphabet.m
    var = 1 + ctx.scale**2
    best, best_val = None, -math.inf
    for s in range(1, m + 1):
        xs = alphabet.point(s)
        y1, y2 = ctx.y_sd_pair
        val = math.exp(-abs(y1 - ctx.scale * y2 * xs) ** 2 / var)
        for (r1, r2), eps in zip(ctx.y_rd_pairs, epsilons):
            g = [math.exp(-abs(r1 - ctx.scale * r2 * alphabet.point(t)) ** 2 / var)
                 for t in range(1, m + 1)]
            mix = (1 - eps) * g[s - 1] + eps / (m - 1) * (sum(g) - g[s - 1])
            val *= mix
        if val > best_val:
            best, best_val = s, val
    return best


def relay_ctx(y1, y2, scale):
    """The relay's minimum-distance decision: `nmld_detect` with no relay pairs."""
    return DetectionContext(y_sd_pair=(y1, y2), y_rd_pairs=(), scale=scale)


def coherent_ctx(y, h, epsilons, m, amplitude=1.0):
    """The coherent baseline's input to `nmld_detect`: (y, h) pairs, scale the
    amplitude, eta the reliability term of each clamped rate."""
    etas = tuple(relay_reliability(clamp_epsilon(e), m) for e in epsilons)
    return DetectionContext((y[0], h[0]), tuple(zip(y[1:], h[1:])), amplitude, etas)


def random_context(rng, m, n, snr_db=15.0, scale=1.0):
    g = 10.0 ** (snr_db / 10.0)
    alphabet = make_alphabet(m)

    def pair():
        h = math.sqrt(g / 2) * complex(rng.standard_normal(), rng.standard_normal())
        x = alphabet.point(int(rng.integers(1, m + 1)))
        y2 = h + math.sqrt(0.5) * complex(rng.standard_normal(), rng.standard_normal())
        y1 = scale * h * x + math.sqrt(0.5) * complex(rng.standard_normal(),
                                                      rng.standard_normal())
        return (y1, y2)

    eps = [clamp_epsilon(float(rng.uniform(1e-4, 0.2))) for _ in range(n)]
    etas = [(1 + scale**2) * math.log((1 - e) * (m - 1) / e) for e in eps]
    ctx = DetectionContext(
        y_sd_pair=pair(), y_rd_pairs=tuple(pair() for _ in range(n)),
        scale=scale, etas=tuple(etas))
    return ctx, eps, alphabet


class TestRelayDetect:
    def test_noiseless_decision(self):
        a = make_alphabet(4)
        for t in range(1, 5):
            y2 = 0.8 - 0.3j
            y1 = y2 * a.point(t)
            assert nmld_detect(relay_ctx(y1, y2, 1.0), a) == t

    def test_scale_applied(self):
        a = make_alphabet(4)
        y2 = 1.0 + 0.5j
        y1 = 0.5 * y2 * a.point(3)
        assert nmld_detect(relay_ctx(y1, y2, 0.5), a) == 3

    def test_tie_breaks_low_index(self):
        a = make_alphabet(2)
        assert nmld_detect(relay_ctx(0.0, 0.0, 1.0), a) == 1


class TestBranchFloorDetector:
    @pytest.mark.parametrize("m,n", [(2, 1), (4, 1), (4, 3), (8, 2), (4, 0), (8, 0)])
    def test_matches_oracle(self, m, n):
        rng = substream(100, m, n)
        for _ in range(300):
            ctx, _, alphabet = random_context(rng, m, n)
            assert nmld_detect(ctx, alphabet) == oracle_branch_floor(ctx, alphabet)

    def test_exclusion_variant_equivalent(self):
        # keeping x_r != x_s inside the floor cannot change the decision for eta > 0
        rng = substream(101, 0)
        for _ in range(300):
            ctx, _, alphabet = random_context(rng, 4, 2)
            assert nmld_detect(ctx, alphabet) == oracle_branch_floor_exclusion(ctx, alphabet)

    def test_large_eta_ignores_floor(self):
        # with a huge threshold the detector reduces to joint min-distance
        rng = substream(102, 0)
        for _ in range(100):
            ctx, _, alphabet = random_context(rng, 4, 1)
            big = DetectionContext(
                y_sd_pair=ctx.y_sd_pair, y_rd_pairs=ctx.y_rd_pairs,
                scale=ctx.scale, etas=(1e9,))
            d = [abs(big.y_sd_pair[0] - big.y_sd_pair[1] * alphabet.point(t)) ** 2
                 + abs(big.y_rd_pairs[0][0] - big.y_rd_pairs[0][1] * alphabet.point(t)) ** 2
                 for t in range(1, 5)]
            assert nmld_detect(big, alphabet) == int(np.argmin(d)) + 1


class TestAveragedMlDetector:
    @pytest.mark.parametrize("m,n", [(2, 1), (4, 2), (8, 3)])
    def test_matches_probability_domain_oracle(self, m, n):
        rng = substream(103, m, n)
        for _ in range(300):
            ctx, eps, alphabet = random_context(rng, m, n)
            assert amld_detect(ctx, eps, alphabet) == oracle_averaged_ml(
                ctx, eps, alphabet)

    def test_stable_at_extreme_snr(self):
        # far-out samples must not overflow the mixture evaluation
        a = make_alphabet(4)
        ctx = DetectionContext(y_sd_pair=(300.0 + 0j, 300.0 + 0j),
                               y_rd_pairs=((300.0 + 0j, 300.0 + 0j),), scale=1.0)
        assert amld_detect(ctx, [1e-6], a) == 1


class TestPiecewiseLinearDetector:
    def test_equals_branch_floor_for_bpsk(self):
        rng = substream(104, 0)
        for _ in range(500):
            ctx, _, alphabet = random_context(rng, 2, int(rng.integers(1, 4)))
            assert pld_detect(ctx, alphabet) == nmld_detect(ctx, alphabet)

    def test_pairwise_llr_antisymmetric(self):
        rng = substream(105, 0)
        ctx, _, alphabet = random_context(rng, 4, 2)
        a = pld_pairwise_llr(ctx, 2, 3, alphabet)
        b = pld_pairwise_llr(ctx, 3, 2, alphabet)
        assert a == pytest.approx(-b, abs=1e-12)

    def test_noiseless_picks_truth(self):
        a = make_alphabet(8)
        for t in range(1, 9):
            y2 = 2.0 + 1.0j
            y1 = y2 * a.point(t)
            ctx = DetectionContext(y_sd_pair=(y1, y2),
                                   y_rd_pairs=((y1, y2),),
                                   scale=1.0, etas=(5.0,))
            assert pld_detect(ctx, a) == t


class TestCoherentBaseline:
    def test_noiseless_decision(self):
        a = make_alphabet(4)
        h_sd, h_rd = 0.7 - 0.2j, -0.3 + 1.1j
        for t in range(1, 5):
            x = a.point(t)
            assert nmld_detect(coherent_ctx(
                [h_sd * x, h_rd * x], [h_sd, h_rd], [1e-3], a.m), a) == t

    def test_unreliable_relay_branch_capped(self):
        # eps near 1/2 shrinks the penalty so a bad relay cannot flip the call
        a = make_alphabet(2)
        h = 1.0 + 0j
        y_sd = h * a.point(1) * 3.0
        y_rd = h * a.point(2) * 3.0
        assert nmld_detect(coherent_ctx(
            [y_sd, y_rd], [3.0 * h, 3.0 * h], [0.49], a.m), a) == 1

    def test_is_the_branch_floor_on_coherent_pairs(self):
        # (y, h) pairs with scale = amplitude and eta the bare reliability term of
        # the clamped rate; eps = 0 and eps >= 1/2 are clamped into (0, 1/2)
        rng = substream(108, 0)
        for _ in range(600):
            m, n = int(rng.integers(2, 9)), int(rng.integers(0, 4))
            a = make_alphabet(m)
            amp = float(rng.uniform(0.3, 2.0))
            h = [complex(*rng.standard_normal(2)) for _ in range(n + 1)]
            y = [amp * g * a.point(int(rng.integers(1, m + 1)))
                 + 0.5 * complex(*rng.standard_normal(2)) for g in h]
            eps = [float(rng.choice([0.0, 0.5, 0.6, rng.uniform(1e-4, 0.2)])) for _ in range(n)]
            etas = [math.log((1 - e) * (m - 1) / e) for e in map(clamp_epsilon, eps)]
            ctx = DetectionContext(y_sd_pair=(y[0], h[0]), y_rd_pairs=tuple(zip(y[1:], h[1:])),
                                   scale=amp, etas=tuple(etas))
            assert nmld_detect(coherent_ctx(y, h, eps, m, amp), a) == oracle_branch_floor(ctx, a)


class TestOperationCounts:
    # closed-form table rows: (m, n) -> (adds, mults, max/min, exp/log)
    CASES = {
        ("amld", 8, 12): (6872, 8728, 7, 96),
        ("pld", 8, 12): (1631, 2093, 175, 0),
        ("nmld", 8, 12): (1120, 1144, 187, 0),
    }

    @pytest.mark.parametrize("key,expected", CASES.items())
    def test_pinned_rows(self, key, expected):
        c = count_ops(*key)
        assert (c.additions, c.multiplications, c.max_min_ops, c.exp_log_ops) == expected

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown detector kind 'viterbi'"):
            count_ops("viterbi", 4, 2)

    def test_totals_and_saving(self):
        amld = count_ops("amld", 8, 12).total
        nmld = count_ops("nmld", 8, 12).total
        assert amld == 15703
        assert nmld == 2451
        assert round(100 * (1 - nmld / amld), 2) == 84.39

    def test_closed_form_totals(self):
        for m in (2, 4, 8, 16):
            for n in (1, 2, 4, 12):
                assert count_ops("amld", m, n).total == (20 * m * m + 2 * m) * n + 19 * m - 1
                assert count_ops("nmld", m, n).total == (24 * m - 1) * n + 20 * m - 1

    @pytest.mark.parametrize("m,n", [(2, 1), (4, 2), (8, 12), (16, 4)])
    def test_instrumented_run_matches_closed_form(self, m, n):
        rng = substream(106, m, n)
        ctx, _, alphabet = random_context(rng, m, n)
        counter = OpCounter()
        nmld_detect(ctx, alphabet, counter=counter)
        assert counter.snapshot() == count_ops("nmld", m, n)


class CountingNumpy:
    """numpy with every attribute forwarded; counts the elements passed to exp and log."""

    def __init__(self):
        self.elements = {"exp": 0, "log": 0}

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.elements:
            return attr

        def counted(x, *args, **kwargs):
            self.elements[name] += np.size(x)
            return attr(x, *args, **kwargs)
        return counted


class TestAmldBatchCost:
    """`amld_detect_batch`'s transcendental cost, counted rather than timed: the
    sum-over-u mixture takes M*N exp and M*N log per symbol, where the paper's
    formulation (`OP_COUNTS`, the scalar `amld_detect`) is O(M^2 N)."""

    @pytest.mark.parametrize("m", [2, 8, 64])
    @pytest.mark.parametrize("n", [1, 3])
    def test_m_times_n_exp_and_log_per_symbol(self, monkeypatch, m, n):
        rng = substream(108, m, n)
        shape = (4, 9)  # frames, symbols per frame

        def y(*relays):
            return rng.standard_normal((*relays, *shape)) + 1j * rng.standard_normal(
                (*relays, *shape))

        counting = CountingNumpy()
        monkeypatch.setattr(detectors, "np", counting)
        got = amld_detect_batch(y(), y(), y(n), y(n), np.full(9, 0.8), [0.01] * n,
                                make_alphabet(m).points, {})
        assert got.size == 36
        assert counting.elements == {"exp": m * n * 36, "log": m * n * 36}


class TestBatchEquivalence:
    @pytest.mark.parametrize("m,n", [(2, 1), (4, 2), (8, 3)])
    def test_batch_matches_scalar(self, m, n):
        rng = substream(107, m, n)
        k = 64
        ctxs = []
        epss = None
        for _ in range(k):
            ctx, eps, alphabet = random_context(rng, m, n)
            ctxs.append(ctx)
            epss = eps  # per-relay eps; reuse the last draw for the batch
        etas = ctxs[-1].etas
        # rebuild contexts sharing one (eps, eta) set so batch args are uniform
        ctxs = [DetectionContext(y_sd_pair=c.y_sd_pair, y_rd_pairs=c.y_rd_pairs, scale=1.0,
                                 etas=etas) for c in ctxs]
        y_sd1 = np.array([c.y_sd_pair[0] for c in ctxs])
        y_sd2 = np.array([c.y_sd_pair[1] for c in ctxs])
        y_rd1 = [np.array([c.y_rd_pairs[i][0] for c in ctxs]) for i in range(n)]
        y_rd2 = [np.array([c.y_rd_pairs[i][1] for c in ctxs]) for i in range(n)]
        pts = alphabet.points
        scale = np.ones(k)
        eta_arr = np.array(etas)[:, None] * np.ones(k)

        got = nmld_detect_batch(y_sd1, y_sd2, y_rd1, y_rd2, scale, eta_arr, pts)
        want = [nmld_detect(c, alphabet) for c in ctxs]
        assert got.tolist() == want

        got = amld_detect_batch(y_sd1, y_sd2, y_rd1, y_rd2, scale, epss, pts)
        want = [amld_detect(c, epss, alphabet) for c in ctxs]
        assert got.tolist() == want

        got = pld_detect_batch(y_sd1, y_sd2, y_rd1, y_rd2, scale, eta_arr, pts)
        want = [pld_detect(c, alphabet) for c in ctxs]
        assert got.tolist() == want

    @pytest.mark.parametrize("m,n,amplitude", [(2, 1, 0.7), (4, 2, 1.3), (8, 3, 2.1)])
    def test_coherent_pairs_match_scalar_baseline(self, m, n, amplitude):
        # the coherent baseline is the branch-floor kernel on (y, h) pairs
        rng = substream(109, m, n)
        alphabet = make_alphabet(m)
        f, k = 40, 9

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        info = rng.integers(1, m + 1, size=(f, k))
        tx = amplitude * alphabet.points[info - 1]
        h_sd, h_rd = 3.0 * cn(f), [2.0 * cn(f) for _ in range(n)]
        y_sd = h_sd[:, None] * tx + cn(f, k)
        y_rd = [h[:, None] * tx + cn(f, k) for h in h_rd]
        eps = [clamp_epsilon(float(rng.uniform(1e-3, 0.3))) for _ in range(n)]
        etas = [math.log((1 - e) * (m - 1) / e) for e in eps]

        got = nmld_detect_batch(y_sd, h_sd[:, None], y_rd, [h[:, None] for h in h_rd],
                                1.0, etas, amplitude * alphabet.points)
        want = [[nmld_detect(coherent_ctx([y_sd[i, j], *(y[i, j] for y in y_rd)],
                                          [h_sd[i], *(h[i] for h in h_rd)], eps, m,
                                          amplitude), alphabet)
                 for j in range(k)] for i in range(f)]
        assert got.tolist() == want

    def test_relay_batch_matches_scalar(self):
        rng = substream(108, 0)
        alphabet = make_alphabet(8)
        y1 = (rng.standard_normal(50) + 1j * rng.standard_normal(50))
        y2 = (rng.standard_normal(50) + 1j * rng.standard_normal(50))
        got = relay_detect_batch(y1, y2, np.full(50, 0.7), alphabet.points)
        want = [nmld_detect(relay_ctx(a, b, 0.7), alphabet) for a, b in zip(y1, y2)]
        assert got.tolist() == want


class TestBatchTieRule:
    """With y2 = 0 every alphabet point scores alike, so every batch kernel
    returns index 1 for every symbol, as the scalar references do."""

    @pytest.mark.parametrize("m,n", [(2, 1), (4, 3), (8, 2)])
    def test_zero_reference_gives_index_one(self, m, n):
        rng = substream(111, m, n)
        alphabet = make_alphabet(m)
        f, k = 8, 5

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        zero = np.zeros((f, k), complex)
        scale = np.where(np.arange(k) % 2 == 0, 1.0, 0.6)
        eps = [clamp_epsilon(float(rng.uniform(1e-3, 0.3))) for _ in range(n)]
        log_terms = np.array([math.log((1 - e) * (m - 1) / e) for e in eps])
        etas = log_terms[:, None] * (1 + scale**2)
        y_sd1, y_rd1 = cn(f, k), [cn(f, k) for _ in range(n)]
        args = (y_sd1, zero, y_rd1, [zero] * n, scale)
        ones = np.ones((f, k), np.int64)
        np.testing.assert_array_equal(relay_detect_batch(y_sd1, zero, scale, alphabet.points),
                                      ones)
        np.testing.assert_array_equal(nmld_detect_batch(*args, etas, alphabet.points), ones)
        np.testing.assert_array_equal(amld_detect_batch(*args, eps, alphabet.points), ones)
        np.testing.assert_array_equal(pld_detect_batch(*args, etas, alphabet.points), ones)
        h0 = np.zeros((f, 1), complex)  # coherent pairs with a zero fading coefficient
        got = nmld_detect_batch(y_sd1, h0, y_rd1, [h0] * n, 1.0, log_terms,
                                1.5 * alphabet.points)
        np.testing.assert_array_equal(got, ones)

        for j in range(k):
            ctx = DetectionContext(y_sd_pair=(y_sd1[0, j], 0j),
                                   y_rd_pairs=tuple((y[0, j], 0j) for y in y_rd1),
                                   scale=scale[j], etas=tuple(etas[:, j]))
            assert nmld_detect(relay_ctx(y_sd1[0, j], 0j, scale[j]), alphabet) == 1
            assert nmld_detect(ctx, alphabet) == 1
            assert amld_detect(ctx, eps, alphabet) == 1
            assert pld_detect(ctx, alphabet) == 1
            assert nmld_detect(coherent_ctx([y_sd1[0, j], *(y[0, j] for y in y_rd1)],
                                            [0j] * (n + 1), eps, m, 1.5), alphabet) == 1


class TestExtremeSnr:
    """The batch kernels equal the scalar references far outside the working
    range, with every numpy warning raised as an error."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("snr_db", [-30.0, 90.0])
    def test_batch_matches_scalar(self, snr_db):
        m, n = 8, 3
        rng = substream(112, int(snr_db) + 100)
        alphabet = make_alphabet(m)
        f, k = 24, 8
        g = 10.0 ** (snr_db / 10.0)

        def cn(*shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

        scale = np.where(np.arange(k) % 4 == 0, 1.0, 0.6)

        def link():
            h = math.sqrt(g) * cn(f, 1)
            x = alphabet.points[rng.integers(0, m, size=(f, k))]
            return scale * h * x + cn(f, k), h + cn(f, k), h

        (y_sd1, y_sd2, h_sd), rd = link(), [link() for _ in range(n)]
        eps = [clamp_epsilon(float(rng.uniform(1e-3, 0.3))) for _ in range(n)]
        log_terms = np.array([math.log((1 - e) * (m - 1) / e) for e in eps])
        etas = log_terms[:, None] * (1 + scale**2)
        args = (y_sd1, y_sd2, [y[0] for y in rd], [y[1] for y in rd], scale)
        batch = {"relay": relay_detect_batch(rd[0][0], rd[0][1], scale, alphabet.points),
                 "nmld": nmld_detect_batch(*args, etas, alphabet.points),
                 "amld": amld_detect_batch(*args, eps, alphabet.points),
                 "pld": pld_detect_batch(*args, etas, alphabet.points),
                 "coherent": nmld_detect_batch(y_sd1, h_sd, [y[0] for y in rd],
                                               [y[2] for y in rd], 1.0, log_terms,
                                               alphabet.points)}
        for i in range(f):
            for j in range(k):
                ctx = DetectionContext(y_sd_pair=(y_sd1[i, j], y_sd2[i, j]),
                                       y_rd_pairs=tuple((y[0][i, j], y[1][i, j]) for y in rd),
                                       scale=scale[j], etas=tuple(etas[:, j]))
                want = {"relay": nmld_detect(relay_ctx(rd[0][0][i, j], rd[0][1][i, j], scale[j]),
                                             alphabet),
                        "nmld": nmld_detect(ctx, alphabet),
                        "amld": amld_detect(ctx, eps, alphabet),
                        "pld": pld_detect(ctx, alphabet),
                        "coherent": nmld_detect(coherent_ctx(
                            [y_sd1[i, j], *(y[0][i, j] for y in rd)],
                            [h_sd[i, 0], *(y[2][i, 0] for y in rd)], eps, m), alphabet)}
                for kind, value in want.items():
                    assert batch[kind][i, j] == value, (kind, i, j)


class TestBatchProperty:
    """Every batch kernel equals its scalar reference over random frame shapes
    (M, L, K, N) and SNRs, extremes included.  The kernels share one workspace
    and run on the whole batch, on a strided sub-batch and on the whole batch
    again, so buffers are replaced and reused between calls."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([2, 4, 8, 16]), l=st.sampled_from([1, 2, 4, 8]),
           blocks=st.integers(2, 4), n=st.integers(0, 4), frames=st.integers(1, 3),
           snr_db=st.one_of(st.sampled_from([-30.0, 90.0]), st.floats(-30.0, 90.0)),
           amplitude=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_scalar(self, m, l, blocks, n, frames, snr_db, amplitude, seed):
        rng = np.random.default_rng(seed)
        alphabet = make_alphabet(m)
        fc = GdmFrameConfig(k_frame=blocks * l - 1, l_block=l, m=m,
                            power=optimize_power(l).as_allocation())
        k1, k2 = fc.pair_positions()
        scale = np.where(fc.ref_mask()[k1], 1.0, fc.power.ns_scale)
        g = 10.0 ** (snr_db / 10.0)

        def cn(*shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

        def link(u):
            h = math.sqrt(g) * cn(frames, 1)
            return h * u + cn(*u.shape), h

        u = gdm_encode(rng.integers(1, m + 1, size=(frames, fc.k_frame)), fc).u
        diff = [link(u) for _ in range(n + 1)]
        pairs = [(y[:, k1], y[:, k2]) for y, _ in diff]
        coh = [link(amplitude * alphabet.points[rng.integers(0, m, size=(frames, fc.k_frame))])
               for _ in range(n + 1)]
        eps = [clamp_epsilon(float(rng.uniform(1e-4, 0.3))) for _ in range(n)]
        log_terms = np.array([math.log((1 - e) * (m - 1) / e) for e in eps])
        etas = log_terms[:, None] * (1 + scale**2)

        def run(ws, cut):
            """Every kernel on symbols ``cut``, results copied out of ``ws``."""
            p = [(a[:, cut], b[:, cut]) for a, b in pairs]
            args = (*p[0], [a for a, _ in p[1:]], [b for _, b in p[1:]], scale[cut])
            calls = {"relay": lambda: relay_detect_batch(*p[-1], scale[cut], alphabet.points, ws),
                     "nmld": lambda: nmld_detect_batch(*args, etas[:, cut], alphabet.points, ws),
                     "amld": lambda: amld_detect_batch(*args, eps, alphabet.points, ws),
                     "pld": lambda: pld_detect_batch(*args, etas[:, cut], alphabet.points, ws),
                     "coherent": lambda: nmld_detect_batch(
                         coh[0][0][:, cut], coh[0][1], [y[:, cut] for y, _ in coh[1:]],
                         [h for _, h in coh[1:]], 1.0, log_terms,
                         amplitude * alphabet.points, ws)}
            return {kind: call().copy() for kind, call in calls.items()}  # the next call reuses ws

        ws = {}
        whole = run(ws, slice(None))
        part = run(ws, slice(None, None, 2))
        again = run(ws, slice(None))
        for i in range(frames):
            for j in range(fc.k_frame):
                ctx = DetectionContext(y_sd_pair=(pairs[0][0][i, j], pairs[0][1][i, j]),
                                       y_rd_pairs=tuple((a[i, j], b[i, j]) for a, b in pairs[1:]),
                                       scale=scale[j], etas=tuple(etas[:, j]))
                want = {"relay": nmld_detect(relay_ctx(pairs[-1][0][i, j], pairs[-1][1][i, j],
                                                       scale[j]), alphabet),
                        "nmld": nmld_detect(ctx, alphabet),
                        "amld": amld_detect(ctx, eps, alphabet),
                        "pld": pld_detect(ctx, alphabet),
                        "coherent": nmld_detect(coherent_ctx(
                            [y[i, j] for y, _ in coh], [h[i, 0] for _, h in coh], eps, m,
                            amplitude), alphabet)}
                for kind, value in want.items():
                    assert whole[kind][i, j] == value, (kind, i, j)
                    assert again[kind][i, j] == value, (kind, i, j)
                    if j % 2 == 0:
                        assert part[kind][i, j // 2] == value, (kind, i, j)


class TestRelayKernelIsBranchFloor:
    """The relay kernel is the branch-floor kernel with no relay branches, bit
    for bit, at zero references and far outside the working SNR range."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([2, 3, 4, 8, 16, 64]), k=st.integers(1, 40),
           frames=st.integers(1, 4), zero_share=st.sampled_from([0.0, 0.3, 1.0]),
           snr_db=st.one_of(st.sampled_from([-30.0, 90.0]), st.floats(-30.0, 90.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_relay_batch_is_nmld_batch_without_relays(self, m, k, frames, zero_share,
                                                       snr_db, seed):
        rng = np.random.default_rng(seed)
        points = make_alphabet(m).points
        g = 10.0 ** (snr_db / 10.0)

        def cn(*shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

        h = math.sqrt(g) * cn(frames, 1)
        y1 = h * points[rng.integers(0, m, size=(frames, k))] + cn(frames, k)
        y2 = np.where(rng.random((frames, k)) < zero_share, 0j, h + cn(frames, k))
        scale = np.where(rng.random(k) < 0.5, 1.0, float(rng.uniform(0.2, 1.5)))
        got = relay_detect_batch(y1, y2, scale, points)
        want = nmld_detect_batch(y1, y2, [], [], scale, np.empty((0, k)), points)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestBuffer:
    def test_remake_drops_the_old_array_first(self):
        # a held 2 MiB buffer remade to another shape: the old array goes before
        # the new one is made, so the traced peak does not rise by another 2 MiB
        tracemalloc.start()
        try:
            ws = {}
            buffer(ws, "b", (256, 512), complex)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            new = buffer(ws, "b", (512, 256), complex)
            rise = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert ws["b"] is new and new.shape == (512, 256)
        assert rise < 2**16


class TestClampEpsilon:
    def test_limits(self):
        assert clamp_epsilon(0.0) == 1e-12
        assert clamp_epsilon(0.9) == pytest.approx(0.5 - 1e-12)
        assert clamp_epsilon(0.01) == 0.01

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="epsilon"):
            clamp_epsilon(math.nan)
        y = np.ones((1, 3), complex)
        with pytest.raises(ValueError, match="epsilon"):
            amld_detect_batch(y, y, [y], [y], 1.0, [math.nan], make_alphabet(4).points)
