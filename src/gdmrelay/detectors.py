"""Symbol detectors for the non-coherent DF relay network.

All destination detectors work on differential sample pairs (y[k1], y[k2])
per link, at the positions `GdmFrameConfig.pair_positions` gives.  The pair
scale is 1 for a reference symbol and sqrt(rho_n/rho_r) for a normal symbol.
The detectors assume unit noise on every link, the link model of `channel`.

Scalar functions (`relay_detect`, `nmld_detect`, ...) are the reference
implementations used by the oracle tests; the `*_batch` variants vectorize
the same decisions over arrays of symbols and are what the Monte Carlo
harness calls.  Ties always break toward the lowest alphabet index.

The relay, nmld and amld batch kernels decide on correlation scores
Re(y1*conj(y2)*conj(x_t)), one real (M, ..., K) array per link with the
alphabet axis leading, not on distances (derivation in the batch section).

The coherent baseline is the branch-floor rule on (y, h) pairs (sample and
known fading coefficient) with eta = `relay_reliability`: `nmld_detect` with
scale the amplitude, or `nmld_detect_batch` with the points times it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gdmrelay.modulation import PskAlphabet

__all__ = [
    "DetectionContext",
    "OpCount",
    "OpCounter",
    "relay_detect",
    "nmld_detect",
    "amld_detect",
    "pld_detect",
    "pld_pairwise_llr",
    "coherent_baseline_detect",
    "relay_reliability",
    "count_ops",
    "relay_detect_batch",
    "nmld_detect_batch",
    "amld_detect_batch",
    "pld_detect_batch",
    "buffer",
]

EPSILON_FLOOR = 1e-12
EPSILON_CEIL = 0.5 - 1e-12


def clamp_epsilon(epsilon: float) -> float:
    """Keep a relay error rate strictly inside (0, 1/2) so eta stays finite."""
    return min(max(float(epsilon), EPSILON_FLOOR), EPSILON_CEIL)


def relay_reliability(epsilon: float, m: int) -> float:
    """Relay-reliability term log((1-eps)(M-1)/eps) behind every branch threshold."""
    return math.log((1 - epsilon) * (m - 1) / epsilon)


@dataclass(frozen=True)
class DetectionContext:
    """Per-symbol received pairs and side information at the destination.

    ``scale`` is sqrt(rho_t/rho_r) for the symbol type being detected and
    ``etas`` holds the per-relay wrong-relay penalty thresholds (already
    evaluated for this symbol type).
    """

    y_sd_pair: tuple
    y_rd_pairs: tuple
    scale: float
    etas: tuple = ()

    @property
    def n_relays(self) -> int:
        return len(self.y_rd_pairs)


# ---------------------------------------------------------------------------
# operation accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpCount:
    additions: int
    multiplications: int
    max_min_ops: int
    exp_log_ops: int

    @property
    def total(self) -> int:
        return self.additions + self.multiplications + self.max_min_ops + self.exp_log_ops


def count_ops(kind: str, m: int, n: int) -> OpCount:
    """Closed-form per-symbol operation counts for each detector.

    AMLD totals to (20M^2+2M)N + 19M - 1 and the low-complexity detector
    (branch min-floor form) to (24M-1)N + 20M - 1.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    kind = kind.lower()
    if kind == "amld":
        return OpCount(m * (9 * m * n - n + 7), m * (11 * m * n + 2 * n + 11),
                       m - 1, n * m)
    if kind == "pld":
        return OpCount((m - 1) * (18 * n + 17), (m - 1) * (23 * n + 23),
                       (m - 1) * (2 * n + 1), 0)
    if kind == "nmld":
        return OpCount(m * (11 * n + 8), m * (11 * n + 11),
                       (m - 1) * (n + 1) + n * m, 0)
    raise ValueError(f"unknown detector kind {kind!r}")


class OpCounter:
    """Run-time tally of arithmetic in an instrumented detection.

    Cost model per event (real operations): a direct-link pair distance is
    8 additions + 11 multiplications; a relay-branch pair distance is
    10 additions + 11 multiplications (the two extra additions cover the
    amortized threshold updates of the branch floor); folding one branch
    term into a candidate total is 1 addition; every pairwise min/max
    comparison is 1 op.  The per-event weights are calibrated so that one
    full detection tallies exactly to :func:`count_ops`.
    """

    __slots__ = ("additions", "multiplications", "max_min_ops", "exp_log_ops")

    def __init__(self):
        self.additions = 0
        self.multiplications = 0
        self.max_min_ops = 0
        self.exp_log_ops = 0

    def direct_distance(self, count: int = 1):
        self.additions += 8 * count
        self.multiplications += 11 * count

    def branch_distance(self, count: int = 1):
        self.additions += 10 * count
        self.multiplications += 11 * count

    def accumulate(self, count: int = 1):
        self.additions += count

    def min_op(self, count: int = 1):
        self.max_min_ops += count

    def snapshot(self) -> OpCount:
        return OpCount(self.additions, self.multiplications,
                       self.max_min_ops, self.exp_log_ops)


# ---------------------------------------------------------------------------
# scalar detectors
# ---------------------------------------------------------------------------


def _pair_distances(y1, y2, scale, points):
    """|y1 - scale*y2*x|^2 for every alphabet point."""
    return np.abs(y1 - scale * y2 * points) ** 2


def relay_detect(y_pair, scale: float, alphabet: PskAlphabet) -> int:
    """Minimum-distance detection of one differential pair; 1-based index."""
    d = _pair_distances(y_pair[0], y_pair[1], scale, alphabet.points)
    return int(np.argmin(d)) + 1


def nmld_detect(ctx: DetectionContext, alphabet: PskAlphabet,
                counter: OpCounter | None = None,
                keep_exclusion: bool = False) -> int:
    """Low-complexity destination detection with per-branch min floors.

    Precomputes per-branch per-symbol distances F(n, x_t), caps each branch
    contribution at C_n = min_t F(n, x_t) + eta_n, and minimizes the direct
    link distance plus the capped branch sums.  ``keep_exclusion`` retains
    the x_r != x_s constraint inside the branch floor (decision-equivalent
    for eta > 0; kept for the equivalence test).
    """
    m = alphabet.m
    n = ctx.n_relays
    f = np.empty((n, m))
    for i, pair in enumerate(ctx.y_rd_pairs):
        f[i] = _pair_distances(pair[0], pair[1], ctx.scale, alphabet.points)
    if counter is not None:
        counter.branch_distance(n * m)
        counter.min_op(n * (m - 1))
    d_sd = _pair_distances(ctx.y_sd_pair[0], ctx.y_sd_pair[1], ctx.scale, alphabet.points)
    if counter is not None:
        counter.direct_distance(m)
    totals = d_sd.copy()
    if keep_exclusion:
        for t in range(m):
            for i in range(n):
                others = np.delete(f[i], t)
                totals[t] += min(f[i, t], others.min() + ctx.etas[i])
    else:
        floors = f.min(axis=1) + np.asarray(ctx.etas)
        for i in range(n):
            capped = np.minimum(f[i], floors[i])
            totals += capped
            if counter is not None:
                counter.min_op(m)
                counter.accumulate(m)
    if counter is not None:
        counter.min_op(m - 1)
    return int(np.argmin(totals)) + 1


def amld_detect(ctx: DetectionContext, epsilons, alphabet: PskAlphabet) -> int:
    """Approximate-ML detection with averaged relay transition probabilities.

    Per branch the likelihood mixes the relay-correct kernel with weight
    1-eps and the relay-wrong kernels with weight eps/(M-1); kernels are
    complex Gaussians of variance 1 + scale^2.  Evaluated in
    the log domain with a stable log-sum-exp.
    """
    m = alphabet.m
    s2 = ctx.scale**2
    eps = [clamp_epsilon(e) for e in epsilons]
    d_sd = _pair_distances(ctx.y_sd_pair[0], ctx.y_sd_pair[1], ctx.scale, alphabet.points)
    log_metric = -d_sd / (1 + s2)
    for i, pair in enumerate(ctx.y_rd_pairs):
        f = _pair_distances(pair[0], pair[1], ctx.scale, alphabet.points) / (1 + s2)
        log_correct = math.log(1 - eps[i]) - f
        log_wrong = math.log(eps[i] / (m - 1)) - f
        for t in range(m):
            terms = np.concatenate(([log_correct[t]], np.delete(log_wrong, t)))
            log_metric[t] += np.logaddexp.reduce(terms)
    return int(np.argmax(log_metric)) + 1


def pld_pairwise_llr(ctx: DetectionContext, p: int, q: int,
                     alphabet: PskAlphabet) -> float:
    """Piecewise-linear log-likelihood of index p over index q.

    Lambda = t_0 + sum_n clamp(t_n, -eta_n/2, eta_n/2) with
    t = scale * Re{conj(y[k1]) * y[k2] * (x_p - x_q)}.
    Positive values favor x_p.
    """
    xp = alphabet.point(p)
    xq = alphabet.point(q)
    y1, y2 = ctx.y_sd_pair
    lam = ctx.scale * (np.conj(y1) * y2 * (xp - xq)).real
    for (y1, y2), eta in zip(ctx.y_rd_pairs, ctx.etas):
        t = ctx.scale * (np.conj(y1) * y2 * (xp - xq)).real
        lam += min(max(t, -eta / 2), eta / 2)
    return float(lam)


def pld_detect(ctx: DetectionContext, alphabet: PskAlphabet) -> int:
    """Piecewise-linear detection via a champion tournament in index order.

    The pairwise metric only defines a binary preference; the M-ary
    decision runs champion-vs-next over indices 1..M, keeping the champion
    when Lambda > 0 (and on ties, which preserves lowest-index breaking).
    """
    champ = 1
    for q in range(2, alphabet.m + 1):
        if pld_pairwise_llr(ctx, champ, q, alphabet) < 0:
            champ = q
    return champ


def coherent_baseline_detect(y_sd, y_rd, h_sd, h_rd, epsilons, alphabet: PskAlphabet,
                             amplitude: float = 1.0) -> int:
    """Coherent reference detector with known destination-side coefficients:
    `nmld_detect` on (y, h) pairs with scale ``amplitude`` and threshold
    log((1-eps)(M-1)/eps), so relay reliability enters only through the
    average error rate.
    """
    etas = tuple(relay_reliability(clamp_epsilon(e), alphabet.m) for e in epsilons)
    return nmld_detect(DetectionContext((y_sd, h_sd), tuple(zip(y_rd, h_rd)), amplitude, etas),
                       alphabet)


# ---------------------------------------------------------------------------
# vectorized batch detectors
# ---------------------------------------------------------------------------
#
# Batch inputs: y_*1 / y_*2 are the (k1, k2) sample arrays with shape
# (..., K) for the direct link and (N, ..., K) stacked over relays; `scale`
# and `etas` broadcast over the trailing symbol axis (they vary with the
# RS/NS symbol type).  For coherent pairs y_*2 is the fading coefficient,
# shape (..., 1).  Returns 1-based index arrays of shape (..., K).
#
# Every kernel takes an optional workspace ``ws`` (see `buffer`) and writes
# all its arrays into it, the returned indices included, so the next call
# overwrites them; without one every array is fresh.  Kernels share a name
# where shapes agree (pld uses the relay kernel's "r" and "top").  The harness
# passes its per-thread workspace: made fresh on every call, these arrays raise
# the minor page faults of a `dm-relays` benchmark pass fivefold (6.6k to 34k).
#
# Correlation form.  The points have one modulus (PSK, or the coherent
# plan's sqrt(p_s) * points), so with r = y1 * conj(y2)
#     |y1 - s*y2*x_t|^2 = c - 2s * Re(r * conj(x_t)),
# where c = |y1|^2 + s^2 |y2|^2 |x|^2 does not depend on t.  c cancels
# in the argmin, in the branch floor min(f, min_t f + eta) and in AMLD's
# shifted log-sum-exp, so the relay, nmld and amld kernels maximize scores
# q_t = w * Re(r * conj(x_t)) instead of minimizing distances.  Each link's
# scores are one real (M, ..., K) array with the alphabet axis leading, so
# every reduction over t runs elementwise across M slabs.


def buffer(ws: dict | None, name, shape: tuple, dtype=float) -> np.ndarray:
    """Buffer ``name`` of the workspace ``ws``, made anew when missing or when
    its shape or dtype differs; its contents are whatever was last written.
    Without a workspace it is a fresh array."""
    if ws is None:
        return np.empty(shape, dtype)
    buf = ws.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = ws[name] = np.empty(shape, dtype)
    return buf


def _correlation(y1, y2, weight, points, ws, name) -> np.ndarray:
    """Scores weight * Re(y1 * conj(y2) * conj(x_t)), shape (M, ..., K), in
    buffer ``name``; ``weight`` broadcasts over the trailing symbol axis."""
    r = buffer(ws, "r", np.broadcast_shapes(np.shape(y1), np.shape(y2)), complex)
    np.conjugate(y2, out=r)
    r *= y1
    r *= weight
    out = buffer(ws, name, (len(points), *r.shape))
    xy = np.ascontiguousarray(points, complex).view(np.float64).reshape(-1, 2)
    np.matmul(xy, r.view(np.float64).reshape(-1, 2).T, out=out.reshape(len(points), -1))
    return out


def _first_argmax(scores, ws) -> np.ndarray:
    """1-based index of the first maximum along the leading alphabet axis."""
    top = np.max(scores, axis=0, out=buffer(ws, "top", scores.shape[1:]))
    index = buffer(ws, "index", top.shape, np.int64)
    index.fill(1)
    below = buffer(ws, "below", top.shape, bool)  # no maximum at any index <= t yet
    below.fill(True)
    hit = buffer(ws, "hit", top.shape, bool)
    for s in scores[:-1]:
        np.not_equal(s, top, out=hit)
        below &= hit
        index += below
    return index


def relay_detect_batch(y1, y2, scale, points, ws=None) -> np.ndarray:
    """Minimum-distance decision: argmax_t scale * Re(r * conj(x_t)).

    Ties go to the lowest index.
    """
    return _first_argmax(_correlation(y1, y2, scale, points, ws, "branch"), ws)


def nmld_detect_batch(y_sd1, y_sd2, y_rd1, y_rd2, scale, etas, points,
                      ws=None) -> np.ndarray:
    """Branch-floor decision on scores q = 2 scale * Re(r * conj(x_t)).

    Maximizes q_sd,t + sum_n max(q_n,t, max_u q_n,u - eta_n), the negated
    min(f, min f + eta) rule of `nmld_detect`.  Ties go to the lowest index.
    """
    w = 2 * np.asarray(scale)
    totals = _correlation(y_sd1, y_sd2, w, points, ws, "totals")
    for i in range(len(y_rd1)):
        branch = _correlation(y_rd1[i], y_rd2[i], w, points, ws, "branch")
        floor = np.max(branch, axis=0, out=buffer(ws, "top", branch.shape[1:]))
        floor -= etas[i]
        np.maximum(branch, floor, out=branch)
        totals += branch
    return _first_argmax(totals, ws)


def amld_detect_batch(y_sd1, y_sd2, y_rd1, y_rd2, scale, epsilons, points,
                      ws=None) -> np.ndarray:
    """Averaged-ML decision on scores q = 2 scale Re(r * conj(x_t)) / (1 + scale^2).

    Per relay, the mixture (1-eps) e_t + eps/(M-1) (sum_u e_u - e_t) of the
    shifted kernels e_t = exp(q_t - max_u q_u) enters in the log domain.
    Ties go to the lowest index.
    """
    m = len(points)
    s = np.asarray(scale)
    w = 2 * s / (1 + s**2)
    log_metric = _correlation(y_sd1, y_sd2, w, points, ws, "totals")
    for i in range(len(y_rd1)):
        branch = _correlation(y_rd1[i], y_rd2[i], w, points, ws, "branch")
        eps = clamp_epsilon(epsilons[i])
        wrong = eps / (m - 1)
        top = np.max(branch, axis=0, out=buffer(ws, "top", branch.shape[1:]))
        branch -= top
        np.exp(branch, out=branch)  # the largest term is exp(0) = 1
        total = np.sum(branch, axis=0, out=top)
        total *= wrong
        branch *= 1 - eps - wrong
        branch += total
        np.log(branch, out=branch)
        log_metric += branch
    return _first_argmax(log_metric, ws)


def pld_detect_batch(y_sd1, y_sd2, y_rd1, y_rd2, scale, etas, points,
                     ws=None) -> np.ndarray:
    """Champion tournament of `pld_detect` in index order.

    The champion stays on Lambda = 0, so ties go to the lowest index.  Its own
    buffers are ``r_links`` and ``term``; x_champ - x_q goes in ``r``, Lambda in ``top``.
    """
    shape = np.shape(y_sd1)
    r = buffer(ws, "r_links", (len(y_rd1) + 1, *shape), complex)
    champ, lose = buffer(ws, "index", shape, np.int64), buffer(ws, "hit", shape, bool)
    diff, term = (buffer(ws, name, shape, complex) for name in ("r", "term"))
    lam, limits = buffer(ws, "top", shape), [(-eta / 2, eta / 2) for eta in etas]
    for r_i, y1, y2 in zip(r, [y_sd1, *y_rd1], [y_sd2, *y_rd2]):
        np.conjugate(y1, out=r_i)
        r_i *= y2
        r_i *= scale
    champ.fill(0)  # 0-based until the return
    for q in range(1, len(points)):
        np.take(points, champ, out=diff, mode="clip")
        diff -= points[q]
        np.copyto(lam, np.multiply(r[0], diff, out=term).real)
        for r_i, (lo, hi) in zip(r[1:], limits):
            t = np.multiply(r_i, diff, out=term).real
            lam += np.clip(t, lo, hi, out=t)
        np.copyto(champ, q, where=np.less(lam, 0, out=lose))
    return np.add(champ, 1, out=champ)
