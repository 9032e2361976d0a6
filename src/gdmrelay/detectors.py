"""Symbol detectors for the non-coherent DF relay network.

All destination detectors work on differential sample pairs (y[k1], y[k2])
per link, at the positions `GdmFrameConfig.pair_positions` gives.  The pair
scale is 1 for a reference symbol and sqrt(rho_n/rho_r) for a normal symbol.
The detectors assume unit noise on every link, the link model of `channel`.

Scalar functions (`nmld_detect`, `amld_detect`, `pld_detect`) are the
reference implementations used by the oracle tests; the `*_batch` variants
vectorize the same decisions over arrays of symbols and are what the Monte
Carlo harness calls.  Ties always break toward the lowest alphabet index.

The nmld and amld batch kernels decide on correlation scores
Re(y1*conj(y2)*conj(x_t)), one real (M, ..., K) array per link with the
alphabet axis leading, not on distances (derivation in the batch section).

`nmld_detect` is the one scalar statement of the branch-floor rule.  With no
relay pairs it is the relay's minimum-distance decision.  On (y, h) pairs
(sample and known fading coefficient), with scale the amplitude and eta =
`relay_reliability`, it is the coherent baseline, as `nmld_detect_batch` is
with the points times the amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gdmrelay.modulation import PskAlphabet, _count

__all__ = [
    "DetectionContext",
    "OpCount",
    "OpCounter",
    "nmld_detect",
    "amld_detect",
    "pld_detect",
    "pld_pairwise_llr",
    "relay_reliability",
    "count_ops",
    "OP_COUNTS",
    "relay_detect_batch",
    "nmld_detect_batch",
    "amld_detect_batch",
    "pld_detect_batch",
    "buffer",
]

EPSILON_FLOOR = 1e-12
EPSILON_CEIL = 0.5 - 1e-12


def clamp_epsilon(epsilon: float) -> float:
    """Keep a relay error rate strictly inside (0, 1/2): the floor keeps eta
    finite, the ceiling keeps epsilon in `analysis.eta_threshold`'s domain."""
    if math.isnan(epsilon):
        raise ValueError("epsilon must be a number, got nan")
    return min(max(float(epsilon), EPSILON_FLOOR), EPSILON_CEIL)


def relay_reliability(epsilon: float, m: int) -> float:
    """Relay-reliability term log((1-eps)(M-1)/eps) behind every branch threshold."""
    _count(2, m=m)
    if not 0 < epsilon < 1:
        raise ValueError(f"need epsilon in (0, 1), got {epsilon!r}")
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


# The costed destination detectors, in report order: kind -> the per-symbol
# (additions, multiplications, max/min, exp/log) counts at (M, N).
OP_COUNTS = {
    "amld": lambda m, n: (m * (9 * m * n - n + 7), m * (11 * m * n + 2 * n + 11), m - 1, n * m),
    "pld": lambda m, n: ((m - 1) * (18 * n + 17), (m - 1) * (23 * n + 23),
                         (m - 1) * (2 * n + 1), 0),
    "nmld": lambda m, n: (m * (11 * n + 8), m * (11 * n + 11), (m - 1) * (n + 1) + n * m, 0),
}


def count_ops(kind: str, m: int, n: int) -> OpCount:
    """Closed-form per-symbol operation counts of a detector in ``OP_COUNTS``.

    They count the paper's formulations: AMLD totals to (20M^2+2M)N + 19M - 1 and the
    low-complexity detector (branch min-floor form) to (24M-1)N + 20M - 1.  Only the scalar
    `amld_detect` runs AMLD's O(M^2 N) log-sum-exp: `amld_detect_batch` uses the sum-over-u
    mixture identity, O(MN) arithmetic plus M*N exp and M*N log per symbol.  M and N are
    integers, M >= 2 and N >= 1.
    """
    _count(2, m=m)
    _count(1, n=n)
    if kind.lower() not in OP_COUNTS:
        raise ValueError(f"unknown detector kind {kind!r}")
    return OpCount(*OP_COUNTS[kind.lower()](m, n))


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
        self.additions = self.multiplications = self.max_min_ops = self.exp_log_ops = 0

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


def nmld_detect(ctx: DetectionContext, alphabet: PskAlphabet,
                counter: OpCounter | None = None) -> int:
    """Low-complexity destination detection with per-branch min floors.

    Precomputes per-branch per-symbol distances F(n, x_t), caps each branch
    contribution at C_n = min_t F(n, x_t) + eta_n, and minimizes the direct
    link distance plus the capped branch sums.  Each step tallies its events
    in ``counter`` (a fresh `OpCounter` when none is given).
    """
    counter = OpCounter() if counter is None else counter
    m, n = alphabet.m, ctx.n_relays
    f = np.empty((n, m))
    for i, pair in enumerate(ctx.y_rd_pairs):
        f[i] = _pair_distances(pair[0], pair[1], ctx.scale, alphabet.points)
    counter.branch_distance(n * m)
    counter.min_op(n * (m - 1))
    totals = _pair_distances(ctx.y_sd_pair[0], ctx.y_sd_pair[1], ctx.scale, alphabet.points)
    counter.direct_distance(m)
    floors = f.min(axis=1) + np.asarray(ctx.etas)
    for i in range(n):
        totals += np.minimum(f[i], floors[i])
        counter.min_op(m)
        counter.accumulate(m)
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


# ---------------------------------------------------------------------------
# vectorized batch detectors
# ---------------------------------------------------------------------------
#
# Batch inputs: y_*1 / y_*2 are the (k1, k2) sample arrays with shape
# (..., K) for the direct link and (N, ..., K) stacked over relays; `scale`
# and `etas` broadcast over the trailing symbol axis (they vary with the
# RS/NS symbol type).  For coherent pairs y_*2 is the fading coefficient,
# shape (..., 1).  Returns 1-based index arrays of shape (..., K), in the
# smallest unsigned dtype that holds M (the harness's info dtype).
#
# Every kernel takes an optional workspace ``ws`` (see `buffer`) and writes
# all its arrays into it, the returned indices included, so the next call
# overwrites them; without one every array is fresh.  Kernels share a name
# where shapes agree (pld uses nmld's "r" and "top").  The harness
# passes its per-thread workspace: made fresh on every call, these arrays would
# multiply the minor page faults of a benchmark pass (measured in CHANGES.md).
#
# Correlation form.  The points have one modulus (PSK, or the coherent
# plan's sqrt(p_s) * points), so with r = y1 * conj(y2)
#     |y1 - s*y2*x_t|^2 = c - 2s * Re(r * conj(x_t)),
# where c = |y1|^2 + s^2 |y2|^2 |x|^2 does not depend on t.  c cancels
# in the argmin, in the branch floor min(f, min_t f + eta) and in AMLD's
# shifted log-sum-exp, so the nmld and amld kernels maximize scores
# q_t = w * Re(r * conj(x_t)) instead of minimizing distances.  nmld halves
# f and eta (exact, and no argmin moves): w = s, each floor at eta/2.
# Each link's scores are one real (M, ..., K) array with the alphabet axis
# leading, so every reduction over t runs elementwise across M slabs.


def buffer(ws: dict | None, name, shape: tuple, dtype=float) -> np.ndarray:
    """Buffer ``name`` of the workspace ``ws``, made anew (the old one dropped
    first) when missing or when its shape or dtype differs; its contents are
    whatever was last written.  Without a workspace it is a fresh array."""
    if ws is None:
        return np.empty(shape, dtype)
    buf = ws.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        ws[name] = buf = None
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
    """1-based index of the first maximum along the leading alphabet axis, in
    the smallest unsigned dtype that holds M."""
    top = np.max(scores, axis=0, out=buffer(ws, "top", scores.shape[1:]))
    index = buffer(ws, "index", top.shape, np.min_scalar_type(len(scores)))
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
    """Minimum-distance decision: `nmld_detect_batch` with no relay branches.

    Ties go to the lowest index.
    """
    return nmld_detect_batch(y1, y2, (), (), scale, (), points, ws)


def nmld_detect_batch(y_sd1, y_sd2, y_rd1, y_rd2, scale, etas, points,
                      ws=None) -> np.ndarray:
    """Branch-floor decision on scores q = scale * Re(r * conj(x_t)).

    Maximizes q_sd,t + sum_n max(q_n,t, max_u q_n,u - eta_n/2), half the negated
    min(f, min f + eta) rule of `nmld_detect`.  Ties go to the lowest index.
    """
    totals = _correlation(y_sd1, y_sd2, scale, points, ws, "totals")
    for i in range(len(y_rd1)):
        branch = _correlation(y_rd1[i], y_rd2[i], scale, points, ws, "branch")
        floor = np.max(branch, axis=0, out=buffer(ws, "top", branch.shape[1:]))
        floor -= etas[i] / 2
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
    champ = buffer(ws, "index", shape, np.min_scalar_type(len(points)))
    lose = buffer(ws, "hit", shape, bool)
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
