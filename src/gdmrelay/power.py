"""Power split between reference and normal symbols.

The optimum maximizes the harmonic power combination phi_N subject to the
frame-average power constraint; it depends only on the block length and the
average power, not on any channel knowledge.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from gdmrelay.analysis import relay_epsilon
from gdmrelay.detectors import EPSILON_FLOOR, relay_reliability
from gdmrelay.modulation import PowerAllocation

__all__ = ["PowerSolution", "optimize_power", "feasibility_diagnostic"]

FEASIBILITY_WARN_RATIO = 10.0


@dataclass(frozen=True)
class PowerSolution:
    """Optimal (rho_r, rho_n) for one block length, plus diagnostics."""

    rho_r_star: float
    rho_n_star: float
    ratio: float
    l_block: int
    p_s: float
    degenerate: bool = False

    def as_allocation(self) -> PowerAllocation:
        return PowerAllocation(rho_r=self.rho_r_star, rho_n=self.rho_n_star,
                               p_s=self.p_s)


def optimize_power(l_block: int, p_s: float = 1.0) -> PowerSolution:
    """Closed-form power optimum for block length L and average power p_s.

    L=1 has no normal symbols; the degenerate classical-DM allocation
    (all power p_s) is returned with a flag so sweeps over L stay total.
    """
    if l_block < 1:
        raise ValueError(f"l_block must be >= 1, got {l_block}")
    if not 0 < p_s < math.inf:
        raise ValueError("p_s must be finite and > 0")
    if l_block == 1:
        return PowerSolution(rho_r_star=p_s, rho_n_star=p_s, ratio=1.0,
                             l_block=1, p_s=p_s, degenerate=True)
    root = math.sqrt(l_block - 1.0)
    rho_r = l_block * p_s / (1.0 + root)
    rho_n = l_block * p_s / (l_block - 1.0 + root)
    return PowerSolution(rho_r_star=rho_r, rho_n_star=rho_n, ratio=rho_r / rho_n,
                         l_block=l_block, p_s=p_s)


def feasibility_diagnostic(solution: PowerSolution, m: int, l_block: int,
                           gamma_sr_bar: float, gamma_sd: float) -> float:
    """Monitored ratio behind the power-optimum monotonicity argument.

    Returns log((1-eps*)(M-1)/eps*) / (2 * z_LM^2 * gamma_sd) with
    z_LM = sin(pi/M) * sqrt(2*L*p_s / (L + 2*sqrt(L-1))) and eps* the relay
    error rate at the optimal powers, floored as the detectors floor it.  Larger
    is safer; the optimum is formally justified only in the limit of a strong
    S-R link, so small values trigger a warning rather than an error.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not (0 < gamma_sr_bar < math.inf and 0 < gamma_sd < math.inf):
        raise ValueError("SNRs must be finite and > 0")
    eps = max(relay_epsilon(solution.as_allocation(), l_block, gamma_sr_bar, m), EPSILON_FLOOR)
    z2 = math.sin(math.pi / m) ** 2 * (
        2.0 * l_block * solution.p_s / (l_block + 2.0 * math.sqrt(l_block - 1.0))
    )
    ratio = relay_reliability(eps, m) / (2.0 * z2 * gamma_sd)
    if ratio < FEASIBILITY_WARN_RATIO:
        warnings.warn(
            f"power-optimum feasibility ratio {ratio:.3g} < {FEASIBILITY_WARN_RATIO}; "
            "the S-R link may be too weak for the optimum to be reliable"
        )
    return ratio
