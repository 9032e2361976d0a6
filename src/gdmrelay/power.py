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
from gdmrelay.modulation import PowerAllocation, _count, _finite_positive

__all__ = ["PowerSolution", "optimize_power", "feasibility_diagnostic"]

FEASIBILITY_WARN_RATIO = 10.0


@dataclass(frozen=True)
class PowerSolution:
    """Optimal (rho_r, rho_n) for one block length, plus diagnostics."""

    rho_r_star: float
    rho_n_star: float
    l_block: int
    p_s: float

    def __post_init__(self):
        _count(1, l_block=self.l_block)
        _finite_positive(p_s=self.p_s, rho_r_star=self.rho_r_star, rho_n_star=self.rho_n_star)

    @property
    def ratio(self) -> float:
        return self.rho_r_star / self.rho_n_star

    @property
    def degenerate(self) -> bool:
        """L=1 has no normal symbols."""
        return self.l_block == 1

    def as_allocation(self) -> PowerAllocation:
        return PowerAllocation(rho_r=self.rho_r_star, rho_n=self.rho_n_star,
                               p_s=self.p_s)


def optimize_power(l_block: int, p_s: float = 1.0) -> PowerSolution:
    """Closed-form power optimum for block length L and average power p_s.

    L=1 has no normal symbols; the degenerate classical-DM allocation
    (all power p_s, flagged ``degenerate``) is returned so sweeps over L stay total.
    L is an integer >= 1; `PowerSolution` checks that p_s is finite and > 0.
    """
    _count(1, l_block=l_block)
    if l_block == 1:
        return PowerSolution(rho_r_star=p_s, rho_n_star=p_s, l_block=1, p_s=p_s)
    root = math.sqrt(l_block - 1.0)
    rho_r = l_block * p_s / (1.0 + root)
    rho_n = l_block * p_s / (l_block - 1.0 + root)
    return PowerSolution(rho_r_star=rho_r, rho_n_star=rho_n, l_block=l_block, p_s=p_s)


def feasibility_diagnostic(solution: PowerSolution, m: int, gamma_sr_bar: float,
                           gamma_sd: float) -> float:
    """Monitored ratio behind the power-optimum monotonicity argument.

    Returns log((1-eps*)(M-1)/eps*) / (2 * z_LM^2 * gamma_sd) with
    z_LM = sin(pi/M) * sqrt(2*L*p_s / (L + 2*sqrt(L-1))) and eps* the relay
    error rate at the optimal powers of the solution's L, floored as the
    detectors floor it.  Larger is safer; the optimum is formally justified
    only in the limit of a strong S-R link, so small values warn, not raise.
    """
    _count(2, m=m)
    _finite_positive(gamma_sr_bar=gamma_sr_bar, gamma_sd=gamma_sd)
    l = solution.l_block
    eps = max(relay_epsilon(solution.as_allocation(), l, gamma_sr_bar, m), EPSILON_FLOOR)
    z2 = math.sin(math.pi / m) ** 2 * (2.0 * l * solution.p_s / (l + 2.0 * math.sqrt(l - 1.0)))
    ratio = relay_reliability(eps, m) / (2.0 * z2 * gamma_sd)
    if ratio < FEASIBILITY_WARN_RATIO:
        warnings.warn(
            f"power-optimum feasibility ratio {ratio:.3g} < {FEASIBILITY_WARN_RATIO}; "
            "the S-R link may be too weak for the optimum to be reliable"
        )
    return ratio
