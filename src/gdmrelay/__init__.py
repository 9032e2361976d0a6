"""Non-coherent decode-and-forward relay network toolkit.

Simulation and closed-form analysis for parallel DF relay networks using
generalized differential M-PSK modulation: block-structured differential
encoding with unequal reference/normal symbol power, low-complexity
destination detectors, symbol error rate expressions, and the matching
power allocation optimum.
"""

from gdmrelay.modulation import (
    PskAlphabet,
    PowerAllocation,
    GdmFrameConfig,
    EncodedFrame,
    make_alphabet,
    gdm_encode,
    noiseless_decode,
)
from gdmrelay.channel import effective_receive_snr
from gdmrelay.detectors import (
    DetectionContext,
    OpCount,
    OpCounter,
    nmld_detect,
    amld_detect,
    pld_detect,
    pld_pairwise_llr,
    count_ops,
)
from gdmrelay.analysis import (
    SerPrediction,
    q_function,
    coherent_mpsk_rayleigh_ser,
    relay_epsilon,
    eta_threshold,
    ser_conditional_single,
    ser_avg_error_free,
    ser_avg_erroneous,
    diversity_order,
    diversity_with_errors,
    bessel_k,
    fit_diversity_slope,
)
from gdmrelay.power import PowerSolution, optimize_power, feasibility_diagnostic
from gdmrelay.harness import (
    ExperimentConfig,
    PointResult,
    SimResult,
    run_ser_experiment,
    reproduce_figure,
)

__version__ = "0.1.0"
