"""Non-coherent decode-and-forward relay network toolkit.

Simulation and closed-form analysis for parallel DF relay networks using
generalized differential M-PSK modulation: block-structured differential
encoding with unequal reference/normal symbol power, low-complexity
destination detectors, symbol error rate expressions, and the matching
power allocation optimum.

Each module's ``__all__`` is the one list of its public names, and the package
re-exports all of them.  The CLI (`gdmrelay.cli`) is not imported here.
"""

from gdmrelay.modulation import *
from gdmrelay.channel import *
from gdmrelay.detectors import *
from gdmrelay.analysis import *
from gdmrelay.power import *
from gdmrelay.harness import *

__version__ = "0.1.0"
