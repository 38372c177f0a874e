"""Five-level parity-coded byte storage for NOR flash.

One byte is stored in four multi-level cells.  Adding a fifth program
level and an even-parity constraint on the four symbols yields a code
with minimum Manhattan distance 2, decoded by margin sensing plus an
L1 nearest-codeword soft correction.  The package provides the codec,
closed-form error-rate estimates for exponential read-noise tails, a
Monte Carlo engine with tail-stratified rare-event sampling, and a CLI.
"""

from .channel import *  # noqa: F401,F403
from .codec import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403

__version__ = "0.8.0"
