"""Five-level parity-coded byte storage for NOR flash.

One byte is stored in four multi-level cells.  Adding a fifth program
level and an even-parity constraint on the four symbols yields a code
with minimum Manhattan distance 2, decoded by margin sensing plus an
L1 nearest-codeword soft correction.  The package provides the codec,
closed-form error-rate estimates for exponential read-noise tails, a
Monte Carlo engine with tail-stratified rare-event sampling, and a CLI.
"""

from .channel import (
    LevelGrid,
    NoiseModel,
    RngStream,
    derive_5level_margin,
    five_level_grid,
    four_level_grid,
    read_density,
    sample_read,
    sample_read_conditioned,
)
from .codec import (
    CodeBook,
    DecodeOutcome,
    decode,
    encode,
    enumerate_codewords,
    margin_sense,
    parity_ok,
    read_byte,
    soft_correct,
)
from .analytic import (
    ChannelPoint,
    ErrorBudget,
    baseline_approximation,
    baseline_rates,
    capacity,
    crosspolytope_word_bound,
    protected_rates,
    ratio_approximation,
    regime_approximations,
    table1,
)
from .montecarlo import (
    BerEstimate,
    ErrorClass,
    SimConfig,
    classify_error,
    confidence_interval,
    run_stratified,
    run_trials,
)

__version__ = "0.6.0"
