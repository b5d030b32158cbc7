"""Simulator for four-photon GHZ entanglement and entanglement swapping
with two down-conversion pair sources combined on a polarizing
beam-splitter, at exact-algebra and Monte Carlo levels.
"""

from .states import (
    BELL_KINDS,
    DensityMatrix,
    LabelCollisionError,
    PostselectionError,
    PureState,
    StateError,
    bell_state,
    change_basis,
    fidelity,
    ghz_state,
    mix,
    spdc_pair,
    state_from_terms,
    tensor,
)
from .elements import (
    COHERENCE_TIME_FS,
    VISIBILITY_ZERO_DELAY,
    DelayElement,
    PbsElement,
    PolarizerElement,
    apply_polarizer,
    dephase_by_distinguishability,
    distinguishability,
)
from .experiment import (
    Apparatus,
    CountTable,
    MeasurementSetting,
    PairSource,
    RateModel,
    default_apparatus,
    delay_scan,
    diagonal_setting,
    draw_counts,
    exact_outcome_probabilities,
    feasibility_estimate,
    ghz_after_postselection,
    hv_setting,
    monte_carlo_counts,
    source_state,
    three_photon_ghz,
)
from .swap import (
    SwapResult,
    bell_decompose,
    chsh_value,
    correlation,
    phi_plus_via_45_coincidence,
    project_bell,
    visibility_from_counts,
)

__version__ = "0.1.0"
