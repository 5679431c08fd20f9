"""Quantum noise of coherent beam combining.

Closed-form predictors and Monte Carlo checks for the noise of a DFT beam
combiner with imperfect phase lock, quantum-limited amplifier models for
comparison, a click-driven phase-lock feedback loop, and a deterministic
experiment engine behind the ``cbcnoise`` command line tool.
"""

import types

from .coherent import (
    VAR_COH,
    QuadratureStats,
    RngStream,
    estimate_stats,
    merge_stats,
    photon_number,
    quadratures,
    sample_coherent,
)
from .combining import (
    CbcConfig,
    CbcPrediction,
    SmallAngleWarning,
    combine_port_amplitude,
    dft,
    error_photon_number,
    error_signals,
    gamma_sum_statistics,
    inverse_dft,
    predict_output,
    simulate_cbc,
    sql_phase_variance,
    xi_threshold,
)
from .amplifier import (
    AmplifierSpec,
    NoiseBudget,
    amplify_classical_input,
    amplify_sample,
    cascade,
    predict_variance,
    simulate_amplifier,
    simulate_cascade,
)
from .phaselock import (
    FeedbackConfig,
    LockState,
    min_detectable_phase_var,
    run_feedback,
    simulate_two_beam_clicks,
    two_beam_click_rate,
)
from .engine import (
    ExperimentPlan,
    ExperimentResult,
    PointResult,
    load_plan,
    run_plan,
)

__version__ = "0.1.0"

# the imports above are the public API
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
