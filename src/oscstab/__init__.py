"""Oscillatory time-varying feedback for driftless nonholonomic systems.

The package synthesizes feedback laws whose oscillatory components excite
Lie-bracket directions of an underactuated driftless system, integrates the
resulting closed loop in the classical and the sample-and-hold sense, and
numerically verifies the sign and expansion conditions behind the design.
"""

from .controller import (FeedbackLaw, OscillatorAssignment, SynthesisError,
                         assign_frequencies, feedback_eval, law_with_period,
                         oscillator_waves, split_component,
                         synthesize_components, synthesized_law, user_law)
from .integrator import (OneStepPrediction, Trajectory, chen_fliess_predict,
                         coupling_matrix, integrate_classical,
                         integrate_sampled, prediction_order_probe,
                         write_trajectory_csv, write_windows_json)
from .lyapunov import (DefinitenessReport, LyapunovSpec, correction_ratio_sup,
                       decrease_rate, gain_bound_scan, negdef_scan)
from .sampling import Region, sample_region
from .vecfield import (VectorFieldSystem, bracket_generating_check,
                       input_matrix, system_from_fields)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
