"""PSD-aligned uplink pilot design and MMSE channel estimation toolkit."""

from .config import ExperimentConfig
from .estimation import (
    EstimationReport,
    SingularSceneError,
    asymptotic_mse,
    clarke_closed_form,
    error_covariance,
    mse_from_eigenvalues,
    processing_gain_db,
    small_alpha_mse,
    taylor_check,
)
from .fading import (
    ChannelCovariance,
    DopplerSpectrum,
    build_covariance,
    j0,
)
from .pilots import (
    AlignmentPlan,
    PilotSequence,
    PlanInfeasibleError,
    fft_pilot,
    hadamard_pilots,
    orthogonality_residual,
    plan_alignment,
    shift_orthogonal,
    uniform_capacity,
)
from .simkit import (
    RunResult,
    run_downlink,
    run_experiment,
    run_uplink,
    user_reports,
)

__version__ = "0.1.0"
