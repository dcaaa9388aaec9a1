"""Correlation-diversity Monte Carlo engine for downlink zero-forcing MU-MIMO."""

from .corrmodels import (
    CorrelationMatrix,
    CorrelationModelSpec,
    average_correlation,
    build_clerckx,
    build_exponential,
    build_one_ring,
    factor,
)
from .errors import (
    CorrDivError,
    DimensionMismatchError,
    IllConditionedChannelError,
    IndefiniteMatrixError,
    InvalidParameterError,
    QuadratureNonconvergenceError,
    RunFailureError,
    ScenarioError,
)
from .kernels import gram_eta_stats
from .montecarlo import (
    DropResult,
    Scenario,
    ScenarioResult,
    calibrate_attenuation_constant,
    pooled_expected_snr_db,
    pooled_instantaneous_snr_db,
    run_drop,
    run_scenario,
    run_scenarios,
)
from .propagation import (
    GeometryConfig,
    MeasuredAngularModel,
    sample_link_gain,
    sample_terminal_geometry,
)
from .zfcore import (
    draw_fading,
    expected_sum_se_closed_form,
    expected_zf_snr_closed_form,
    moment_trace_gram_squared,
    neumann_trace_inverse,
    zf_eta_exact,
)

__version__ = "0.1.0"

__all__ = [
    "CorrDivError",
    "CorrelationMatrix",
    "CorrelationModelSpec",
    "DimensionMismatchError",
    "DropResult",
    "GeometryConfig",
    "IllConditionedChannelError",
    "IndefiniteMatrixError",
    "InvalidParameterError",
    "MeasuredAngularModel",
    "QuadratureNonconvergenceError",
    "RunFailureError",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "average_correlation",
    "build_clerckx",
    "build_exponential",
    "build_one_ring",
    "calibrate_attenuation_constant",
    "draw_fading",
    "expected_sum_se_closed_form",
    "expected_zf_snr_closed_form",
    "factor",
    "gram_eta_stats",
    "moment_trace_gram_squared",
    "neumann_trace_inverse",
    "pooled_expected_snr_db",
    "pooled_instantaneous_snr_db",
    "run_drop",
    "run_scenario",
    "run_scenarios",
    "sample_link_gain",
    "sample_terminal_geometry",
    "zf_eta_exact",
]
