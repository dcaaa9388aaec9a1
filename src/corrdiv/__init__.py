"""Correlation-diversity Monte Carlo engine for downlink zero-forcing MU-MIMO.

The public names load from their submodules on first use, so importing the
package loads no numpy: the command line sets numpy's BLAS threading before
numpy loads (see ``corrdiv.cli``).
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    "CorrDivError": "errors",
    "CorrelationMatrix": "corrmodels",
    "CorrelationModelSpec": "corrmodels",
    "DimensionMismatchError": "errors",
    "DropResult": "montecarlo",
    "GeometryConfig": "propagation",
    "IndefiniteMatrixError": "errors",
    "InvalidParameterError": "errors",
    "MeasuredAngularModel": "propagation",
    "QuadratureNonconvergenceError": "errors",
    "RunFailureError": "errors",
    "Scenario": "montecarlo",
    "ScenarioError": "errors",
    "ScenarioResult": "montecarlo",
    "average_correlation": "corrmodels",
    "build_clerckx": "corrmodels",
    "build_exponential": "corrmodels",
    "build_one_ring": "corrmodels",
    "expected_sum_se_closed_form": "zfcore",
    "expected_zf_snr_closed_form": "zfcore",
    "factor": "corrmodels",
    "pooled_expected_snr_db": "montecarlo",
    "pooled_instantaneous_snr_db": "montecarlo",
    "run_scenario": "montecarlo",
    "run_scenarios": "montecarlo",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # an AttributeError lets ``from corrdiv import montecarlo`` import the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
