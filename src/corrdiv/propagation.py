"""Terminal geometry, shadowing, link gains, and angular-spread draws.

Link gain model: beta = A * zeta * (r0 / r)^alpha with lognormal shadowing
zeta (10*log10(zeta) ~ N(0, sigma_sh^2)). The attenuation constant A is
calibrated so that the 5th percentile of instantaneous ZF SNR hits 0 dB on
the reference configuration, ``_REFERENCE``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .corrmodels import CorrelationModelSpec
from .errors import InvalidParameterError, require_finite

# the configuration calibration solves on; a scenario keeps its geometry,
# noise power, seed, run sizes and radial law
_REFERENCE = {
    "m": 64,
    "l": 6,
    "rho_t_db": 0.0,
    "model": CorrelationModelSpec(variant="exponential", xi=0.9),
    "measured_model": None,
}


@dataclass(frozen=True)
class GeometryConfig:
    cell_radius_m: float = 500.0
    reference_distance_m: float = 50.0
    attenuation_exponent: float = 3.67
    shadowing_std_db: float = 6.0
    attenuation_constant: float = 1.0

    def __post_init__(self):
        require_finite(
            cell_radius_m=self.cell_radius_m,
            reference_distance_m=self.reference_distance_m,
            attenuation_exponent=self.attenuation_exponent,
            shadowing_std_db=self.shadowing_std_db,
            attenuation_constant=self.attenuation_constant,
        )
        if not 0 < self.reference_distance_m < self.cell_radius_m:
            raise InvalidParameterError(
                f"need 0 < r0 < cell radius, got r0={self.reference_distance_m}, "
                f"Rc={self.cell_radius_m}",
                field=("reference_distance_m", "cell_radius_m"),
            )
        if self.attenuation_exponent <= 0:
            raise InvalidParameterError(
                "attenuation exponent must be positive", field="attenuation_exponent"
            )
        if self.shadowing_std_db < 0:
            raise InvalidParameterError("shadowing std cannot be negative", field="shadowing_std_db")
        if self.attenuation_constant <= 0:
            raise InvalidParameterError(
                "attenuation constant must be positive", field="attenuation_constant"
            )


@dataclass(frozen=True)
class MeasuredAngularModel:
    """Fitted angular-spread statistics: N(14.02, 6.45^2) deg, floored."""

    spread_mean_deg: float = 14.02
    spread_std_deg: float = 6.45
    spread_floor_deg: float = 1.0

    def __post_init__(self):
        require_finite(
            spread_mean_deg=self.spread_mean_deg,
            spread_std_deg=self.spread_std_deg,
            spread_floor_deg=self.spread_floor_deg,
        )
        if self.spread_floor_deg <= 0:
            raise InvalidParameterError("spread floor must be positive", field="spread_floor_deg")
        if self.spread_std_deg < 0:
            raise InvalidParameterError("spread std cannot be negative", field="spread_std_deg")


def sample_terminal_geometry(config: GeometryConfig, rng, radial_law: str = "area"):
    """Drop one terminal: distance in [r0, Rc], azimuth ~ U[-180, 180] deg.

    ``radial_law="area"`` draws uniformly over the annulus area (default cell
    drop); ``"radius"`` draws the radius itself uniformly. The knob exists for
    sensitivity reporting and is not part of the scenario file schema.
    """
    r0 = config.reference_distance_m
    rc = config.cell_radius_m
    u = rng.random()
    if radial_law == "area":
        distance = float(np.sqrt(r0**2 + u * (rc**2 - r0**2)))
    elif radial_law == "radius":
        distance = r0 + u * (rc - r0)
    else:
        raise InvalidParameterError(f"unknown radial law {radial_law!r}")
    azimuth = float(rng.uniform(-180.0, 180.0))
    return distance, azimuth


def sample_link_gain(config: GeometryConfig, distance_m: float, rng):
    """Lognormal shadowing draw and the resulting link gain at a distance."""
    if not config.reference_distance_m <= distance_m <= config.cell_radius_m:
        raise InvalidParameterError(
            f"distance {distance_m} outside [{config.reference_distance_m}, "
            f"{config.cell_radius_m}]"
        )
    shadow_db = rng.normal(0.0, config.shadowing_std_db)
    zeta = float(10.0 ** (shadow_db / 10.0))
    return zeta, link_gain(config, zeta, distance_m)


def link_gain(config: GeometryConfig, shadowing_linear: float, distance_m: float) -> float:
    """beta = A * zeta * (r0 / r)^alpha, multiplied in that order.

    The Monte Carlo pass draws zeta once and applies this with each
    scenario's constant, so the order is part of the numeric contract.
    """
    return float(
        config.attenuation_constant
        * shadowing_linear
        * (config.reference_distance_m / distance_m) ** config.attenuation_exponent
    )


def draw_truncated_spread(model: MeasuredAngularModel, rng) -> float:
    """One angular spread from the measured fit, redrawn until it clears the floor."""
    while True:
        spread = rng.normal(model.spread_mean_deg, model.spread_std_deg)
        if spread >= model.spread_floor_deg:
            return float(spread)


def calibration_baseline(scenario):
    """The reference configuration under ``scenario``'s geometry, noise power,
    seed, run sizes and radial law."""
    return replace(scenario, **_REFERENCE)


def _require_baseline(scenario):
    if calibration_baseline(scenario) != scenario:
        ref = _REFERENCE
        raise InvalidParameterError(
            f"calibration requires the reference configuration: M={ref['m']}, "
            f"L={ref['l']}, rho_t={ref['rho_t_db']:g} dB, {ref['model'].variant} model "
            f"with xi={ref['model'].xi}"
        )


def unit_baseline(scenario):
    """``scenario``'s calibration baseline at A = 1, the run calibration solves on."""
    baseline = calibration_baseline(scenario)
    return replace(baseline, geometry=replace(baseline.geometry, attenuation_constant=1.0))


def attenuation_from_samples(samples_db) -> float:
    """A putting the 5th percentile of instantaneous ZF SNR samples drawn at A = 1
    at 0 dB. Instantaneous SNR is exactly linear in A, so a rescale solves it."""
    p5_db = float(np.percentile(samples_db, 5.0))
    return 10.0 ** (-p5_db / 10.0)


def calibrate_attenuation_constant(baseline) -> float:
    """Attenuation constant A putting the 5th-percentile instantaneous ZF SNR at 0 dB.

    One Monte Carlo pass of the baseline at A = 1 plus a rescale; deterministic
    given the scenario seed. ``run_scenarios(..., calibrate=True)`` gives the
    same constant from a pass it shares with other scenarios.
    """
    from .montecarlo import collect_instantaneous_snr_db

    _require_baseline(baseline)
    return attenuation_from_samples(collect_instantaneous_snr_db(unit_baseline(baseline)))
