"""Terminal geometry, shadowing, link gains, and angular-spread draws.

Link gain model: beta = A * zeta * (r0 / r)^alpha with lognormal shadowing
zeta (10*log10(zeta) ~ N(0, sigma_sh^2)) and attenuation constant A.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError, RunFailureError, require_finite

# a floor that this many draws in a row miss is out of the measured model's
# reach; at the default fit each draw misses with probability 0.022
_MAX_SPREAD_DRAWS = 64


@dataclass(frozen=True)
class GeometryConfig:
    cell_radius_m: float = 500.0
    reference_distance_m: float = 50.0
    attenuation_exponent: float = 3.67
    shadowing_std_db: float = 6.0
    attenuation_constant: float = 1.0

    def __post_init__(self):
        require_finite(self, *(f.name for f in fields(self)))
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
        edge_gain = link_gain(self, 1.0, self.cell_radius_m)
        if edge_gain < np.finfo(np.float64).tiny:
            raise InvalidParameterError(
                f"the cell-edge gain A (r0/Rc)^alpha = {edge_gain:.3e} underflows; "
                f"lower the attenuation exponent",
                field=("attenuation_exponent", "attenuation_constant"),
            )


@dataclass(frozen=True)
class MeasuredAngularModel:
    """Fitted angular-spread statistics: N(14.02, 6.45^2) deg, floored."""

    spread_mean_deg: float = 14.02
    spread_std_deg: float = 6.45
    spread_floor_deg: float = 1.0

    def __post_init__(self):
        require_finite(self, *(f.name for f in fields(self)))
        if not 0 < self.spread_floor_deg <= 180:
            raise InvalidParameterError(
                "spread floor must be in (0, 180] deg", field="spread_floor_deg"
            )
        if self.spread_std_deg < 0:
            raise InvalidParameterError("spread std cannot be negative", field="spread_std_deg")
        if self.spread_std_deg == 0 and self.spread_mean_deg < self.spread_floor_deg:
            raise InvalidParameterError(
                "with a zero spread std, the spread mean must clear the spread floor",
                field=("spread_mean_deg", "spread_floor_deg"),
            )
        if self.spread_std_deg == 0 and self.spread_mean_deg > 180:
            raise InvalidParameterError(
                "with a zero spread std, the spread mean cannot exceed 180 deg",
                field="spread_mean_deg",
            )


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
    """One angular spread from the measured fit, redrawn until it lies in
    [floor, 180] deg, the spreads a one-ring profile accepts.

    ``_MAX_SPREAD_DRAWS`` misses in a row raise ``RunFailureError``, aborting the drop.
    """
    for _ in range(_MAX_SPREAD_DRAWS):
        spread = rng.normal(model.spread_mean_deg, model.spread_std_deg)
        if model.spread_floor_deg <= spread <= 180.0:
            return float(spread)
    raise RunFailureError(
        f"{_MAX_SPREAD_DRAWS} angular spreads in a row fell below the floor "
        f"{model.spread_floor_deg} deg or above 180 deg"
    )
