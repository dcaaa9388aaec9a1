from dataclasses import astuple, replace

import numpy as np
import pytest

from corrdiv import (
    CorrelationMatrix,
    CorrelationModelSpec,
    GeometryConfig,
    InvalidParameterError,
    MeasuredAngularModel,
    RunFailureError,
    Scenario,
    pooled_instantaneous_snr_db,
    run_scenario,
)
from corrdiv import montecarlo, propagation
from corrdiv.montecarlo import calibrate_attenuation_constant, calibration_baseline
from corrdiv.propagation import (
    draw_truncated_spread,
    sample_link_gain,
    sample_terminal_geometry,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def small_baseline(seed=3, a=1.0):
    return Scenario(
        m=64,
        l=6,
        model=CorrelationModelSpec(variant="exponential", xi=0.9),
        n_drops=20,
        n_fading=40,
        seed=seed,
        rho_t_db=0.0,
        sigma2=1.0,
        geometry=GeometryConfig(attenuation_constant=a),
    )


class TestGeometryConfig:
    def test_defaults_are_valid(self):
        g = GeometryConfig()
        assert g.cell_radius_m == 500.0
        assert g.reference_distance_m == 50.0

    def test_rejects_inverted_radii(self):
        with pytest.raises(InvalidParameterError):
            GeometryConfig(cell_radius_m=40.0, reference_distance_m=50.0)

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(InvalidParameterError):
            GeometryConfig(attenuation_constant=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            "cell_radius_m",
            "reference_distance_m",
            "attenuation_exponent",
            "shadowing_std_db",
            "attenuation_constant",
        ],
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), pytest.param(10**400, id="10**400")]
    )
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(InvalidParameterError, match="finite") as raised:
            GeometryConfig(**{field: value})
        assert raised.value.field == field

    def test_stores_numbers_as_floats(self):
        g = GeometryConfig(cell_radius_m=600, reference_distance_m=np.int64(40))
        assert {type(value) for value in astuple(g)} == {float}
        assert g == GeometryConfig(cell_radius_m=600.0, reference_distance_m=40.0)

    @pytest.mark.parametrize(
        "field",
        [
            "cell_radius_m",
            "reference_distance_m",
            "attenuation_exponent",
            "shadowing_std_db",
            "attenuation_constant",
        ],
    )
    @pytest.mark.parametrize("value", ["500", None, True])
    def test_rejects_non_real_values(self, field, value):
        with pytest.raises(InvalidParameterError, match="real number") as raised:
            GeometryConfig(**{field: value})
        assert raised.value.field == field


class TestTerminalGeometry:
    def test_degenerate_annulus(self):
        g = GeometryConfig(cell_radius_m=100.0, reference_distance_m=99.999)
        for _ in range(50):
            d, _ = sample_terminal_geometry(g, rng(1))
            assert d == pytest.approx(100.0, abs=0.01)

    def test_area_uniform_distance_cdf(self):
        g = GeometryConfig()
        generator = rng(2)
        draws = np.array(
            [sample_terminal_geometry(g, generator)[0] for _ in range(100_000)]
        )
        r0, rc = 50.0, 500.0
        grid = np.linspace(r0, rc, 400)
        analytic = (grid**2 - r0**2) / (rc**2 - r0**2)
        empirical = np.searchsorted(np.sort(draws), grid) / draws.size
        assert np.max(np.abs(empirical - analytic)) < 0.01

    def test_azimuth_statistics(self):
        g = GeometryConfig()
        generator = rng(3)
        az = np.array([sample_terminal_geometry(g, generator)[1] for _ in range(100_000)])
        assert abs(np.mean(az)) < 2.0
        assert az.min() >= -180.0 and az.max() <= 180.0

    def test_radius_law_knob(self):
        g = GeometryConfig()
        generator = rng(4)
        draws = np.array(
            [sample_terminal_geometry(g, generator, radial_law="radius")[0] for _ in range(50_000)]
        )
        # radius-uniform: mean (r0 + Rc)/2 = 275
        assert np.mean(draws) == pytest.approx(275.0, abs=2.0)
        with pytest.raises(InvalidParameterError):
            sample_terminal_geometry(g, generator, radial_law="volume")

    def test_bounds_always_respected(self):
        g = GeometryConfig()
        generator = rng(5)
        for _ in range(1000):
            d, _ = sample_terminal_geometry(g, generator)
            assert 50.0 <= d <= 500.0


class TestLinkGain:
    def test_reference_distance_no_shadowing(self):
        g = GeometryConfig(shadowing_std_db=0.0, attenuation_constant=2.5)
        zeta, beta = sample_link_gain(g, 50.0, rng(6))
        assert zeta == pytest.approx(1.0)
        assert beta == pytest.approx(2.5)

    def test_distance_power_law(self):
        g = GeometryConfig(shadowing_std_db=0.0)
        _, beta = sample_link_gain(g, 100.0, rng(7))
        assert beta == pytest.approx(2.0**-3.67, rel=1e-12)

    def test_shadowing_std(self):
        g = GeometryConfig()
        generator = rng(8)
        draws_db = np.array(
            [10 * np.log10(sample_link_gain(g, 50.0, generator)[0]) for _ in range(100_000)]
        )
        assert np.std(draws_db) == pytest.approx(6.0, abs=0.1)

    def test_monotone_decrease_with_distance(self):
        g = GeometryConfig(shadowing_std_db=0.0)
        gains = [sample_link_gain(g, d, rng(9))[1] for d in (50.0, 120.0, 300.0, 500.0)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_rejects_out_of_cell_distance(self):
        with pytest.raises(InvalidParameterError):
            sample_link_gain(GeometryConfig(), 10.0, rng(10))


class TestAngularParams:
    def test_floor_honored_and_mean_matches_truncated_normal(self):
        from scipy.stats import truncnorm

        model = MeasuredAngularModel()
        generator = rng(11)
        spreads = np.array([draw_truncated_spread(model, generator) for _ in range(100_000)])
        assert spreads.min() >= 1.0
        # redraw-until-above-floor conditions the normal on X >= 1
        oracle = truncnorm.mean((1.0 - 14.02) / 6.45, np.inf, loc=14.02, scale=6.45)
        assert np.mean(spreads) == pytest.approx(oracle, abs=0.1)

    def test_degenerate_std(self):
        model = MeasuredAngularModel(spread_std_deg=0.0)
        for _ in range(10):
            assert draw_truncated_spread(model, rng(12)) == 14.02

    def test_zero_std_below_floor_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="clear the spread floor") as info:
            MeasuredAngularModel(spread_mean_deg=0.5, spread_std_deg=0.0, spread_floor_deg=1.0)
        assert info.value.field == ("spread_mean_deg", "spread_floor_deg")
        # a zero std at or above the floor is a fixed spread
        assert draw_truncated_spread(MeasuredAngularModel(1.0, 0.0, 1.0), rng(14)) == 1.0

    def test_unreachable_floor_raises_after_the_draw_cap(self):
        class CountingStream:
            calls = 0

            def normal(self, mean, std):
                self.calls += 1
                return mean

        model = MeasuredAngularModel(spread_mean_deg=0.5, spread_std_deg=1e-9)
        stream = CountingStream()
        with pytest.raises(RunFailureError, match="floor 1.0 deg"):
            draw_truncated_spread(model, stream)
        assert stream.calls == propagation._MAX_SPREAD_DRAWS == 64

    def test_doa_uniform_cdf(self, monkeypatch):
        # the mean DOAs the engine draws from each drop's model lane, read off
        # the builder's arguments; the matrices themselves play no part here,
        # so every terminal gets a 1 x 1 stand-in
        doas = []
        unit = CorrelationMatrix(np.ones((1, 1)))
        monkeypatch.setattr(
            montecarlo,
            "build_one_ring",
            lambda m, spread, doa, spacing: doas.append(doa) or unit,
        )
        monkeypatch.setattr(montecarlo, "factor", lambda r: np.ones((1, 1)))
        scenario = Scenario(
            m=50,
            l=50,
            model=CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured"),
            n_drops=2000,
            n_fading=1,
            seed=13,
        )
        for drop in range(scenario.n_drops):
            montecarlo._terminal_profiles(
                scenario, montecarlo._stream(scenario.seed, drop, montecarlo._MODEL_LANE)
            )
        doas = np.array(doas)
        assert doas.size == 100_000
        grid = np.linspace(-180, 180, 400)
        analytic = (grid + 180) / 360
        empirical = np.searchsorted(np.sort(doas), grid) / doas.size
        assert np.max(np.abs(empirical - analytic)) < 0.01

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(InvalidParameterError):
            MeasuredAngularModel(spread_floor_deg=0.0)

    @pytest.mark.parametrize(
        "field",
        ["spread_mean_deg", "spread_std_deg", "spread_floor_deg"],
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), pytest.param(10**400, id="10**400")]
    )
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(InvalidParameterError, match="finite") as raised:
            MeasuredAngularModel(**{field: value})
        assert raised.value.field == field

    def test_stores_numbers_as_floats(self):
        model = MeasuredAngularModel(spread_mean_deg=20, spread_std_deg=4, spread_floor_deg=2)
        assert {type(value) for value in astuple(model)} == {float}


def instantaneous_snr_db(scenario):
    """Pooled per-(drop, trial, terminal) instantaneous ZF SNR samples in dB."""
    return pooled_instantaneous_snr_db(run_scenario(scenario))


def bisect_attenuation(baseline):
    """Oracle: A found by bisecting log10(A) on the 5th percentile of the
    baseline's instantaneous SNR samples, rescaled to each trial A."""
    unit = replace(baseline, geometry=replace(baseline.geometry, attenuation_constant=1.0))
    samples_db = instantaneous_snr_db(unit)
    p5_at = lambda log_a: np.percentile(samples_db + 10.0 * log_a, 5.0)  # noqa: E731
    lo, hi = -12.0, 12.0
    assert p5_at(lo) < 0 < p5_at(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(p5_at(mid)) <= 1e-9:
            return 10.0**mid
        if p5_at(mid) > 0:
            hi = mid
        else:
            lo = mid
    raise AssertionError("bisection did not converge within 60 iterations")


class TestCalibration:
    def test_rescale_and_bisection_agree(self):
        baseline = small_baseline()
        assert bisect_attenuation(baseline) == pytest.approx(
            calibrate_attenuation_constant(baseline), rel=1e-9
        )

    def test_deterministic_given_seed(self):
        a1 = calibrate_attenuation_constant(small_baseline(seed=5))
        a2 = calibrate_attenuation_constant(small_baseline(seed=5))
        assert a1 == a2
        a3 = calibrate_attenuation_constant(small_baseline(seed=6))
        assert a3 != a1

    def test_linearity_in_attenuation(self):
        # instantaneous SNR scales linearly with A, so the percentile in dB
        # shifts by exactly 10*log10(2) when A doubles
        base = small_baseline()
        single = instantaneous_snr_db(base)
        doubled_scenario = replace(
            base, geometry=replace(base.geometry, attenuation_constant=2.0)
        )
        doubled = instantaneous_snr_db(doubled_scenario)
        shift = np.percentile(doubled, 5.0) - np.percentile(single, 5.0)
        assert shift == pytest.approx(10 * np.log10(2.0), abs=1e-9)

    def test_achieves_target_percentile(self):
        base = small_baseline()
        a = calibrate_attenuation_constant(base)
        calibrated = replace(base, geometry=replace(base.geometry, attenuation_constant=a))
        achieved = np.percentile(instantaneous_snr_db(calibrated), 5.0)
        assert abs(achieved) < 1e-9

    def test_rejects_non_baseline_scenario(self):
        bad = Scenario(
            m=32,
            l=4,
            model=CorrelationModelSpec(variant="exponential", xi=0.9),
            n_drops=2,
            n_fading=5,
            seed=1,
            geometry=GeometryConfig(),
        )
        with pytest.raises(InvalidParameterError, match="M=64, L=6, rho_t=0 dB"):
            calibrate_attenuation_constant(bad)
        # the builder turns any scenario into one calibration accepts
        assert calibrate_attenuation_constant(calibration_baseline(bad)) > 0
