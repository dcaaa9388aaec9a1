from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from corrdiv import (
    CorrelationMatrix,
    CorrelationModelSpec,
    IndefiniteMatrixError,
    InvalidParameterError,
    QuadratureNonconvergenceError,
    average_correlation,
    build_clerckx,
    build_exponential,
    build_one_ring,
    factor,
)
from corrdiv.corrmodels import PSD_FLOOR, _hermitian_toeplitz, _one_ring_lags, average_toeplitz
from corrdiv.errors import DimensionMismatchError
from corrdiv.propagation import MeasuredAngularModel, draw_truncated_spread

# independent quadrature anchors: composite Simpson at 1e6 panels,
# one-ring (spread 14.02 deg, mean DOA 30 deg, spacing 0.5), column lags
SIMPSON_LAGS_M4 = [
    1.0,
    0.013631592720667 - 0.928399096845395j,
    -0.732078526195201 - 0.016494240286596j,
    -0.003280347493767 + 0.460736223206760j,
]


def simpson_one_ring_entry(i, j, spread_deg, doa_deg, spacing, panels):
    """Direct per-entry composite-Simpson oracle; no Toeplitz/lag folding."""
    spread = np.deg2rad(spread_deg)
    mean = np.deg2rad(doa_deg)
    phi = np.linspace(mean - spread, mean + spread, panels + 1)
    values = np.exp(-2j * np.pi * spacing * (i - j) * np.sin(phi))
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    step = (phi[-1] - phi[0]) / panels
    return (step / 3.0) * np.sum(weights * values) / (2.0 * spread)


def test_exponential_identity_at_zero_xi():
    r = build_exponential(3, 0.0)
    assert np.array_equal(r.entries, np.eye(3))


def test_exponential_direct_formula():
    r = build_exponential(2, 0.9)
    assert np.allclose(r.entries, [[1.0, 0.9], [0.9, 1.0]])
    r3 = build_exponential(3, 0.5)
    assert r3.entries[0, 1] == pytest.approx(0.5)
    assert r3.entries[0, 2] == pytest.approx(0.25)
    assert np.isrealobj(r3.entries)


def test_exponential_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        build_exponential(0, 0.5)
    with pytest.raises(InvalidParameterError):
        build_exponential(4, 1.5)
    with pytest.raises(InvalidParameterError):
        build_exponential(4, -0.1)


def test_clerckx_zero_phase_degenerates_to_exponential():
    assert np.allclose(build_clerckx(5, 0.9, 0.0).entries, build_exponential(5, 0.9).entries)


def test_clerckx_quarter_turn_entries():
    r = build_clerckx(2, 0.9, 90.0)
    assert r.entries[0, 1] == pytest.approx(0.9j, abs=1e-12)
    assert r.entries[1, 0] == pytest.approx(-0.9j, abs=1e-12)


def test_clerckx_is_valid_correlation_matrix():
    r = build_clerckx(8, 0.9, 37.0)
    # Hermitian + unit diagonal checked at construction, PSD here
    assert np.linalg.eigvalsh(r.entries)[0] >= PSD_FLOOR


def test_clerckx_magnitudes_match_exponential():
    for delta in (13.0, 90.0, 201.5):
        c = build_clerckx(7, 0.8, delta)
        e = build_exponential(7, 0.8)
        assert np.allclose(np.abs(c.entries), e.entries, atol=1e-12)


def test_one_ring_zero_spread_limit():
    r = build_one_ring(2, 1e-6, 30.0, 0.5)
    assert r.entries[0, 1] == pytest.approx(np.exp(1j * np.pi / 2), abs=1e-6)


def test_one_ring_unit_diagonal_exact():
    r = build_one_ring(5, 22.0, -70.0, 0.5)
    assert np.all(r.entries.diagonal() == 1.0)


def test_one_ring_matches_frozen_simpson_lags():
    r = build_one_ring(4, 14.02, 30.0, 0.5)
    assert np.allclose(r.entries[:, 0], SIMPSON_LAGS_M4, atol=1e-8)


def test_one_ring_matches_live_simpson_per_entry():
    r = build_one_ring(4, 14.02, 30.0, 0.5)
    for i in range(4):
        for j in range(4):
            oracle = simpson_one_ring_entry(i, j, 14.02, 30.0, 0.5, panels=100_000)
            assert abs(r.entries[i, j] - oracle) < 1e-7


def test_one_ring_toeplitz_structure():
    r = build_one_ring(6, 9.5, 42.0, 0.5).entries
    for k in range(1, 6):
        diag = np.diagonal(r, offset=-k)
        assert np.allclose(diag, diag[0])


def test_one_ring_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        build_one_ring(4, 0.0, 0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        build_one_ring(4, 190.0, 0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        build_one_ring(4, 10.0, 0.0, -0.5)


def test_one_ring_quadrature_nonconvergence():
    # absurd spacing makes the integrand oscillate ~1e6 times across the window
    with pytest.raises(QuadratureNonconvergenceError):
        build_one_ring(4, 60.0, 0.0, 1e6)


def test_factor_identity():
    bh = factor(build_exponential(4, 0.0))
    assert np.allclose(bh.conj().T @ bh, np.eye(4), atol=1e-12)


def test_factor_reconstructs_exponential():
    r = build_exponential(2, 0.9)
    bh = factor(r)
    assert np.max(np.abs(bh.conj().T @ bh - r.entries)) < 1e-12


def test_factor_near_singular_one_ring():
    r = build_one_ring(6, 1e-6, 10.0, 0.5)  # numerically rank one
    bh = factor(r)
    assert np.max(np.abs(bh.conj().T @ bh - r.entries)) <= 1e-8


@pytest.mark.parametrize("m", [1, 2, 7, 64, 256])
@pytest.mark.parametrize(
    "build",
    [
        lambda m: build_exponential(m, 0.9),
        lambda m: build_clerckx(m, 0.9, 38.0),
        lambda m: build_one_ring(m, 14.02, 30.0, 0.5),
    ],
    ids=["exponential", "clerckx", "one_ring"],
)
def test_factor_reconstructs_every_family(build, m):
    r = build(m)
    bh = factor(r)
    assert bh.shape[1] == m and 1 <= bh.shape[0] <= m
    residual = r.entries - bh.conj().T @ bh
    assert np.max(np.abs(residual)) <= 1e-8
    # the pivoted Cholesky stopping rule bounds the dropped mass
    assert np.trace(residual).real <= 1e-10


def test_factor_rejects_indefinite_matrix():
    # unit diagonal and unit-bounded entries, but indefinite (det = -2.888)
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    r = CorrelationMatrix(bad)  # structural checks pass, PSD does not
    with pytest.raises(IndefiniteMatrixError):
        factor(r)


def test_factor_rejects_eigenvalues_below_unit_bound():
    # entries past unit magnitude never pass CorrelationMatrix, so a stand-in
    # carries them; the first pivot explains the whole trace and leaves -3
    bad = SimpleNamespace(entries=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(IndefiniteMatrixError):
        factor(bad)


def test_factor_rejects_small_negative_eigenvalue():
    # a numerically rank-deficient one-ring with its smallest eigenvalue
    # moved to -1e-8, rescaled to a unit diagonal
    lam, vec = np.linalg.eigh(build_one_ring(16, 2.0, 20.0, 0.5).entries)
    lam[0] = -1e-8
    a = (vec * lam) @ vec.conj().T
    scale = 1.0 / np.sqrt(a.diagonal().real)
    a = scale[:, np.newaxis] * a * scale
    a = 0.5 * (a + a.conj().T)
    np.fill_diagonal(a, 1.0)
    r = CorrelationMatrix(a)
    assert -1.1e-8 < np.linalg.eigvalsh(a)[0] < -0.9e-8
    with pytest.raises(IndefiniteMatrixError):
        factor(r)


def test_factor_accepts_rank_deficient_profiles():
    bh = factor(build_exponential(64, 1.0))
    assert bh.shape == (1, 64)
    r = build_one_ring(256, 2.0, 0.0, 0.5)
    bh = factor(r)
    assert bh.shape[0] < 256
    assert np.max(np.abs(r.entries - bh.conj().T @ bh)) <= 1e-8


def test_factor_returns_a_compact_array():
    # a view of the M x M work buffer would keep all of it alive for as long
    # as the engine holds the factor
    bh = factor(build_one_ring(256, 2.0, 0.0, 0.5))
    assert bh.shape[0] < bh.shape[1] == 256
    assert bh.flags.c_contiguous
    assert bh.flags.owndata


def test_factor_rank_tracks_the_eigenvalue_count():
    generator = np.random.Generator(np.random.SFC64(17))
    model = MeasuredAngularModel()
    for _ in range(12):
        spread = draw_truncated_spread(model, generator)
        r = build_one_ring(256, spread, float(generator.uniform(-180.0, 180.0)), 0.5)
        rank = factor(r).shape[0]
        count = int(np.sum(np.linalg.eigvalsh(r.entries) > 1e-10))
        assert abs(rank - count) <= 3, (spread, rank, count)


@pytest.mark.parametrize("order", [128, 256, 512])
def test_recurrence_kernel_matches_direct_exponentials(order):
    m, spread, mean, spacing = 256, np.deg2rad(14.02), np.deg2rad(30.0), 0.5
    x, w = np.polynomial.legendre.leggauss(order)
    phi = mean + spread * x
    direct = np.exp(-2j * np.pi * spacing * np.outer(np.arange(m), np.sin(phi)))
    want = 0.5 * (direct @ w)
    assert np.max(np.abs(_one_ring_lags(m, spread, mean, spacing, order) - want)) <= 1e-12


def test_average_correlation_identical_copies():
    r = build_clerckx(5, 0.7, 33.0)
    rbar, tsq = average_correlation([r, r, r])
    assert np.allclose(rbar, r.entries)
    assert tsq == pytest.approx(np.trace(r.entries @ r.entries).real, rel=1e-12)


def test_average_correlation_identity_inputs():
    rs = [build_exponential(6, 0.0)] * 3
    _, tsq = average_correlation(rs)
    assert tsq == pytest.approx(6.0)


def test_average_correlation_phase_opposition():
    rs = [build_clerckx(2, 0.9, 0.0), build_clerckx(2, 0.9, 180.0)]
    _, tsq = average_correlation(rs)
    assert tsq == pytest.approx(2.0, abs=1e-12)


def test_average_correlation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        average_correlation([build_exponential(3, 0.5), build_exponential(4, 0.5)])
    with pytest.raises(DimensionMismatchError):
        average_correlation([])


def test_average_correlation_reads_any_iterable():
    rng = np.random.default_rng(12)
    rs = [build_exponential(16, 0.7)]
    rs += [build_clerckx(16, 0.7, d) for d in rng.uniform(-180, 180, size=3)]
    rs += [build_one_ring(16, s, d) for s, d in zip([5.0, 14.02], [-40.0, 25.0])]
    rbar, tsq = average_correlation(rs)
    rbar_gen, tsq_gen = average_correlation(r for r in rs)
    np.testing.assert_array_equal(rbar_gen, rbar)
    assert rbar_gen.dtype == rbar.dtype
    assert tsq_gen == tsq
    with pytest.raises(DimensionMismatchError):
        average_correlation(r for r in [])
    with pytest.raises(DimensionMismatchError):
        average_correlation(build_exponential(m, 0.5) for m in (3, 3, 4))


def assert_toeplitz_average_matches(rs):
    # average_toeplitz over the first columns gives average_correlation's
    # mean entry for entry (a zero may differ in sign) and its trace bit for bit
    rbar, tsq = average_toeplitz([r.entries[:, 0].copy() for r in rs])
    want_rbar, want_tsq = average_correlation(rs)
    np.testing.assert_array_equal(rbar, want_rbar)
    assert rbar.dtype == want_rbar.dtype
    assert np.float64(tsq).tobytes() == np.float64(want_tsq).tobytes()


@pytest.mark.parametrize(
    "m, l, xi",
    [(64, 49, 0.9), (64, 49, 0.0), (64, 49, 1.0), (7, 1, 0.3), (256, 64, 0.99), (1, 1, 0.5)],
)
def test_average_clerckx_matches_built_matrices(m, l, xi):
    # at L=49 the mean's diagonal is not exactly 1
    deltas = np.random.default_rng(m + l).uniform(-180, 180, size=l)
    assert_toeplitz_average_matches([build_clerckx(m, xi, float(d)) for d in deltas])


@pytest.mark.parametrize("m, l, xi", [(64, 6, 0.9), (64, 49, 1.0), (256, 16, 0.5), (1, 1, 0.0)])
def test_average_exponential_matches_built_matrices(m, l, xi):
    assert_toeplitz_average_matches([build_exponential(m, xi)] * l)


@pytest.mark.parametrize("m, l", [(64, 6), (256, 16), (1, 1)])
def test_average_one_ring_matches_built_matrices(m, l):
    rng = np.random.default_rng(m + l)
    spreads, doas = rng.uniform(1.0, 40.0, size=l), rng.uniform(-180, 180, size=l)
    assert_toeplitz_average_matches(
        [build_one_ring(m, float(s), float(d)) for s, d in zip(spreads, doas)]
    )


def test_average_toeplitz_rejects_empty_or_mixed_columns():
    with pytest.raises(DimensionMismatchError, match="at least one"):
        average_toeplitz([])
    # a length-1 column would broadcast into the sum if it were not checked
    for lengths in ((3, 3, 4), (3, 1), (1, 3)):
        with pytest.raises(DimensionMismatchError, match="differ in order"):
            average_toeplitz([0.5 ** np.arange(k) for k in lengths])


def test_trace_identity_on_random_ensembles():
    # product-trace route must equal M + 2*sum|upper|^2 to 1e-9 relative;
    # average_correlation raises internally if not, so just exercise it
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(2, 12))
        rs = [build_clerckx(m, rng.uniform(0, 1), rng.uniform(-180, 180)) for _ in range(3)]
        rbar, tsq = average_correlation(rs)
        assert tsq == pytest.approx(float(np.trace(rbar @ rbar).real), rel=1e-9)


def test_phase_alignment_upper_bound():
    # with equal entrywise magnitudes, Tr[Rbar^2] peaks when profiles coincide
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = int(rng.integers(2, 10))
        xi = float(rng.uniform(0.2, 0.95))
        deltas = rng.uniform(-180, 180, size=4)
        rs = [build_clerckx(m, xi, d) for d in deltas]
        _, tsq = average_correlation(rs)
        _, tsq_aligned = average_correlation([rs[0]] * 4)
        assert tsq <= tsq_aligned + 1e-9
    # equality at identical profiles
    r = build_clerckx(6, 0.9, 55.0)
    _, tsq_same = average_correlation([r, r])
    assert tsq_same == pytest.approx(float(np.trace(r.entries @ r.entries).real), rel=1e-12)


def test_randomized_constructions_keep_invariants():
    rng = np.random.default_rng(23)
    for _ in range(60):
        m = int(rng.integers(1, 16))
        pick = rng.integers(0, 3)
        if pick == 0:
            r = build_exponential(m, float(rng.uniform(0, 1)))
        elif pick == 1:
            r = build_clerckx(m, float(rng.uniform(0, 1)), float(rng.uniform(-360, 360)))
        else:
            r = build_one_ring(
                m, float(rng.uniform(0.5, 180)), float(rng.uniform(-180, 180)), 0.5
            )
        assert np.array_equal(r.entries, r.entries.conj().T)
        assert np.all(r.entries.diagonal() == 1.0)
        assert np.all(np.abs(r.entries) <= 1 + 1e-9)
        assert np.linalg.eigvalsh(r.entries)[0] >= PSD_FLOOR


@pytest.mark.parametrize(
    "entries",
    [
        [[1.0, 0.5], [0.4, 1.0]],  # asymmetric, real
        [[1.0, 0.5 + 0.1j], [0.4 - 0.1j, 1.0]],  # asymmetric real part
        [[1.0, 0.5 + 0.2j], [0.5 + 0.2j, 1.0]],  # imaginary part not mirrored
        [[1.0, complex(0.5, np.nan)], [complex(0.5, np.nan), 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[1.0, complex(0.5, -0.0)], [complex(0.5, 0.0), 1.0]],  # -0.0 == -(+0.0)
        [[complex(1.0, -0.0), 0.5j], [-0.5j, 1.0]],  # a signed-zero diagonal
        [[complex(1.0, 1e-3), 0.5], [0.5, 1.0]],  # a complex diagonal
        [[1.0, 0.5], [0.5, 1.0]],
        build_one_ring(8, 14.02, 33.0).entries.tolist(),  # genuinely Hermitian
    ],
)
def test_hermitian_check_is_the_conjugate_transpose_rule(entries):
    # the check reads real and imaginary parts apart, and must accept and
    # reject what comparing with the conjugate transpose does
    e = np.array(entries)
    if np.array_equal(e, e.conj().T):
        CorrelationMatrix(e)
    else:
        with pytest.raises(InvalidParameterError, match="Hermitian"):
            CorrelationMatrix(e)


@pytest.mark.parametrize("m", [1, 2, 7, 256])
def test_hermitian_toeplitz_equals_the_lag_index_gather(m):
    # the strided copy takes each entry from the lag the index i - j names,
    # bit for bit, signed zeros and NaN payloads included
    rng = np.random.default_rng(m)
    lags = np.subtract.outer(np.arange(m), np.arange(m)) + (m - 1)
    complex_col = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    complex_col[-1:] = complex(np.nan, -0.0)
    for col in (rng.standard_normal(m), complex_col, np.full(m, -0.0)):
        full = np.concatenate((col.conj()[:0:-1], col))
        built = _hermitian_toeplitz(col)
        assert built.dtype == col.dtype and built.shape == (m, m)
        assert built.flags.c_contiguous and built.flags.writeable and built.flags.owndata
        assert built.tobytes() == full[lags].tobytes()


def test_toeplitz_builds_match_scipy_exactly():
    from scipy.linalg import toeplitz

    for m in (1, 2, 7, 64):
        col = 0.9 ** np.arange(m, dtype=np.float64)
        assert np.array_equal(build_exponential(m, 0.9).entries, toeplitz(col))
        base = 0.9 * np.exp(1j * np.deg2rad(27.3))
        row = base ** np.arange(m)
        row[0] = 1.0
        assert np.array_equal(build_clerckx(m, 0.9, 27.3).entries, toeplitz(row.conj(), row))
        ring = build_one_ring(m, 14.02, 33.0).entries
        assert np.array_equal(ring, toeplitz(ring[:, 0], ring[:, 0].conj()))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"variant": "exponential", "xi": float("nan")},
        {"variant": "one_ring", "xi": float("nan")},
        {"variant": "clerckx", "xi": 0.9, "phase_range_deg": (0.0, float("nan"))},
        {"variant": "clerckx", "xi": 0.9, "phase_range_deg": (float("-inf"), 38.0)},
        {"variant": "one_ring", "angular_spread_deg": float("nan")},
        {"variant": "one_ring", "mean_doa_deg": float("nan")},
        {"variant": "one_ring", "mean_doa_deg": float("inf")},
        {"variant": "one_ring", "spacing_wavelengths": float("nan")},
        {"variant": "one_ring", "spacing_wavelengths": float("inf")},
        {"variant": "exponential", "xi": 10**400},
        {"variant": "clerckx", "xi": 0.9, "phase_range_deg": (0, 10**400)},
        {"variant": "one_ring", "angular_spread_deg": -(10**400)},
    ],
)
def test_model_spec_rejects_non_finite_values(kwargs):
    with pytest.raises(InvalidParameterError, match="finite"):
        CorrelationModelSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"variant": "exponential", "xi": "0.5"}, "xi"),
        ({"variant": "exponential", "xi": None}, "xi"),
        ({"variant": "exponential", "xi": True}, "xi"),
        ({"variant": "clerckx", "xi": 0.9, "phase_range_deg": ("0", 38.0)}, "phase_range_deg"),
        ({"variant": "one_ring", "angular_spread_deg": None}, "angular_spread_deg"),
        ({"variant": "one_ring", "spacing_wavelengths": "0.5"}, "spacing_wavelengths"),
        ({"variant": "clerckx", "xi": 0.9, "phase_range_deg": (0.0, None)}, "phase_range_deg"),
        ({"variant": "clerckx", "xi": 0.9, "phase_range_deg": 5}, "phase_range_deg"),
        ({"variant": "clerckx", "xi": 0.9, "phase_range_deg": None}, "phase_range_deg"),
        ({"variant": "clerckx", "xi": 0.9, "phase_range_deg": "05"}, "phase_range_deg"),
        ({"variant": "one_ring", "mean_doa_deg": [0.0]}, "mean_doa_deg"),
    ],
)
def test_model_spec_rejects_non_real_values(kwargs, field):
    with pytest.raises(InvalidParameterError, match="real number") as raised:
        CorrelationModelSpec(**kwargs)
    assert raised.value.field == field


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"variant": "bogus"}, "variant"),
        ({"variant": ["x"]}, "variant"),
        ({"variant": None}, "variant"),
        (
            {
                "variant": "one_ring",
                "angular_spread_deg": "measured",
                "measured": {"spread_mean_deg": 20.0},
            },
            "measured",
        ),
    ],
)
def test_model_spec_rejects_bad_variant_or_fit(kwargs, field):
    with pytest.raises(InvalidParameterError) as raised:
        CorrelationModelSpec(**kwargs)
    assert raised.value.field == field


def test_model_spec_stores_numbers_as_floats():
    clerckx = CorrelationModelSpec(variant="clerckx", xi=1, phase_range_deg=[0, np.int64(38)])
    ring = CorrelationModelSpec(variant="one_ring", angular_spread_deg=14, mean_doa_deg=0)
    ring = replace(ring, spacing_wavelengths=1)
    values = [clerckx.xi, *clerckx.phase_range_deg, ring.angular_spread_deg, ring.mean_doa_deg]
    assert [type(v) for v in values + [ring.spacing_wavelengths]] == [float] * 6
    assert clerckx == CorrelationModelSpec(variant="clerckx", xi=1.0, phase_range_deg=(0.0, 38.0))


def test_model_spec_keeps_phase_range_as_a_pair():
    spec = CorrelationModelSpec(variant="clerckx", xi=0.9, phase_range_deg=[0.0, 38.0])
    assert spec.phase_range_deg == (0.0, 38.0)
    assert hash(spec) == hash(replace(spec, phase_range_deg=(0.0, 38.0)))
    with pytest.raises(InvalidParameterError, match="pair"):
        CorrelationModelSpec(variant="clerckx", xi=0.9, phase_range_deg=[0.0, 1.0, 2.0])


def test_model_spec_owns_the_measured_fit():
    fit = MeasuredAngularModel(spread_mean_deg=20.0)
    # checked before any other field, as the scenario file nests the fit
    for spread in (14.02, float("nan")):
        with pytest.raises(InvalidParameterError, match="requires angular_spread_deg") as exc:
            CorrelationModelSpec(variant="one_ring", angular_spread_deg=spread, measured=fit)
        assert exc.value.field == "measured"
    with pytest.raises(InvalidParameterError) as exc:
        CorrelationModelSpec(variant="exponential", xi=float("nan"), measured=fit)
    assert exc.value.field == "measured"

    default = CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured")
    assert default.measured == MeasuredAngularModel()
    assert CorrelationModelSpec(variant="one_ring").measured is None
    fitted = replace(default, measured=fit)
    assert fitted.measured is fit
    assert fitted != default
    assert hash(fitted) != hash(default)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"variant": "exponential", "xi": 0.9, "angular_spread_deg": 20.0}, "angular_spread_deg"),
        ({"variant": "clerckx", "xi": 0.9, "angular_spread_deg": "measured"}, "angular_spread_deg"),
        ({"variant": "exponential", "xi": 0.9, "phase_range_deg": (0.0, 38.0)}, "phase_range_deg"),
        ({"variant": "clerckx", "xi": 0.9, "mean_doa_deg": 0.0}, "mean_doa_deg"),
        ({"variant": "clerckx", "xi": 0.9, "spacing_wavelengths": 1.0}, "spacing_wavelengths"),
        ({"variant": "one_ring", "xi": 0.5}, "xi"),
        ({"variant": "one_ring", "phase_range_deg": (0.0, 38.0)}, "phase_range_deg"),
    ],
)
def test_model_spec_rejects_fields_its_variant_does_not_read(kwargs, field):
    # such a field would split one model into two unequal specs
    with pytest.raises(InvalidParameterError, match="does not apply") as exc:
        CorrelationModelSpec(**kwargs)
    assert exc.value.field == field


def test_model_spec_accepts_defaults_of_fields_its_variant_does_not_read():
    spec = CorrelationModelSpec(
        variant="exponential", xi=0.9, phase_range_deg=[0.0, 0.0], angular_spread_deg=14.02
    )
    assert spec == CorrelationModelSpec(variant="exponential", xi=0.9)
