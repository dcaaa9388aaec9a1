"""Acceptance suite: nine go/no-go checks at their contract tolerances.

Each criterion is one test that prints a single `[criterion N] PASS/FAIL`
line straight to the terminal (bypassing capture) before asserting, so a
plain pytest run yields one status line per criterion. The full-scale
Monte Carlo results are session-scoped fixtures shared across criteria.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from closed_form_variants import l_scaled_zf_snr, moment_trace_gram_squared

from corrdiv.cli import main as cli_main
from corrdiv.corrmodels import (
    PSD_FLOOR,
    CorrelationModelSpec,
    average_correlation,
    build_clerckx,
    build_exponential,
    build_one_ring,
    factor,
)
from corrdiv.kernels import gram_eta_stats
from corrdiv.montecarlo import (
    Scenario,
    pooled_expected_snr_db,
    run_scenario,
    run_scenarios,
)
from corrdiv.propagation import GeometryConfig
from corrdiv.zfcore import draw_fading, expected_zf_snr_closed_form

M, L = 64, 6
XI = 0.9
SEED = 1009
N_DROPS, N_FADING = 200, 500
RHO_FIG_DB = 5.0

# Quoted median expected-SNR gains (phase ranges keyed by their upper edge
# in degrees, and measured over fixed angular spread). Their source is not
# in this repository and the closed form rules them out at M=64, L=6,
# xi=0.9, so they are reported beside each result but not asserted.
QUOTED_CLERCKX_GAINS_DB = {14: 0.93, 28: 2.0, 38: 3.0}
QUOTED_MEASURED_SPREAD_GAIN_DB = 3.0

# The simulated gain is checked against the closed-form gain on the same
# (drop, terminal) pairs. The closed form's level bias (0.55-0.67 dB for
# the phase models in criterion 3) does not cancel exactly between two
# scenarios, and what is left grows with the gain; it measures 2-11% of the
# predicted phase-range gains. 25% keeps every band strictly above zero and
# far below the quoted targets.
CLERCKX_CF_REL_TOL = 0.25
# The predicted spread gain is -0.059 dB. A bound below its magnitude means
# that a spread rule leaving the SNR unchanged fails the check.
MEASURED_SPREAD_CF_TOL_DB = 0.05
# Under common random numbers, link gains and rho_t scale both scenarios of
# a pair by the same factor and cancel in the gain up to rounding.
CANCELLATION_TOL_DB = 1e-9

EXPONENTIAL = CorrelationModelSpec(variant="exponential", xi=XI)
ONE_RING_FIXED = CorrelationModelSpec(
    variant="one_ring", angular_spread_deg=14.02, mean_doa_deg="uniform"
)
ONE_RING_MEASURED = CorrelationModelSpec(
    variant="one_ring", angular_spread_deg="measured", mean_doa_deg="uniform"
)


def clerckx_spec(hi_deg):
    return CorrelationModelSpec(variant="clerckx", xi=XI, phase_range_deg=(0.0, hi_deg))


@pytest.fixture
def announce(capsys):
    def _announce(criterion, ok, detail):
        with capsys.disabled():
            print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
        assert ok, f"criterion {criterion}: {detail}"

    return _announce


def _scenario(model, rho_t_db=RHO_FIG_DB, radial_law="area"):
    return Scenario(
        m=M,
        l=L,
        model=model,
        n_drops=N_DROPS,
        n_fading=N_FADING,
        seed=SEED,
        rho_t_db=rho_t_db,
        # placeholder: the pass calibrates the constant
        geometry=GeometryConfig(attenuation_constant=1.0),
        radial_law=radial_law,
    )


@pytest.fixture(scope="session")
def variant_runs():
    """Full-scale runs shared by criteria 3, 4, and 5 (common seed pairing).

    One drop-major pass, calibrated on the exponential run's baseline. The
    rho_t and radial-law variants reuse the kernel statistics of the 5 dB
    area-law runs and cost only geometry and aggregation.
    """
    scenarios = {
        "exponential": _scenario(EXPONENTIAL),
        "clerckx14": _scenario(clerckx_spec(14.0)),
        "clerckx28": _scenario(clerckx_spec(28.0)),
        "clerckx38": _scenario(clerckx_spec(38.0)),
        "one_ring_fixed": _scenario(ONE_RING_FIXED),
        "one_ring_measured": _scenario(ONE_RING_MEASURED),
    }
    for rho in (0.0, 10.0):
        scenarios[f"one_ring_fixed@{rho:g}"] = _scenario(ONE_RING_FIXED, rho_t_db=rho)
        scenarios[f"one_ring_measured@{rho:g}"] = _scenario(ONE_RING_MEASURED, rho_t_db=rho)
    # the terminal radial placement law only moves link gains, which cancel
    scenarios["exponential@radius"] = _scenario(EXPONENTIAL, radial_law="radius")
    scenarios["clerckx38@radius"] = _scenario(clerckx_spec(38.0), radial_law="radius")
    results = run_scenarios(scenarios.values(), calibrate=True)
    return dict(zip(scenarios, results))


def pooled_closed_form_snr_db(result):
    """Closed-form per-terminal SNRs in the same (drop, terminal) order."""
    return np.concatenate([d.per_terminal_closed_form_snr_db for d in result.drops])


def median_gain_db(runs, baseline, alternative, pooled=pooled_expected_snr_db):
    diff = pooled(runs[alternative]) - pooled(runs[baseline])
    return np.percentile(diff, 50.0)


def diversity_ceiling_db(trace_sq):
    """Closed-form gain of Rbar = I over an average correlation with this Tr[Rbar^2].

    Tr[Rbar^2] >= M for unit-diagonal matrices, so no diversity can beat it.
    """
    return 10.0 * np.log10((M**2 + L * trace_sq) / (M**2 + L * M))


def test_criterion_1_exact_iid_inverse_trace(announce):
    trials = 10_000
    rng = np.random.Generator(np.random.Philox(101))
    w = draw_fading([rng] * L, [M] * L, trials)
    bh = np.ascontiguousarray(np.broadcast_to(np.eye(M, dtype=np.complex128), (L, M, M)))
    mean_trace = float(np.mean(gram_eta_stats(w, bh)))

    exact = L / (M - L)
    # closed form with identity average correlation implies a trace prediction
    cf_snr = expected_zf_snr_closed_form(1.0, M, L, float(M), 1.0, 1.0)
    cf_trace = L / cf_snr

    mc_err = abs(mean_trace / exact - 1.0)
    cf_err = abs(cf_trace / exact - 1.0)
    ok = mc_err < 0.01 and cf_err < 0.01
    announce(
        1,
        ok,
        f"E{{Tr[(HH^H)^-1]}}: sampled {mean_trace:.5f} vs exact {exact:.5f} "
        f"(rel err {mc_err:.2%}), closed form {cf_trace:.5f} (rel err {cf_err:.2%}), tol 1%",
    )


def test_criterion_2_second_moment_identity(announce):
    m, l, trials = 4, 2, 100_000
    rs = [build_one_ring(m, 14.02, 30.0, 0.5), build_one_ring(m, 25.0, -60.0, 0.5)]
    bh = np.stack([factor(r) for r in rs])

    rng = np.random.Generator(np.random.Philox(202))
    z = rng.standard_normal((trials, l, 2 * m))
    w = np.sqrt(0.5) * (z[..., :m] + 1j * z[..., m:])
    h = np.empty_like(w)
    for i in range(l):
        h[:, i, :] = w[:, i, :] @ bh[i]
    gram = h @ np.conj(np.transpose(h, (0, 2, 1)))
    sampled = float(np.mean(np.sum(np.abs(gram) ** 2, axis=(1, 2))))

    predicted = moment_trace_gram_squared(rs)
    rel = abs(sampled / predicted - 1.0)
    ok = rel < 0.01
    announce(
        2,
        ok,
        f"E{{Tr[(HH^H)^2]}}: sampled {sampled:.3f} vs L(M^2 + L Tr[Rbar^2]) = "
        f"{predicted:.3f} (rel err {rel:.2%}), tol 1%",
    )


def test_criterion_3_closed_form_within_one_db(announce, variant_runs):
    variants = [
        "exponential",
        "clerckx14",
        "clerckx28",
        "clerckx38",
        "one_ring_fixed",
        "one_ring_measured",
    ]
    medians = {}
    for name in variants:
        gaps = np.concatenate(
            [
                np.abs(d.per_terminal_expected_snr_db - d.per_terminal_closed_form_snr_db)
                for d in variant_runs[name].drops
            ]
        )
        medians[name] = float(np.median(gaps))
    ok = all(v <= 1.0 for v in medians.values())
    detail = ", ".join(f"{k} {v:.3f}" for k, v in medians.items())
    announce(3, ok, f"median |sim - closed form| dB (tol 1.0): {detail}")


def test_criterion_4_phase_range_gains(announce, variant_runs):
    ranges = (14, 28, 38)
    sim = {hi: median_gain_db(variant_runs, "exponential", f"clerckx{hi}") for hi in ranges}
    cf = {
        hi: median_gain_db(
            variant_runs, "exponential", f"clerckx{hi}", pooled_closed_form_snr_db
        )
        for hi in ranges
    }
    positive_monotone = 0 < sim[14] < sim[28] < sim[38]
    agrees = all(abs(sim[hi] - cf[hi]) <= CLERCKX_CF_REL_TOL * cf[hi] for hi in ranges)

    gain38_radius = median_gain_db(variant_runs, "exponential@radius", "clerckx38@radius")
    radial_dev = abs(gain38_radius - sim[38])
    radial_ok = radial_dev <= CANCELLATION_TOL_DB

    _, exp_trace_sq = average_correlation([build_exponential(M, XI)])
    ceiling = diversity_ceiling_db(exp_trace_sq)

    ok = positive_monotone and agrees and radial_ok
    detail = ", ".join(
        f"{hi}deg sim {sim[hi]:.3f} vs closed form {cf[hi]:.3f} "
        f"(quoted {QUOTED_CLERCKX_GAINS_DB[hi]:.2f})"
        for hi in ranges
    )
    announce(
        4,
        ok,
        f"median gains over identical-profile baseline, tol {CLERCKX_CF_REL_TOL:.0%} of "
        f"closed form: {detail}; positive and monotone {positive_monotone}; 38deg gain "
        f"area {sim[38]:.3f} vs radius {gain38_radius:.3f} dB (|diff| {radial_dev:.1e}, "
        f"tol {CANCELLATION_TOL_DB:g}); "
        f"closed-form ceiling for any diversity {ceiling:.3f} dB",
    )


def test_criterion_5_measured_spread_gain(announce, variant_runs):
    sim, cf = {}, {}
    for rho, suffix in ((0.0, "@0"), (5.0, ""), (10.0, "@10")):
        pair = (variant_runs, f"one_ring_fixed{suffix}", f"one_ring_measured{suffix}")
        sim[rho] = median_gain_db(*pair)
        cf[rho] = median_gain_db(*pair, pooled_closed_form_snr_db)
    agrees = all(abs(sim[rho] - cf[rho]) <= MEASURED_SPREAD_CF_TOL_DB for rho in sim)
    rho_spread = max(sim.values()) - min(sim.values())
    rho_invariant = rho_spread <= CANCELLATION_TOL_DB

    ceiling = float(
        np.median([diversity_ceiling_db(d.trace_sq) for d in variant_runs["one_ring_fixed"].drops])
    )

    ok = agrees and rho_invariant
    detail = ", ".join(
        f"rho_t={rho:g} dB: sim {sim[rho]:.3f} vs closed form {cf[rho]:.3f}" for rho in sim
    )
    announce(
        5,
        ok,
        f"measured-vs-fixed spread median gain, tol {MEASURED_SPREAD_CF_TOL_DB} dB: {detail}; "
        f"spread across rho_t {rho_spread:.1e} (tol {CANCELLATION_TOL_DB:g}); closed-form "
        f"ceiling over the fixed spread {ceiling:.3f} dB (median per drop); "
        f"quoted {QUOTED_MEASURED_SPREAD_GAIN_DB:.0f} dB",
    )


def test_criterion_6_calibrated_fifth_percentile(announce, capsys, tmp_path):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "baseline_calibrate.yaml"
    code = cli_main(["calibrate", "--scenario", str(scenario), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    match = re.search(r"achieved 5th percentile[^:]*: (-?\d+\.\d+) dB", out)
    achieved = float(match.group(1)) if match else float("nan")
    ok = code == 0 and match is not None and abs(achieved) <= 0.1
    announce(6, ok, f"calibrate exit {code}, achieved 5th percentile {achieved:.6f} dB, tol 0.1")


def test_criterion_7_quadrature_against_simpson(announce):
    m, spread, doa, spacing, panels = 8, 14.02, 30.0, 0.5, 10**6
    built = build_one_ring(m, spread, doa, spacing).entries

    lo = np.deg2rad(doa - spread)
    hi = np.deg2rad(doa + spread)
    phi = np.linspace(lo, hi, panels + 1)
    sin_phi = np.sin(phi)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    step = (hi - lo) / panels

    worst = 0.0
    for i in range(m):
        for j in range(m):
            values = np.exp(-2j * np.pi * spacing * (i - j) * sin_phi)
            oracle = (step / 3.0) * np.sum(weights * values) / (hi - lo)
            worst = max(worst, abs(built[i, j] - oracle))
    ok = worst <= 1e-8
    announce(
        7,
        ok,
        f"max |entry - 1e6-panel Simpson| = {worst:.3e} over all {m}x{m} entries, tol 1e-8",
    )


def test_criterion_8_property_suite(announce):
    rng = np.random.Generator(np.random.Philox(303))

    # Hermitian, unit diagonal, PSD across randomized constructions
    worst_diag, worst_eig = 0.0, 0.0
    for _ in range(1000):
        order = int(rng.integers(2, 25))
        variant = rng.choice(["exponential", "clerckx", "one_ring"])
        if variant == "exponential":
            r = build_exponential(order, float(rng.uniform(0.0, 0.98)))
        elif variant == "clerckx":
            r = build_clerckx(
                order, float(rng.uniform(0.0, 0.98)), float(rng.uniform(-180.0, 180.0))
            )
        else:
            r = build_one_ring(
                order,
                float(rng.uniform(1.0, 40.0)),
                float(rng.uniform(-180.0, 180.0)),
                float(rng.uniform(0.25, 1.0)),
            )
        assert np.array_equal(r.entries, r.entries.conj().T)
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(r.entries) - 1.0))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(r.entries)[0]))
    hermitian_ok = worst_diag < 1e-12 and worst_eig >= PSD_FLOOR

    # product trace vs entry-sum identity
    worst_trace = 0.0
    for _ in range(200):
        order = int(rng.integers(3, 17))
        count = int(rng.integers(2, 7))
        rs = [
            build_clerckx(order, float(rng.uniform(0.2, 0.95)), float(rng.uniform(-180, 180)))
            for _ in range(count)
        ]
        rbar, trace_sq = average_correlation(rs)
        direct = float(np.trace(rbar @ rbar).real)
        upper = rbar[np.triu_indices(order, k=1)]
        identity_form = order + 2.0 * float(np.sum(np.abs(upper) ** 2))
        worst_trace = max(
            worst_trace,
            abs(direct / trace_sq - 1.0),
            abs(identity_form / trace_sq - 1.0),
        )
    trace_ok = worst_trace < 1e-9

    # phase alignment bounds the average-correlation energy from above
    bound_ok = True
    cap = float(np.sum(build_exponential(12, 0.85).entries ** 2))
    for _ in range(100):
        rs = [
            build_clerckx(12, 0.85, float(rng.uniform(-180, 180)))
            for _ in range(4)
        ]
        _, trace_sq = average_correlation(rs)
        bound_ok = bound_ok and trace_sq <= cap + 1e-9
    aligned = [build_clerckx(12, 0.85, 17.0)] * 4
    _, aligned_trace = average_correlation(aligned)
    equality_ok = abs(aligned_trace / cap - 1.0) < 1e-12

    # worker-count determinism at the summary level
    scenario = Scenario(
        m=16,
        l=3,
        model=ONE_RING_MEASURED,
        n_drops=6,
        n_fading=12,
        seed=SEED,
        rho_t_db=RHO_FIG_DB,
    )
    serial = run_scenario(scenario, workers=1)
    pooled = run_scenario(scenario, workers=2)
    workers_ok = serial.summary == pooled.summary and all(
        np.array_equal(a.per_terminal_expected_snr_db, b.per_terminal_expected_snr_db)
        for a, b in zip(serial.drops, pooled.drops)
    )

    ok = hermitian_ok and trace_ok and bound_ok and equality_ok and workers_ok
    announce(
        8,
        ok,
        f"1000 constructions Hermitian/unit-diag/PSD {hermitian_ok} "
        f"(worst diag dev {worst_diag:.1e}, worst eig {worst_eig:.1e}); "
        f"trace identity {trace_ok} (worst rel {worst_trace:.1e}); "
        f"alignment bound {bound_ok} with equality {equality_ok}; "
        f"worker determinism {workers_ok}",
    )


def test_criterion_9_denominator_scaling_regression(announce):
    exact = float(M - L)
    base = expected_zf_snr_closed_form(1.0, M, L, float(M), 1.0, 1.0)
    scaled = l_scaled_zf_snr(1.0, M, L, float(M), 1.0, 1.0)
    base_err = abs(base / exact - 1.0)
    factor_vs_l = (exact / scaled) / L
    ok = base_err < 0.01 and abs(factor_vs_l - 1.0) < 0.01
    announce(
        9,
        ok,
        f"default form {base:.3f} vs exact {exact:.0f} (rel err {base_err:.2%}); "
        f"L-scaled variant {scaled:.3f} is off by {exact / scaled:.3f} ~= L={L}",
    )
