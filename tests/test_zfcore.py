import numpy as np
import pytest
from closed_form_variants import l_scaled_zf_snr

from corrdiv import (
    ChannelMatrix,
    IllConditionedChannelError,
    InvalidParameterError,
    build_clerckx,
    build_exponential,
    build_one_ring,
    draw_fading,
    expected_sum_se_closed_form,
    expected_zf_snr_closed_form,
    factor,
    moment_trace_gram_squared,
    neumann_trace_inverse,
    sample_channel,
    zf_eta_exact,
    zf_snr_instantaneous,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def iid_channel(generator, l, m):
    return ChannelMatrix(draw_fading(generator, l, m))


class TestDrawFading:
    def test_batch_equals_successive_single_draws(self):
        # one 130-trial block reads the stream exactly as 130 single trials do
        batch = draw_fading(rng(4), 3, 5, n_trials=130)
        g = rng(4)
        singles = np.stack([draw_fading(g, 3, 5) for _ in range(130)])
        assert batch.shape == (130, 3, 5)
        assert np.array_equal(batch, singles)

    def test_batch_reads_one_block_interleaved(self):
        z = rng(5).standard_normal((130, 3, 10))
        want = np.sqrt(0.5) * (z[..., 0::2] + 1j * z[..., 1::2])
        assert np.array_equal(draw_fading(rng(5), 3, 5, n_trials=130), want)


class TestSampleChannel:
    def test_identity_covariance(self):
        factors = [factor(build_exponential(4, 0.0))] * 2
        g = rng(1)
        acc = np.zeros((4, 4), dtype=np.complex128)
        n = 10_000
        for _ in range(n):
            h = sample_channel(factors, g).entries
            acc += h[0][:, None].conj() * h[0][None, :]
        assert np.max(np.abs(acc / n - np.eye(4))) < 0.05

    def test_correlated_covariance(self):
        r = build_exponential(4, 0.9)
        factors = [factor(r)] * 2
        g = rng(2)
        acc = np.zeros((4, 4), dtype=np.complex128)
        n = 10_000
        for _ in range(n):
            h = sample_channel(factors, g).entries
            acc += h[1][:, None].conj() * h[1][None, :]
        assert np.max(np.abs(acc / n - r.entries)) < 0.05

    def test_zero_stream_stub(self):
        class ZeroStream:
            def standard_normal(self, out):
                out[...] = 0.0
                return out

        factors = [factor(build_exponential(3, 0.5))] * 2
        h = sample_channel(factors, ZeroStream())
        assert np.all(h.entries == 0)

    def test_rejects_more_terminals_than_antennas(self):
        factors = [factor(build_exponential(2, 0.0))] * 3
        with pytest.raises(InvalidParameterError):
            sample_channel(factors, rng())


class TestEtaExact:
    def test_orthogonal_rows(self):
        # rows scaled so HH^H = M I
        m, l = 4, 2
        h = ChannelMatrix(np.sqrt(m) * np.eye(l, m, dtype=np.complex128))
        assert zf_eta_exact(h) == pytest.approx(1.0 / m)

    def test_scalar_case(self):
        h = ChannelMatrix(np.array([[1.0 + 0j, 1.0]]))
        assert zf_eta_exact(h) == pytest.approx(0.5)

    def test_matches_cofactor_inverse_oracle(self):
        h = iid_channel(rng(3), 2, 4)
        g = h.entries @ h.entries.conj().T
        a, b, c, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
        trace_inv = ((d + a) / (a * d - b * c)).real
        assert zf_eta_exact(h) == pytest.approx(trace_inv / 2, rel=1e-12)

    def test_scaling_law(self):
        h = iid_channel(rng(4), 3, 8)
        scaled = ChannelMatrix(2.0 * h.entries)
        assert zf_eta_exact(scaled) == pytest.approx(zf_eta_exact(h) / 4.0, rel=1e-12)

    def test_ill_conditioned_raises(self):
        e = np.ones((2, 4), dtype=np.complex128)  # identical rows, singular Gram
        with pytest.raises(IllConditionedChannelError):
            zf_eta_exact(ChannelMatrix(e))


class TestInstantaneousSnr:
    def test_unit_case(self):
        m, l = 4, 2
        h = ChannelMatrix(np.eye(l, m, dtype=np.complex128))  # Gram = I, eta = 1
        report = zf_snr_instantaneous(h, [1.0, 1.0], rho_t=1.0, sigma2=1.0)
        assert report.eta == pytest.approx(1.0)
        assert np.allclose(report.per_terminal_snr_linear, 1.0)
        assert report.sum_se_bits == pytest.approx(2.0)

    def test_linearity_in_transmit_power(self):
        h = iid_channel(rng(5), 2, 6)
        betas = [0.5, 2.0]
        low = zf_snr_instantaneous(h, betas, rho_t=1.0, sigma2=1.0)
        high = zf_snr_instantaneous(h, betas, rho_t=2.0, sigma2=1.0)
        assert np.allclose(high.per_terminal_snr_linear, 2 * low.per_terminal_snr_linear)

    def test_iid_wishart_trace_oracle(self):
        # E{Tr[(HH^H)^-1]} = L/(M-L) exactly for iid complex Gaussian H
        m, l, n = 64, 6, 2000
        g = rng(6)
        traces = []
        for _ in range(n):
            h = iid_channel(g, l, m)
            traces.append(zf_eta_exact(h) * l)
        expected = l / (m - l)
        assert np.mean(traces) == pytest.approx(expected, rel=0.02)


class TestNeumann:
    def test_zero_correction_fixed_point(self):
        m, l = 8, 3
        h = ChannelMatrix(np.sqrt(m) * np.eye(l, m, dtype=np.complex128))
        for order in (1, 2, 3):
            assert neumann_trace_inverse(h, order) == pytest.approx(l / m, rel=1e-12)

    def test_second_order_formula(self):
        h = iid_channel(rng(7), 4, 32)
        g = h.entries @ h.entries.conj().T
        m = 32
        by_hand = (
            3 * 4 - 3 * np.trace(g).real / m + np.trace(g @ g).real / m**2
        ) / m
        assert neumann_trace_inverse(h, 2) == pytest.approx(by_hand, rel=1e-12)

    def test_close_to_exact_for_tall_iid(self):
        # pre-study over 1e3 iid instances: median relative error ~1%, p95 ~4%
        g = rng(8)
        errors = []
        for _ in range(20):
            h = iid_channel(g, 6, 64)
            exact = zf_eta_exact(h) * 6
            errors.append(abs(neumann_trace_inverse(h, 2) - exact) / exact)
        assert np.median(errors) < 0.05

    def test_order_improves_error(self):
        g = rng(9)
        wins = 0
        n = 200
        for _ in range(n):
            h = iid_channel(g, 6, 64)
            exact = zf_eta_exact(h) * 6
            e1 = abs(neumann_trace_inverse(h, 1) - exact)
            e2 = abs(neumann_trace_inverse(h, 2) - exact)
            wins += e2 <= e1
        assert wins >= 0.95 * n

    def test_rejects_unsupported_order(self):
        h = iid_channel(rng(10), 2, 4)
        for order in (0, 4, -1):
            with pytest.raises(InvalidParameterError):
                neumann_trace_inverse(h, order)


class TestClosedForm:
    def test_iid_point_value(self):
        # trace_sq = M collapses the denominator to M^2 + LM
        snr = expected_zf_snr_closed_form(1.0, 64, 6, 64.0, 1.0, 1.0)
        assert snr == pytest.approx(262144 / 4480, rel=1e-12)
        # within 1% of the exact-oracle value M - L = 58
        assert abs(snr / 58.0 - 1) < 0.01

    def test_fully_correlated_single_terminal(self):
        m = 16
        snr = expected_zf_snr_closed_form(1.0, m, 1, float(m**2), 1.0, 1.0)
        assert snr == pytest.approx(m / 2)

    def test_monotone_in_trace_sq(self):
        lo = expected_zf_snr_closed_form(1.0, 32, 4, 40.0, 1.0, 1.0)
        hi = expected_zf_snr_closed_form(1.0, 32, 4, 80.0, 1.0, 1.0)
        assert hi < lo

    def test_l_scaled_variant_divides_by_l(self):
        base = expected_zf_snr_closed_form(2.0, 64, 6, 500.0, 1.5, 1.0)
        scaled = l_scaled_zf_snr(2.0, 64, 6, 500.0, 1.5, 1.0)
        assert scaled == pytest.approx(base / 6, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            expected_zf_snr_closed_form(1.0, 4, 6, 10.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            expected_zf_snr_closed_form(1.0, 8, 2, 4.0, 1.0, 1.0)  # trace_sq < M
        with pytest.raises(InvalidParameterError):
            expected_zf_snr_closed_form(-1.0, 8, 2, 10.0, 1.0, 1.0)

    def test_argmax_invariant_to_power_scaling(self):
        candidates = [70.0, 120.0, 260.0]
        ranks_low = [expected_zf_snr_closed_form(1.0, 64, 6, t, 1.0, 1.0) for t in candidates]
        ranks_high = [expected_zf_snr_closed_form(1.0, 64, 6, t, 31.6, 1.0) for t in candidates]
        assert np.argmax(ranks_low) == np.argmax(ranks_high)


class TestSumSe:
    def test_single_terminal_unit_snr(self):
        # choose trace_sq so the closed-form SNR is exactly 1
        m = 4
        trace_sq = (m**3 - m**2)  # M^3/(M^2 + trace_sq) = 1 at L = 1
        se = expected_sum_se_closed_form([1.0], m, 1, float(trace_sq), 1.0, 1.0)
        assert se == pytest.approx(1.0, rel=1e-12)

    def test_equal_gains_symmetry(self):
        se = expected_sum_se_closed_form([2.0] * 3, 16, 3, 20.0, 1.0, 1.0)
        single = expected_zf_snr_closed_form(2.0, 16, 3, 20.0, 1.0, 1.0)
        assert se == pytest.approx(3 * np.log2(1 + single), rel=1e-12)


class TestMomentIdentity:
    def test_single_terminal_identity_matrix(self):
        rs = [build_exponential(4, 0.0)]
        assert moment_trace_gram_squared(rs) == pytest.approx(4**2 + 4)

    def test_identical_profiles(self):
        r = build_clerckx(4, 0.8, 25.0)
        tr2 = float(np.trace(r.entries @ r.entries).real)
        assert moment_trace_gram_squared([r, r]) == pytest.approx(2 * (16 + 2 * tr2), rel=1e-12)

    def test_against_monte_carlo(self):
        rs = [build_one_ring(4, 14.02, 30.0, 0.5), build_one_ring(4, 25.0, -60.0, 0.5)]
        bh = np.stack([factor(r).factor.conj().T for r in rs])
        # 200 000 trials put rel=0.02 at about six standard errors
        w = draw_fading(rng(11), 2, 4, n_trials=200_000)
        h = np.einsum("tlm,lmk->tlk", w, bh)
        gram = h @ h.conj().transpose(0, 2, 1)
        acc = np.einsum("tij,tji->t", gram, gram).real
        predicted = moment_trace_gram_squared(rs)
        assert np.mean(acc) == pytest.approx(predicted, rel=0.02)


def test_identical_profile_lower_bound_on_closed_form():
    # among equal-magnitude ensembles the aligned one maximizes trace_sq,
    # hence minimizes the closed-form SNR
    from corrdiv import average_correlation

    rng_ = np.random.default_rng(12)
    m, l = 16, 4
    for _ in range(20):
        xi = float(rng_.uniform(0.3, 0.95))
        rs = [build_clerckx(m, xi, float(d)) for d in rng_.uniform(-180, 180, l)]
        _, tsq_div = average_correlation(rs)
        _, tsq_same = average_correlation([rs[0]] * l)
        snr_div = expected_zf_snr_closed_form(1.0, m, l, tsq_div, 1.0, 1.0)
        snr_same = expected_zf_snr_closed_form(1.0, m, l, tsq_same, 1.0, 1.0)
        assert snr_same <= snr_div + 1e-12


def test_sum_se_closed_form_tracks_simulation_at_scale():
    # larger configuration: expected sum SE from the closed form stays within
    # a 1 dB-equivalent of the Monte Carlo average
    from corrdiv import CorrelationModelSpec, Scenario, run_drop

    spec = CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured")
    scenario = Scenario(m=128, l=10, model=spec, n_drops=8, n_fading=200, seed=99)
    gaps = []
    for d in range(scenario.n_drops):
        drop = run_drop(scenario, d)
        # convert the SE ratio to an equivalent dB figure via 2^(SE/L) - 1
        se_sim = drop.sum_se_sim_bits
        se_cf = drop.sum_se_cf_bits
        snr_sim = 2 ** (se_sim / 10) - 1
        snr_cf = 2 ** (se_cf / 10) - 1
        gaps.append(abs(10 * np.log10(snr_sim / snr_cf)))
    assert np.median(gaps) < 1.0
