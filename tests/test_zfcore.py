import numpy as np
import pytest
from closed_form_variants import (
    l_scaled_zf_snr,
    moment_trace_gram_squared,
    neumann_trace_inverse,
)

from corrdiv import (
    CorrelationModelSpec,
    InvalidParameterError,
    build_clerckx,
    build_exponential,
    build_one_ring,
    expected_sum_se_closed_form,
    expected_zf_snr_closed_form,
    factor,
)
from corrdiv import kernels, montecarlo
from corrdiv.montecarlo import run_drop
from corrdiv.zfcore import draw_fading


def rng(seed=0):
    return np.random.default_rng(seed)


def iid_block(generator, l, m, n_trials):
    """(n_trials, L, M) iid CN(0, 1) entries, every terminal drawn to full rank."""
    return draw_fading([generator] * l, [m] * l, n_trials)


def iid_channel(generator, l, m):
    return iid_block(generator, l, m, n_trials=1)[0]


def eta(h):
    """eta = Tr[(HH^H)^-1] / L of one (L, M) channel, from the Gram kernel."""
    return kernels.gram_stats(h[np.newaxis])[0] / len(h)


class TestDrawFading:
    def test_first_columns_do_not_depend_on_the_rank(self):
        # terminal l's first r columns are the same drawn to r or to more
        low = draw_fading([rng(4), rng(5), rng(6)], [2, 5, 1], n_trials=130)
        high = draw_fading([rng(4), rng(5), rng(6)], [4, 7, 9], n_trials=130)
        assert low.shape == (130, 3, 5) and high.shape == (130, 3, 9)
        for l, r in enumerate([2, 5, 1]):
            assert np.array_equal(low[:, l, :r], high[:, l, :r])
            assert np.all(low[:, l, r:] == 0)

    def test_batch_reads_one_block_interleaved(self):
        # each terminal's stream fills its columns in order, every trial of
        # column k before column k + 1, as interleaved (real, imaginary) pairs
        w = draw_fading([rng(5), rng(6)], [4, 3], n_trials=130)
        for l, (seed, r) in enumerate([(5, 4), (6, 3)]):
            z = rng(seed).standard_normal((r, 260))
            want = np.sqrt(0.5) * (z[:, 0::2] + 1j * z[:, 1::2])
            assert np.array_equal(w[:, l, :r], want.T)

    def test_shared_generator_draws_each_terminal_in_turn(self):
        # one generator passed L times serves the terminals in turn, r_l pairs each
        w = draw_fading([rng(7)] * 3, [2, 4, 1], n_trials=1)
        z = rng(7).standard_normal(14)
        pairs = np.sqrt(0.5) * (z[0::2] + 1j * z[1::2])
        assert np.array_equal(w[0, 0, :2], pairs[:2])
        assert np.array_equal(w[0, 1, :4], pairs[2:6])
        assert np.array_equal(w[0, 2, :1], pairs[6:])


def conjugate_factors(*rs):
    return np.stack([factor(r) for r in rs])


def row_covariance(h, l):
    """Sample E[conj(h_l) h_l^T] over the trials of an (n, L, M) channel batch."""
    return np.einsum("ti,tj->ij", h[:, l].conj(), h[:, l]) / len(h)


class TestSampleChannel:
    """The covariance of the channels ``kernels.channels`` synthesizes."""

    def test_identity_covariance(self):
        bh = conjugate_factors(*[build_exponential(4, 0.0)] * 2)
        h = kernels.channels(iid_block(rng(1), 2, 4, 10_000), bh)
        assert np.max(np.abs(row_covariance(h, 0) - np.eye(4))) < 0.05

    def test_correlated_covariance(self):
        r = build_exponential(4, 0.9)
        h = kernels.channels(iid_block(rng(2), 2, 4, 10_000), conjugate_factors(r, r))
        assert np.max(np.abs(row_covariance(h, 1) - r.entries)) < 0.05

    def test_clerckx_covariance(self):
        # the engine's phase-ramped shared factor, against each terminal's own matrix
        spec = CorrelationModelSpec(variant="clerckx", xi=0.8, phase_range_deg=(10.0, 38.0))
        scenario = montecarlo.Scenario(m=4, l=2, model=spec, n_drops=1, n_fading=1, seed=9)
        _, bh = montecarlo._terminal_profiles(scenario, montecarlo._stream(9, 0, 1))
        lane1 = montecarlo._stream(9, 0, 1)
        deltas = [float(lane1.uniform(10.0, 38.0)) for _ in range(2)]
        h = kernels.channels(iid_block(rng(3), 2, 4, 10_000), bh)
        for l, delta in enumerate(deltas):
            want = build_clerckx(4, 0.8, delta).entries
            assert np.max(np.abs(row_covariance(h, l) - want)) < 0.05

    def test_ragged_rank_covariance(self):
        # pivoted-Cholesky factors of different ranks read each terminal's
        # leading columns of one block drawn to each terminal's rank
        rs = [build_one_ring(256, 5.0, -40.0, 0.5), build_one_ring(256, 20.0, 25.0, 0.5)]
        bh = [factor(r) for r in rs]
        assert len(bh[0]) < len(bh[1]) < 256
        w = draw_fading([rng(4), rng(5)], [len(b) for b in bh], n_trials=8000)
        h = kernels.channels(w, bh)
        for l, r in enumerate(rs):
            assert np.max(np.abs(row_covariance(h, l) - r.entries)) < 0.05

    def test_zero_stream_stub(self):
        class ZeroStream:
            def standard_normal(self, out):
                out[...] = 0.0
                return out

        bh = conjugate_factors(*[build_exponential(3, 0.5)] * 2)
        h = kernels.channels(iid_block(ZeroStream(), 2, 3, 1), bh)
        assert np.all(h == 0)


class TestEtaExact:
    def test_orthogonal_rows(self):
        # rows scaled so HH^H = M I
        m, l = 4, 2
        h = np.sqrt(m) * np.eye(l, m, dtype=np.complex128)
        assert eta(h) == pytest.approx(1.0 / m)

    def test_scalar_case(self):
        h = np.array([[1.0 + 0j, 1.0]])
        assert eta(h) == pytest.approx(0.5)

    def test_matches_cofactor_inverse_oracle(self):
        h = iid_channel(rng(3), 2, 4)
        g = h @ h.conj().T
        a, b, c, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
        trace_inv = ((d + a) / (a * d - b * c)).real
        assert eta(h) == pytest.approx(trace_inv / 2, rel=1e-12)

    def test_scaling_law(self):
        h = iid_channel(rng(4), 3, 8)
        scaled = 2.0 * h
        assert eta(scaled) == pytest.approx(eta(h) / 4.0, rel=1e-12)

    def test_iid_wishart_trace_oracle(self):
        # E{Tr[(HH^H)^-1]} = L/(M-L) exactly for iid complex Gaussian H
        m, l, n = 64, 6, 2000
        traces = kernels.gram_stats(iid_block(rng(6), l, m, n))
        expected = l / (m - l)
        assert np.mean(traces) == pytest.approx(expected, rel=0.02)


class TestNeumann:
    def test_zero_correction_fixed_point(self):
        m, l = 8, 3
        h = np.sqrt(m) * np.eye(l, m, dtype=np.complex128)
        for order in (1, 2, 3):
            assert neumann_trace_inverse(h, order) == pytest.approx(l / m, rel=1e-12)

    def test_second_order_formula(self):
        h = iid_channel(rng(7), 4, 32)
        g = h @ h.conj().T
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
            exact = eta(h) * 6
            errors.append(abs(neumann_trace_inverse(h, 2) - exact) / exact)
        assert np.median(errors) < 0.05

    def test_order_improves_error(self):
        g = rng(9)
        wins = 0
        n = 200
        for _ in range(n):
            h = iid_channel(g, 6, 64)
            exact = eta(h) * 6
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

    def test_array_of_link_gains_matches_scalar_calls(self):
        betas = np.array([0.3, 1.0, 2.5e-9, 7.0])
        snrs = expected_zf_snr_closed_form(betas, 64, 4, 90.0, 3.2, 0.7)
        singles = [expected_zf_snr_closed_form(float(b), 64, 4, 90.0, 3.2, 0.7) for b in betas]
        assert snrs.tolist() == singles
        assert all(type(snr) is float for snr in singles)
        with pytest.raises(InvalidParameterError):
            expected_zf_snr_closed_form(np.array([1.0, 0.0]), 8, 2, 10.0, 1.0, 1.0)

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
        bh = np.stack([factor(r) for r in rs])
        # 200 000 trials put rel=0.02 at about six standard errors
        w = iid_block(rng(11), 2, 4, 200_000)
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
    from corrdiv import Scenario

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
