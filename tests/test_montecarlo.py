"""Tests for drop orchestration, aggregation, and the RNG lane discipline."""

import dataclasses
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from corrdiv import kernels, montecarlo
from corrdiv.corrmodels import (
    CorrelationModelSpec,
    average_correlation,
    build_clerckx,
    build_exponential,
)
from corrdiv.errors import InvalidParameterError, RunFailureError
from corrdiv.propagation import GeometryConfig
from corrdiv.zfcore import draw_fading
from corrdiv.montecarlo import (
    Scenario,
    calibrate_attenuation_constant,
    calibration_baseline,
    pooled_expected_snr_db,
    pooled_instantaneous_snr_db,
    run_drop,
    run_scenario,
    run_scenarios,
)


def exp_scenario(**overrides):
    base = dict(
        m=8,
        l=2,
        model=CorrelationModelSpec(variant="exponential", xi=0.6),
        n_drops=2,
        n_fading=4,
        seed=9,
    )
    base.update(overrides)
    return Scenario(**base)


# rank-1 profiles whose phases differ by at most 1e-9 deg: the terminals'
# matrices differ, so the scenario is accepted, but every Gram matrix is
# numerically singular
DEGENERATE = CorrelationModelSpec(variant="clerckx", xi=1.0, phase_range_deg=(0.0, 1e-9))


class TestScenarioValidation:
    def test_rejects_more_terminals_than_antennas(self):
        with pytest.raises(InvalidParameterError):
            exp_scenario(m=2, l=3)

    def test_rejects_empty_loops(self):
        with pytest.raises(InvalidParameterError):
            exp_scenario(n_drops=0)
        with pytest.raises(InvalidParameterError):
            exp_scenario(n_fading=0)

    def test_list_phase_range_builds_and_runs(self):
        # specs are hashed by the rank cache and the statistics key
        listed = exp_scenario(
            model=CorrelationModelSpec(variant="clerckx", xi=0.6, phase_range_deg=[0, 38])
        )
        paired = exp_scenario(
            model=CorrelationModelSpec(variant="clerckx", xi=0.6, phase_range_deg=(0, 38))
        )
        assert listed == paired
        assert run_scenario(listed).summary == run_scenario(paired).summary

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(InvalidParameterError):
            exp_scenario(seed=-1)
        with pytest.raises(InvalidParameterError):
            exp_scenario(seed=2**64)

    @pytest.mark.parametrize("field", ["m", "l", "n_drops", "n_fading", "seed"])
    @pytest.mark.parametrize("value", [2.0, True, "2", None])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(InvalidParameterError) as raised:
            exp_scenario(**{field: value})
        assert raised.value.field == field

    @pytest.mark.parametrize(
        "field, value", [("model", None), ("model", "exponential"), ("geometry", None)]
    )
    def test_rejects_wrong_typed_model_or_geometry(self, field, value):
        with pytest.raises(InvalidParameterError) as raised:
            exp_scenario(**{field: value})
        assert raised.value.field == field

    def test_stores_numpy_integers_as_int(self):
        scenario = exp_scenario(
            m=np.int64(8), l=np.int32(2), n_drops=np.uint8(2), seed=np.uint64(2**63)
        )
        assert scenario == exp_scenario(seed=2**63)
        for name in ("m", "l", "n_drops", "n_fading", "seed"):
            assert type(getattr(scenario, name)) is int

    @pytest.mark.parametrize(
        "name, at_ceiling, fields",
        [
            # one 4 GiB correlation matrix; the exponential rank rule builds none
            ("m", 16384, "m"),
            # one drop's (n_fading, 2, 8) fading block
            ("n_fading", montecarlo.MAX_ARRAY_BYTES // 256, ("n_fading", "l", "m")),
            # the n_drops x 4 x 6 instantaneous SNRs of the L=6 calibration
            # baseline, which pools more than this L=2 run
            ("n_drops", montecarlo.MAX_ARRAY_BYTES // 192, ("n_drops", "n_fading")),
        ],
    )
    def test_rejects_arrays_past_the_ceiling(self, name, at_ceiling, fields):
        exp_scenario(**{name: at_ceiling})
        with pytest.raises(InvalidParameterError, match="more than 4 GiB") as exc:
            exp_scenario(**{name: at_ceiling + 1})
        assert exc.value.field == fields

    def test_rejects_a_calibration_pool_past_the_ceiling(self):
        # the 10^6 x 500 kept trials take 3.7 GiB, but the instantaneous SNRs
        # of their 6 terminals, which calibration pools, would take 22.4 GiB
        model = CorrelationModelSpec(variant="exponential", xi=0.9)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="instantaneous SNRs") as exc:
                exp_scenario(m=64, l=6, model=model, n_drops=10**6, n_fading=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.field == ("n_drops", "n_fading")
        assert peak < 1 << 16, peak

    def test_rejects_nonpositive_noise_power(self):
        with pytest.raises(InvalidParameterError):
            exp_scenario(sigma2=0.0)

    def test_rejects_unknown_radial_law(self):
        with pytest.raises(InvalidParameterError):
            exp_scenario(radial_law="volume")

    def test_measured_spread_autofills_angular_model(self):
        spec = CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured")
        scenario = exp_scenario(model=spec)
        assert scenario.model.measured is not None
        assert scenario.model.measured.spread_mean_deg == 14.02

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rho_t_db": float("nan")},
            {"rho_t_db": float("inf")},
            {"sigma2": float("inf")},
            {"sigma2": float("nan")},
            {"rho_t_db": 10**400},
            {"sigma2": -(10**400)},
        ],
    )
    def test_rejects_non_finite_values(self, overrides):
        with pytest.raises(InvalidParameterError, match="finite"):
            exp_scenario(**overrides)

    def test_stores_numbers_as_floats(self):
        scenario = exp_scenario(rho_t_db=5, sigma2=np.int64(2))
        assert type(scenario.rho_t_db) is float and type(scenario.sigma2) is float
        assert scenario == exp_scenario(rho_t_db=5.0, sigma2=2.0)

    @pytest.mark.parametrize(
        "model, m, l",
        [
            (CorrelationModelSpec(variant="exponential", xi=1.0), 8, 2),
            (CorrelationModelSpec(variant="clerckx", xi=1.0, phase_range_deg=(9.0, 9.0)), 8, 2),
            # 27 of the 64 eigenvalues clear lam_max / COND_MAX
            (
                CorrelationModelSpec(variant="one_ring", angular_spread_deg=14.02, mean_doa_deg=0.0),
                64,
                28,
            ),
        ],
        ids=["exponential_rank1", "clerckx_equal_phases", "one_ring_fixed_rank27"],
    )
    def test_rejects_shared_profile_of_rank_below_l(self, model, m, l):
        with pytest.raises(InvalidParameterError, match="numerical rank") as info:
            exp_scenario(m=m, l=l, model=model)
        assert info.value.field == "l"
        exp_scenario(m=m, l=l - 1, model=model)  # one terminal fewer fits

    def test_rank_rule_counts_eigenvalues_above_the_condition_floor(self):
        fixed = CorrelationModelSpec(variant="one_ring", angular_spread_deg=14.02, mean_doa_deg=0.0)
        assert montecarlo._shared_rank(fixed, 64) == 27
        lam = np.linalg.eigvalsh(build_exponential(8, 1 - 1e-14).entries)
        near_one = CorrelationModelSpec(variant="exponential", xi=1 - 1e-14)
        assert montecarlo._shared_rank(near_one, 8) == np.sum(lam > lam[-1] / 1e12) < 8
        assert montecarlo._shared_rank(CorrelationModelSpec(variant="exponential", xi=0.99), 64) == 64
        # terminals drawn apart have no shared rank
        for model in (
            CorrelationModelSpec(variant="clerckx", xi=1.0, phase_range_deg=(0.0, 1.0)),
            CorrelationModelSpec(variant="one_ring", angular_spread_deg=14.02),
            CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured", mean_doa_deg=0.0),
        ):
            assert montecarlo._shared_rank(model, 64) is None

    def test_transmit_power_conversion(self):
        assert exp_scenario(rho_t_db=10.0).rho_t_linear == pytest.approx(10.0)
        assert exp_scenario(rho_t_db=0.0).rho_t_linear == 1.0


class TestRunDrop:
    def test_rerun_is_bit_identical(self):
        scenario = exp_scenario(n_fading=1)
        a = run_drop(scenario, 0)
        b = run_drop(scenario, 0)
        assert np.array_equal(a.per_terminal_expected_snr_db, b.per_terminal_expected_snr_db)
        assert np.array_equal(a.link_gains, b.link_gains)
        assert np.array_equal(a.distances_m, b.distances_m)
        assert a.sum_se_sim_bits == b.sum_se_sim_bits
        assert a.trace_sq == b.trace_sq

    def test_exponential_trace_sq_is_drop_independent(self):
        scenario = exp_scenario(n_drops=3)
        r = build_exponential(scenario.m, 0.6)
        expected = float(np.trace(r.entries @ r.entries).real)
        for drop in range(3):
            assert run_drop(scenario, drop).trace_sq == pytest.approx(expected, rel=1e-12)

    def test_iid_override_matches_wishart_prediction(self):
        # xi = 0 makes every R identity; E{Tr[(HH^H)^-1]} = L/(M-L) then
        # predicts per-terminal SNR rho*beta*(M-L)/sigma2 up to a small
        # Jensen offset (~0.16 dB at these dimensions)
        scenario = exp_scenario(
            m=16,
            l=2,
            model=CorrelationModelSpec(variant="exponential", xi=0.0),
            n_drops=1,
            n_fading=10_000,
            seed=42,
        )
        drop = run_drop(scenario, 0)
        predicted_db = 10.0 * np.log10(drop.link_gains * (16 - 2))
        gaps = np.abs(drop.per_terminal_expected_snr_db - predicted_db)
        assert gaps.max() < 0.2

    def test_instantaneous_samples_are_kept(self):
        scenario = exp_scenario(n_fading=5)
        assert run_drop(scenario, 0).inv_eta.shape == (5,)
        pooled = pooled_instantaneous_snr_db(run_scenario(scenario))
        assert pooled.shape == (scenario.n_drops * 5 * scenario.l,)

    def test_phase_diversity_shrinks_average_correlation_energy(self):
        exp = run_drop(exp_scenario(), 0)
        clerckx = exp_scenario(
            model=CorrelationModelSpec(variant="clerckx", xi=0.6, phase_range_deg=(0.0, 38.0))
        )
        assert run_drop(clerckx, 0).trace_sq < exp.trace_sq

    def test_flagged_trial_enters_no_average(self, monkeypatch):
        # trial 5 fails the screen: it is left out and counted once, so 19 of
        # 20 trials are averaged; 1 of 20 is the 5% the threshold still allows
        scenario = exp_scenario(n_drops=1, n_fading=20)
        (clean,) = run_scenario(scenario).drops
        monkeypatch.setattr(kernels, "gram_eta_stats", KernelSpy({0: (5,)}))
        result = run_scenario(scenario)
        (drop,) = result.drops

        kept = np.delete(clean.inv_eta, 5)
        assert drop.rejected_trials == 1
        assert result.summary["rejected_trials_total"] == 1
        assert np.array_equal(drop.inv_eta, kept)
        scale = scenario.rho_t_linear * drop.link_gains / scenario.sigma2
        np.testing.assert_array_equal(
            drop.per_terminal_expected_snr_db, 10.0 * np.log10(scale * np.mean(kept))
        )
        inst = np.outer(kept, scale)
        assert drop.sum_se_sim_bits == np.mean(np.sum(np.log2(1.0 + inst), axis=1))
        np.testing.assert_array_equal(
            pooled_instantaneous_snr_db(result), 10.0 * np.log10(inst).ravel()
        )

    def test_excess_rejections_abort_drop(self, monkeypatch):
        # trials 0 and 1 fail the screen: 2 of 10 trips the 5% threshold
        monkeypatch.setattr(kernels, "gram_eta_stats", KernelSpy({0: (0, 1)}))
        with pytest.raises(RunFailureError) as exc:
            run_drop(exp_scenario(n_fading=10), 0)
        assert str(exc.value) == (
            "2 of 10 trials failed the condition screen, "
            "more than the 5% abort threshold allows"
        )

    def test_high_load_profiles_fail_the_screen(self):
        # measured one-ring at L/M = 3/4: some drops' profiles put cond(G)
        # near or past 1e12 whatever the fading, and those drops abort
        model = CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured")
        geometry = GeometryConfig(attenuation_constant=1e3)
        scenario = Scenario(
            m=64, l=48, model=model, n_drops=8, n_fading=100, seed=11, geometry=geometry
        )
        for drop_index, failed in ((2, 54), (4, 98)):
            with pytest.raises(RunFailureError) as exc:
                run_drop(scenario, drop_index)
            assert str(exc.value) == (
                f"{failed} of 100 trials failed the condition screen, "
                "more than the 5% abort threshold allows"
            )
        drop = run_drop(scenario, 7)
        assert drop.rejected_trials == 1
        assert drop.inv_eta.shape == (99,)

    def test_degenerate_ensemble_fails_the_screen(self):
        scenario = exp_scenario(m=4, l=2, model=DEGENERATE, n_fading=4, seed=3)
        with pytest.raises(RunFailureError, match="^4 of 4 trials failed the condition screen"):
            run_drop(scenario, 0)


class KernelSpy:
    """Wraps the Gram kernel: records every batch it sees and reports chosen
    calls' trials as ill-conditioned, with an infinite Tr[G^-1].

    ``flags`` maps a call index to the trials of that call to flag; a drop
    makes one call per correlation model.
    """

    def __init__(self, flags):
        self.flags = flags
        self.batches = []

    def __call__(self, w, bh):
        trace_inv = kernels.gram_stats(kernels.channels(w, bh))
        trace_inv[list(self.flags.get(len(self.batches), ()))] = np.inf
        self.batches.append(np.array(w))
        return trace_inv


class DrawSpy:
    """Wraps draw_fading and records (generators, ranks, n_trials) per call."""

    def __init__(self):
        self.calls = []

    def __call__(self, rngs, ranks, n_trials):
        self.calls.append((list(rngs), list(ranks), n_trials))
        return draw_fading(rngs, ranks, n_trials)


class TestFadingStreams:
    """RNG contract 6: lane 2 holds one fading stream per terminal, and no
    lane past it is opened."""

    def spy(self, monkeypatch, flags):
        kernel, draws, keys = KernelSpy(flags), DrawSpy(), []
        real_stream = montecarlo._stream

        def stream(seed, *spawn_key):
            keys.append(spawn_key)
            return real_stream(seed, *spawn_key)

        monkeypatch.setattr(kernels, "gram_eta_stats", kernel)
        monkeypatch.setattr(montecarlo, "draw_fading", draws)
        monkeypatch.setattr(montecarlo, "_stream", stream)
        return kernel, draws, keys

    def test_block_comes_from_lane_two_in_one_call(self, monkeypatch):
        scenario = exp_scenario(n_fading=70)
        kernel, draws, keys = self.spy(monkeypatch, {})
        drop = run_drop(scenario, 1)
        assert drop.rejected_trials == 0
        # one stream per terminal
        assert sorted(keys) == [(1, 0), (1, 1), (1, 2, 0), (1, 2, 1)]
        assert [(r, n) for _, r, n in draws.calls] == [([8, 8], 70)]
        block = draw_fading([montecarlo._stream(9, 1, 2, l) for l in range(2)], [8, 8], 70)
        assert np.array_equal(kernel.batches[0], block)

    def test_flagged_trials_leave_the_block(self, monkeypatch):
        scenario = exp_scenario(n_fading=100, seed=21)
        # trials 5 and 2 fail the screen: no stream is opened for them, and
        # the kept trials are the others' rows bit for bit
        kernel, draws, keys = self.spy(monkeypatch, {0: (5, 2)})
        drop = run_drop(scenario, 0)

        assert drop.rejected_trials == 2
        assert sorted(keys) == [(0, 0), (0, 1), (0, 2, 0), (0, 2, 1)]
        assert [n for *_, n in draws.calls] == [100]
        assert len(kernel.batches) == 1
        bh = np.broadcast_to(montecarlo._exponential_profile(8, 0.6)[1], (2, 8, 8))
        inv_eta = 2 / kernels.gram_stats(kernels.channels(kernel.batches[0], bh))
        assert np.array_equal(drop.inv_eta, np.delete(inv_eta, [2, 5]))

    def test_scenarios_share_the_block_of_a_drop(self, monkeypatch):
        kernel, _, _ = self.spy(monkeypatch, {})
        run_drop(exp_scenario(n_fading=20), 3)
        clerckx = CorrelationModelSpec(variant="clerckx", xi=0.6, phase_range_deg=(0.0, 38.0))
        run_drop(exp_scenario(n_fading=20, model=clerckx, rho_t_db=7.0), 3)
        assert np.array_equal(kernel.batches[0], kernel.batches[1])


class TestTerminalProfiles:
    def test_one_ring_profiles_are_built_one_at_a_time(self):
        # each matrix is factored and folded into Rbar before the next is
        # built, so the peak does not grow with L
        m = 256
        model = CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured")
        scenario = Scenario(m=m, l=16, model=model, n_drops=1, n_fading=1, seed=20190417)
        montecarlo._terminal_profiles(scenario, montecarlo._stream(scenario.seed, 0, 1))
        tracemalloc.start()
        try:
            _, bh = montecarlo._terminal_profiles(scenario, montecarlo._stream(scenario.seed, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = m * m * np.dtype(np.complex128).itemsize
        assert peak - sum(b.nbytes for b in bh) < 8 * matrix


class TestExponentialProfileCache:
    def test_factor_runs_once_per_m_and_xi(self, monkeypatch):
        montecarlo._exponential_profile.cache_clear()
        calls = []
        real = montecarlo.factor

        def counting(r):
            calls.append(r.order)
            return real(r)

        monkeypatch.setattr(montecarlo, "factor", counting)
        try:
            scenario = exp_scenario(n_drops=3)
            first = [run_drop(scenario, d) for d in range(3)]
            assert calls == [8]
            _, bh = montecarlo._exponential_profile(8, 0.6)
            assert not bh.flags.writeable
        finally:
            montecarlo._exponential_profile.cache_clear()
        # the cached factor gives the same drops as a fresh one
        again = [run_drop(scenario, d) for d in range(3)]
        for a, b in zip(first, again):
            assert np.array_equal(a.per_terminal_expected_snr_db, b.per_terminal_expected_snr_db)


class TestSharedClerckxFactor:
    def test_reproduces_build_clerckx(self, monkeypatch):
        montecarlo._exponential_profile.cache_clear()
        calls = []
        real = montecarlo.factor
        monkeypatch.setattr(montecarlo, "factor", lambda r: calls.append(r.order) or real(r))
        clerckx = CorrelationModelSpec(variant="clerckx", xi=0.9, phase_range_deg=(-38.0, 38.0))
        scenario = exp_scenario(m=64, l=6, model=clerckx)
        try:
            trace_sq, bh = montecarlo._terminal_profiles(scenario, montecarlo._stream(9, 0, 1))
        finally:
            montecarlo._exponential_profile.cache_clear()
        assert calls == [64]  # the one exponential eigendecomposition
        assert bh.shape == (6, 64, 64)
        # the deltas the profiles drew, re-drawn from the same lane-1 stream
        lane1 = montecarlo._stream(9, 0, 1)
        deltas = [float(lane1.uniform(-38.0, 38.0)) for _ in range(6)]
        _, want = average_correlation([build_clerckx(64, 0.9, d) for d in deltas])
        assert trace_sq == want
        for b, delta in zip(bh, deltas):
            want = build_clerckx(64, 0.9, delta).entries
            assert np.max(np.abs(b.conj().T @ b - want)) <= 1e-12


def toeplitz_pass(n_fading=500, n_drops=1):
    """An exponential and three Clerckx models that share a drop's fading,
    as the paper's Toeplitz-family files do in ``compare``."""
    models = [CorrelationModelSpec(variant="exponential", xi=0.9)] + [
        CorrelationModelSpec(variant="clerckx", xi=0.9, phase_range_deg=(0.0, d))
        for d in (14.0, 28.0, 38.0)
    ]
    return [
        exp_scenario(m=64, l=6, model=model, n_drops=n_drops, n_fading=n_fading, seed=1009)
        for model in models
    ]


def eager_draws(scenarios, drop_index):
    """``(trace_sq, trace_inv)`` per scenario, with every model's
    lane-1 profiles built before the fading is drawn, so that all the Clerckx
    stacks are alive at once."""
    profiles = [
        montecarlo._terminal_profiles(s, montecarlo._stream(s.seed, drop_index, 1))
        for s in scenarios
    ]
    s = scenarios[0]
    need = np.max([[len(b) for b in bh] for _, bh in profiles], axis=0)
    streams = [montecarlo._stream(s.seed, drop_index, 2, t) for t in range(s.l)]
    fading = draw_fading(streams, need, s.n_fading)
    return [(trace_sq, kernels.gram_eta_stats(fading, bh)) for trace_sq, bh in profiles]


class TestDropMemory:
    def test_stacks_built_at_their_kernel_give_the_eager_draws(self):
        scenarios = toeplitz_pass()
        for d in range(3):
            drawn = montecarlo._draw_drops(scenarios, d)
            assert list(drawn) == [montecarlo._stats_key(s) for s in scenarios]
            for s, (trace_sq, trace_inv) in zip(scenarios, eager_draws(scenarios, d)):
                got_sq, got_inv = drawn[montecarlo._stats_key(s)]
                assert got_sq == trace_sq
                np.testing.assert_array_equal(got_inv, trace_inv)

    def test_a_drop_holds_one_clerckx_stack(self):
        # the fading, one (L, M, M) stack, one kernel chunk and one conjugate
        # copy, plus 256 KiB of small arrays; two more stacks would not fit
        scenarios = toeplitz_pass()
        montecarlo._draw_drops(scenarios, 0)  # the cached exponential factor
        s, item = scenarios[0], np.dtype(np.complex128).itemsize
        fading = s.n_fading * s.l * s.m * item
        stack = s.l * s.m * s.m * item
        chunk = kernels.chunk_step(s.l, s.m) * s.l * s.m * item
        tracemalloc.start()
        try:
            montecarlo._draw_drops(scenarios, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fading + stack + chunk + kernels._CONJ_BYTES + (1 << 18), peak

    @pytest.mark.parametrize("workers", [1, 2])
    def test_heap_is_trimmed_between_the_last_drop_and_aggregation(self, monkeypatch, workers):
        # a pooled pass draws its drops in the workers, which trim their own
        # heaps, so the main process records only its own trim
        events = []
        real_draw, real_result = montecarlo._draw_drops, montecarlo._result

        def draw_drops(scenarios, drop_index):
            drop = real_draw(scenarios, drop_index)
            events.append("drop")
            return drop

        def result(scenario, per_drop):
            events.append("aggregate")
            return real_result(scenario, per_drop)

        monkeypatch.setattr(montecarlo, "_trim_heap", lambda pad: events.append("trim"))
        if workers == 1:  # a pool pickles the drop function by name
            monkeypatch.setattr(montecarlo, "_draw_drops", draw_drops)
        monkeypatch.setattr(montecarlo, "_result", result)
        run_scenarios(toeplitz_pass(n_fading=20, n_drops=3)[:2], workers=workers)
        first = events.index("aggregate")
        last = max((i for i, e in enumerate(events) if e == "drop"), default=-1)
        assert "trim" in events[last + 1 : first]
        assert events.count("drop") == (3 if workers == 1 else 0)


class TestRunScenario:
    def test_singleton_summary_equals_drop(self):
        scenario = exp_scenario(n_drops=1, n_fading=16)
        result = run_scenario(scenario)
        (drop,) = result.drops
        snrs = drop.per_terminal_expected_snr_db
        assert result.summary["n_drops_completed"] == 1
        assert result.summary["expected_snr_db_mean"] == pytest.approx(np.mean(snrs))
        assert result.summary["expected_snr_db_median"] == np.percentile(snrs, 50.0)
        assert result.summary["sum_se_sim_bits_mean"] == drop.sum_se_sim_bits
        assert result.summary["sum_se_cf_bits_mean"] == drop.sum_se_cf_bits

    def test_eta_cv_is_over_the_kept_trials(self, monkeypatch):
        # drop 1 leaves trial 3 out, 1 of 40 trials
        scenario = exp_scenario(n_drops=3, n_fading=40)
        kernel = KernelSpy({1: (3,)})
        monkeypatch.setattr(kernels, "gram_eta_stats", kernel)
        result = run_scenario(scenario)
        bh = np.broadcast_to(montecarlo._exponential_profile(8, 0.6)[1], (2, 8, 8))
        for drop, batch, left_out in zip(result.drops, kernel.batches, ([], [3], [])):
            trace_inv = np.delete(kernels.gram_stats(kernels.channels(batch, bh)), left_out)
            assert drop.eta_cv == np.std(trace_inv) / np.mean(trace_inv)
        assert result.summary["eta_cv_mean"] == np.mean([d.eta_cv for d in result.drops])

    def test_worker_count_does_not_change_results(self):
        scenario = exp_scenario(n_drops=4, n_fading=8)
        serial = run_scenario(scenario, workers=1)
        pooled = run_scenario(scenario, workers=2)
        assert serial.summary == pooled.summary
        for a, b in zip(serial.drops, pooled.drops):
            assert a.drop_index == b.drop_index
            assert np.array_equal(a.per_terminal_expected_snr_db, b.per_terminal_expected_snr_db)

    def test_worker_count_does_not_change_ragged_rank_results(self):
        # measured one-ring factors at M=128 keep a different rank per terminal
        model = CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured")
        scenario = Scenario(m=128, l=8, model=model, n_drops=3, n_fading=40, seed=21)
        _, bh = montecarlo._terminal_profiles(scenario, montecarlo._stream(21, 0, 1))
        ranks = [len(b) for b in bh]
        assert len(set(ranks)) > 1 and max(ranks) < 128
        serial, pooled = (
            run_scenarios([scenario], workers=w)[0] for w in (1, 2)
        )
        assert serial.summary == pooled.summary
        assert_same_drops(serial, pooled)

    def test_blas_thread_count_does_not_change_results(self):
        # run_scenarios pins one BLAS thread, so the drops are drawn without
        # it, at one thread and at two whatever count the process started with
        blas = bundled_openblas()
        default = blas.scipy_openblas_get_num_threads64_()
        one_ring = Scenario(
            m=128,
            l=8,
            model=CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured"),
            n_drops=2,
            n_fading=300,
            seed=21,
        )
        clerckx = Scenario(m=64, l=6, model=CLERCKX, n_drops=2, n_fading=300, seed=21)
        runs = []
        try:
            for threads in (1, 2):
                blas.scipy_openblas_set_num_threads64_(threads)
                runs.append([drawn_alone(s) for s in (one_ring, clerckx)])
        finally:
            blas.scipy_openblas_set_num_threads64_(default)
        for single, pooled in zip(*runs):
            assert single.summary == pooled.summary
            assert_same_drops(single, pooled)

    def test_failed_drops_fail_the_run(self):
        scenario = exp_scenario(m=4, l=2, model=DEGENERATE, n_drops=1, n_fading=4, seed=3)
        with pytest.raises(RunFailureError, match="aborted"):
            run_scenario(scenario)

    def test_geometry_lane_shared_across_model_variants(self):
        # lane separation: changing the correlation model must not disturb
        # the geometry and shadowing draws
        exp = run_drop(exp_scenario(), 0)
        clerckx = exp_scenario(
            model=CorrelationModelSpec(variant="clerckx", xi=0.6, phase_range_deg=(0.0, 38.0))
        )
        drop = run_drop(clerckx, 0)
        assert np.array_equal(exp.link_gains, drop.link_gains)
        assert np.array_equal(exp.distances_m, drop.distances_m)

    def test_identical_profiles_sit_below_phase_diverse_profiles(self):
        common = dict(m=32, l=4, n_drops=40, n_fading=64, seed=7, rho_t_db=5.0)
        exp = run_scenario(
            Scenario(model=CorrelationModelSpec(variant="exponential", xi=0.9), **common)
        )
        clerckx = run_scenario(
            Scenario(
                model=CorrelationModelSpec(variant="clerckx", xi=0.9, phase_range_deg=(0.0, 38.0)),
                **common,
            )
        )
        diffs = [
            np.mean(c.per_terminal_expected_snr_db) - np.mean(e.per_terminal_expected_snr_db)
            for c, e in zip(clerckx.drops, exp.drops)
        ]
        assert np.median(diffs) > 0.0
        assert np.mean(np.asarray(diffs) > 0.0) >= 0.9

    def test_median_snr_decreases_with_terminal_count(self):
        medians = []
        for l in (2, 4, 8):
            scenario = Scenario(
                m=16,
                l=l,
                model=CorrelationModelSpec(variant="exponential", xi=0.5),
                n_drops=30,
                n_fading=50,
                seed=5,
            )
            medians.append(run_scenario(scenario).summary["expected_snr_db_median"])
        assert medians[0] > medians[1] > medians[2]

    def test_pooled_snrs_follow_drop_order(self):
        scenario = exp_scenario(n_drops=3)
        result = run_scenario(scenario)
        pooled = pooled_expected_snr_db(result)
        assert pooled.shape == (3 * scenario.l,)
        assert np.array_equal(pooled[2:4], result.drops[1].per_terminal_expected_snr_db)


CLERCKX = CorrelationModelSpec(variant="clerckx", xi=0.6, phase_range_deg=(0.0, 38.0))


def bundled_openblas():
    blas = montecarlo._openblas()
    if blas is None:
        pytest.skip("numpy does not bundle scipy-openblas64")
    return blas


def openblas_threads():
    return bundled_openblas().scipy_openblas_get_num_threads64_()


def drawn_alone(scenario):
    """``run_scenario`` without the pass around the drops, at the caller's
    BLAS thread count."""
    per_drop = [montecarlo._draw_drops([scenario], d) for d in range(scenario.n_drops)]
    return montecarlo._result(scenario, per_drop)


def assert_same_drops(a, b):
    assert len(a.drops) == len(b.drops)
    for x, y in zip(a.drops, b.drops):
        for f in dataclasses.fields(x):
            u, v = getattr(x, f.name), getattr(y, f.name)
            assert np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v, f.name


class TestRunScenarios:
    """The drop-major pass against separate runs."""

    def reference_shape(self, **overrides):
        # calibration solves on M=64, L=6, so these share the baseline's block
        base = dict(
            m=64,
            l=6,
            model=CorrelationModelSpec(variant="exponential", xi=0.9),
            n_drops=2,
            n_fading=10,
            seed=4,
            rho_t_db=5.0,
        )
        return Scenario(**{**base, **overrides})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_separate_runs(self, workers):
        base = exp_scenario(n_drops=3, n_fading=12, rho_t_db=5.0)
        models = [
            base.model,
            CLERCKX,
            CorrelationModelSpec(variant="one_ring", angular_spread_deg=14.02),
            CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured"),
        ]
        scenarios = [replace(base, model=m) for m in models]
        scenarios.append(replace(scenarios[2], rho_t_db=0.0))
        scenarios.append(replace(scenarios[1], radial_law="radius"))

        merged = run_scenarios(scenarios, workers=workers)
        for result, scenario in zip(merged, scenarios):
            alone = run_scenario(scenario)
            assert result.scenario == scenario
            assert result.summary == alone.summary
            assert_same_drops(result, alone)

    def test_one_block_per_drop_and_one_kernel_call_per_model(self, monkeypatch):
        exponential = self.reference_shape()
        scenarios = [
            exponential,
            self.reference_shape(model=replace(CLERCKX, xi=0.9)),
            self.reference_shape(rho_t_db=0.0),
        ]
        kernel, draws = KernelSpy({}), DrawSpy()
        monkeypatch.setattr(kernels, "gram_eta_stats", kernel)
        monkeypatch.setattr(montecarlo, "draw_fading", draws)
        results = run_scenarios(scenarios, calibrate=True)

        assert [n for *_, n in draws.calls] == [10, 10]
        # per drop: one call for the baseline and both exponential runs, one
        # for the Clerckx run
        assert len(kernel.batches) == 2 * 2
        assert all(r.summary["rejected_trials_total"] == 0 for r in results)

    def test_one_ring_result_does_not_depend_on_the_pass(self):
        # beside an exponential run every terminal's fading is drawn to full
        # rank; alone, only to the one-ring ranks. 300 trials at M=128, L=8
        # take five kernel chunks of up to 64 trials
        model = CorrelationModelSpec(variant="one_ring", angular_spread_deg="measured")
        one_ring = Scenario(m=128, l=8, model=model, n_drops=2, n_fading=300, seed=21)
        exponential = replace(one_ring, model=CorrelationModelSpec(variant="exponential", xi=0.5))
        _, bh = montecarlo._terminal_profiles(one_ring, montecarlo._stream(21, 0, 1))
        assert max(len(b) for b in bh) < 128
        (alone,) = run_scenarios([one_ring])
        shared = run_scenarios([exponential, one_ring])[1]
        assert alone.summary == shared.summary
        assert_same_drops(alone, shared)

    def test_pooled_calibration_draws_the_baseline_once(self, monkeypatch):
        # the baseline joins its own calibration pass at A = 1; the two share
        # each drop's kernel statistics, in a pool as in-process
        baseline = calibration_baseline(self.reference_shape(n_drops=3))
        baseline = replace(baseline, geometry=replace(baseline.geometry, attenuation_constant=7.0))
        unit = replace(baseline, geometry=replace(baseline.geometry, attenuation_constant=1.0))
        kernel = KernelSpy({})
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "gram_eta_stats", kernel)
            for d in range(3):
                montecarlo._draw_drops([unit, baseline], d)
        assert len(kernel.batches) == 3

        serial, pooled = (
            run_scenarios([baseline], workers=w, calibrate=True)[0]
            for w in (1, 2)
        )
        assert pooled.scenario == serial.scenario
        assert pooled.summary == serial.summary
        assert_same_drops(pooled, serial)

    def test_pool_is_capped_at_the_drop_count(self, in_process_pool):
        # a fork pool starts all its workers at the first task; the library
        # caps them at the drop count only, and the command line at the cores
        pools = in_process_pool
        (pooled,) = run_scenarios([exp_scenario(n_drops=4)], workers=5000)
        assert pools == [(4, montecarlo._set_blas_threads, (1,))]
        assert pooled.summary == run_scenario(exp_scenario(n_drops=4)).summary
        run_scenarios([exp_scenario(n_drops=1)], workers=5000)
        assert len(pools) == 1

    def test_pool_workers_run_one_blas_thread(self):
        blas = bundled_openblas()
        before = blas.scipy_openblas_get_num_threads64_()
        with ProcessPoolExecutor(
            max_workers=1, initializer=montecarlo._set_blas_threads, initargs=(1,)
        ) as pool:
            assert pool.submit(openblas_threads).result() == 1
        run_scenarios([exp_scenario(n_drops=2)], workers=2)
        assert blas.scipy_openblas_get_num_threads64_() == before

    def test_in_process_drops_run_one_blas_thread(self, monkeypatch):
        # the caller's count comes back after a clean pass, a failed run
        # and a pass that raises
        blas = bundled_openblas()
        default = blas.scipy_openblas_get_num_threads64_()
        seen = []
        real = montecarlo._draw_drops

        def draw_drops(scenarios, drop_index):
            seen.append(openblas_threads())
            return real(scenarios, drop_index)

        def broken(scenarios, drop_index):
            raise RuntimeError("broken drop")

        monkeypatch.setattr(montecarlo, "_draw_drops", draw_drops)
        degenerate = exp_scenario(m=4, l=2, model=DEGENERATE, n_drops=1, n_fading=4, seed=3)
        try:
            blas.scipy_openblas_set_num_threads64_(2)
            run_scenarios([exp_scenario(n_drops=3)])
            assert seen == [1, 1, 1]
            assert openblas_threads() == 2
            with pytest.raises(RunFailureError):
                run_scenarios([degenerate])
            assert seen == [1, 1, 1, 1]
            assert openblas_threads() == 2
            monkeypatch.setattr(montecarlo, "_draw_drops", broken)
            with pytest.raises(RuntimeError, match="broken drop"):
                run_scenarios([exp_scenario()])
            assert openblas_threads() == 2
        finally:
            blas.scipy_openblas_set_num_threads64_(default)

    def test_pooled_pass_leaves_the_main_process_thread_count(self, monkeypatch):
        # OpenBLAS stops its threads at fork; raising the count again after
        # the pool would start a thread that spins until the process exits.
        # Forked workers record their own calls in their own copy of ``calls``
        before = openblas_threads()
        calls = []
        real = montecarlo._set_blas_threads

        def set_blas_threads(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(montecarlo, "_set_blas_threads", set_blas_threads)
        (pooled,) = run_scenarios([exp_scenario(n_drops=2)], workers=2)
        assert calls == []
        assert openblas_threads() == before
        # the in-process pass calls it twice
        (alone,) = run_scenarios([exp_scenario(n_drops=2)])
        assert calls == [1, before]
        assert pooled.summary == alone.summary

    def test_drops_trim_the_heap_without_huge_page_advice(self, monkeypatch):
        # each trim records whether numpy advises huge pages at that moment
        def advice():
            advising = montecarlo._advise_huge_pages(False)
            montecarlo._advise_huge_pages(advising)
            return advising

        trims = []
        monkeypatch.setattr(montecarlo, "_trim_heap", lambda pad: trims.append((pad, advice())))
        before = advice()
        (trimmed,) = run_scenarios([exp_scenario(n_drops=3)])
        # before each drop's profiles and again before its fading, and once
        # after the last drop
        assert trims == [(0, False)] * 7
        assert advice() == before
        monkeypatch.undo()
        assert trimmed.summary == run_scenario(exp_scenario(n_drops=3)).summary

    # the baseline joins the pass at every worker count
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "model",
        [CorrelationModelSpec(variant="exponential", xi=0.9), replace(CLERCKX, xi=0.9)],
        ids=["exponential", "clerckx"],
    )
    def test_calibrated_pass_gives_the_calibration_constant(self, workers, model):
        scenario = self.reference_shape(model=model, n_drops=3, n_fading=20)
        (result,) = run_scenarios([scenario], workers=workers, calibrate=True)
        constant = calibrate_attenuation_constant(calibration_baseline(scenario))
        assert result.scenario.geometry.attenuation_constant == constant
        resolved = replace(scenario, geometry=replace(scenario.geometry, attenuation_constant=constant))
        assert result.scenario == resolved
        assert result.summary == run_scenario(resolved).summary

    def test_needs_a_scenario(self):
        with pytest.raises(InvalidParameterError, match="at least one scenario"):
            run_scenarios([])

    def test_needs_equal_drop_counts(self):
        with pytest.raises(InvalidParameterError, match="equal n_drops"):
            run_scenarios([exp_scenario(n_drops=2), exp_scenario(n_drops=3)])

    def test_failed_drop_stays_with_its_scenario(self, monkeypatch):
        exp = exp_scenario(n_drops=101, n_fading=10)
        clerckx = replace(exp, model=CLERCKX)
        # call 1 is the Clerckx block of drop 0: two rejections out of 10
        # trials abort that drop, and only for that scenario
        monkeypatch.setattr(kernels, "gram_eta_stats", KernelSpy({1: (0, 1)}))
        merged = run_scenarios([exp, clerckx])
        monkeypatch.setattr(kernels, "gram_eta_stats", KernelSpy({0: (0, 1)}))
        alone = run_scenario(clerckx)
        assert merged[1].summary["n_drops_failed"] == 1
        assert merged[1].summary == alone.summary
        monkeypatch.setattr(kernels, "gram_eta_stats", KernelSpy({}))
        assert merged[0].summary["n_drops_failed"] == 0
        assert merged[0].summary == run_scenario(exp).summary

        # past 1% the run fails with the text of the scenario run alone
        short = [replace(s, n_drops=2) for s in (exp, clerckx)]
        monkeypatch.setattr(kernels, "gram_eta_stats", KernelSpy({1: (0, 1)}))
        with pytest.raises(RunFailureError) as merged_error:
            run_scenarios(short)
        monkeypatch.setattr(kernels, "gram_eta_stats", KernelSpy({0: (0, 1)}))
        with pytest.raises(RunFailureError) as alone_error:
            run_scenario(short[1])
        assert str(merged_error.value) == str(alone_error.value)
        assert str(merged_error.value).startswith(
            "1 of 2 drops aborted: drop 0: 2 of 10 trials failed the condition screen"
        )



class TestCdfHelpers:
    def test_interpolated_median_of_four(self):
        # the summary reads percentiles of the pooled (drop, terminal)
        # samples by linear interpolation, so the median of four sits
        # halfway between the middle two
        drop = run_drop(exp_scenario(), 0)
        drops = [
            replace(drop, per_terminal_expected_snr_db=np.array([3.0, 1.0])),
            replace(drop, per_terminal_expected_snr_db=np.array([4.0, 2.0])),
        ]
        result = montecarlo.ScenarioResult(
            exp_scenario(), tuple(drops), montecarlo._summarize(drops, 0)
        )
        assert pooled_expected_snr_db(result).tolist() == [3.0, 1.0, 4.0, 2.0]
        assert result.summary["expected_snr_db_median"] == pytest.approx(2.5)
        assert result.summary["expected_snr_db_p5"] == pytest.approx(1.15)
        assert result.summary["expected_snr_db_p95"] == pytest.approx(3.85)
