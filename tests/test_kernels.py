"""Shape checks and numerical results of the Gram-statistics kernel."""

import tracemalloc

import numpy as np
import pytest

from corrdiv import kernels
from corrdiv.errors import InvalidParameterError
from corrdiv.kernels import COND_MAX, gram_eta_stats
from corrdiv.zfcore import draw_fading


def random_batch(n_trials=16, l=3, m=8, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    w = draw_fading([rng] * l, [m] * l, n_trials)
    # random unit-diagonal Hermitian factors via random unitaries
    bh = np.empty((l, m, m), dtype=np.complex128)
    for i in range(l):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        q, _ = np.linalg.qr(a)
        scales = rng.uniform(0.2, 1.0, size=m)
        bh[i] = (q * scales) @ q.conj().T
    return w, bh


class TestDispatch:
    def test_shape_mismatch_rejected(self):
        w = np.zeros((4, 2, 8), dtype=np.complex128)
        bh = np.zeros((3, 8, 8), dtype=np.complex128)
        with pytest.raises(InvalidParameterError, match="incompatible"):
            gram_eta_stats(w, bh)


class TestNumpyPath:
    def test_singular_gram_reports_inf(self):
        w = np.zeros((1, 2, 4), dtype=np.complex128)
        w[0, 0] = w[0, 1] = np.array([1.0, 0.0, 0.0, 0.0])
        bh = np.broadcast_to(np.eye(4, dtype=np.complex128), (2, 4, 4))
        trace_inv = gram_eta_stats(w, bh)
        assert trace_inv.shape == (1,) and np.isinf(trace_inv[0])

    def test_one_finite_trace_per_trial(self):
        w, bh = random_batch(n_trials=6, seed=2)
        trace_inv = gram_eta_stats(w, bh)
        assert trace_inv.shape == (6,)
        assert np.all(np.isfinite(trace_inv)) and np.all(trace_inv > 0)

    def test_identity_factors_give_the_inverse_trace(self):
        rng = np.random.Generator(np.random.Philox(5))
        w = draw_fading([rng] * 2, [4] * 2, 8)
        bh = np.broadcast_to(np.eye(4, dtype=np.complex128), (2, 4, 4))
        trace_inv = gram_eta_stats(w, bh)
        for t in range(8):
            gram = w[t] @ w[t].conj().T
            assert trace_inv[t] == pytest.approx(np.trace(np.linalg.inv(gram)).real, rel=1e-12)


class TestChunks:
    def test_rows_do_not_depend_on_the_width_of_w(self):
        # chunks are sized from L and M alone, so a batch's whole-chunk
        # eigenvalue fallback hits the same trials however many columns w
        # carries: at L=4, M=64 a chunk holds 256 trials
        rng = np.random.default_rng(8)
        n_trials, l, m, r = 2000, 4, 64, 40
        z = rng.standard_normal((n_trials, l, 2 * m))
        wide = np.sqrt(0.5) * (z[..., 0::2] + 1j * z[..., 1::2])
        bh = rng.standard_normal((l, r, m)) + 1j * rng.standard_normal((l, r, m))
        wide[0, 1] = 0.0  # trial 0's Gram matrix is singular
        narrow = wide[:, :, :r].copy()
        trace_inv = gram_eta_stats(wide, bh)
        assert np.isinf(trace_inv[0]) and np.isfinite(trace_inv[1:]).all()
        np.testing.assert_array_equal(gram_eta_stats(narrow, bh), trace_inv)

    @pytest.mark.parametrize(
        "l, m, sizes",
        # 1 MiB of channels at M=64, L=6; the 64-trial floor at M=256, L=16
        [(6, 64, [170, 170, 160]), (16, 256, [64] * 7 + [52])],
    )
    def test_chunk_sizes_follow_l_and_m(self, monkeypatch, l, m, sizes):
        seen = []
        gram_stats = kernels.gram_stats

        def spy(h):
            seen.append(len(h))
            return gram_stats(h)

        monkeypatch.setattr(kernels, "gram_stats", spy)
        rng = np.random.default_rng(4)
        w = draw_fading([rng] * l, [4] * l, 500)
        bh = rng.standard_normal((l, 4, m)) + 1j * rng.standard_normal((l, 4, m))
        gram_eta_stats(w, bh)
        assert seen == sizes
        assert kernels.chunk_step(l, m) == sizes[0]

    @pytest.mark.parametrize("l, m", [(6, 64), (16, 256)])
    def test_rows_do_not_depend_on_the_chunk_budget(self, monkeypatch, l, m):
        # a well-conditioned batch never takes the eigenvalue fallback, so
        # every chunking gives each trial the same row
        rng = np.random.default_rng(9)
        r = 2 * l
        w = draw_fading([rng] * l, [r] * l, 300)
        bh = rng.standard_normal((l, r, m)) + 1j * rng.standard_normal((l, r, m))
        rows = []
        for budget in (4 << 20, 1 << 20, 64 << 10):
            monkeypatch.setattr(kernels, "_CHUNK_BYTES", budget)
            rows.append(gram_eta_stats(w, bh))
        assert np.isfinite(rows[0]).all()
        for other in rows[1:]:
            np.testing.assert_array_equal(other, rows[0])

    @pytest.mark.parametrize("l, m", [(6, 64), (16, 256)])
    def test_gram_rows_do_not_depend_on_the_conjugate_budget(self, monkeypatch, l, m):
        # every trial's Gram matrix is its own product, so building them one
        # trial or one whole chunk at a time gives each row the same bits
        rng = np.random.default_rng(10)
        step = kernels.chunk_step(l, m)
        h = rng.standard_normal((step, l, m)) + 1j * rng.standard_normal((step, l, m))
        rows = [kernels.gram_stats(h)]
        for trials in (1, step):
            monkeypatch.setattr(kernels, "_CONJ_BYTES", trials * l * m * 16)
            rows.append(kernels.gram_stats(h))
        for other in rows[1:]:
            np.testing.assert_array_equal(other, rows[0])

    def test_channels_write_into_the_given_buffer(self):
        w, bh = random_batch(n_trials=5, l=3, m=8, seed=11)
        out = np.full((5, 3, 8), np.nan, np.complex128)
        assert kernels.channels(w, bh, out=out) is out
        np.testing.assert_array_equal(out, kernels.channels(w, bh))


class TestMemory:
    def test_one_call_holds_one_channel_buffer(self):
        # the chunks share one channel buffer and the Gram products read
        # conjugate copies of at most _CONJ_BYTES, so the traced peak of a
        # whole batch stays below both plus 1 MiB of small arrays
        l, m, n_trials, rank = 16, 256, 500, 32
        rng = np.random.default_rng(12)
        w = draw_fading([rng] * l, [rank] * l, n_trials)
        bh = rng.standard_normal((l, rank, m)) + 1j * rng.standard_normal((l, rank, m))
        gram_eta_stats(w[:1], bh)  # lazy set-up outside the traced call
        buffer_bytes = kernels.chunk_step(l, m) * l * m * 16
        tracemalloc.start()
        try:
            gram_eta_stats(w, bh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < buffer_bytes + kernels._CONJ_BYTES + (1 << 20), peak


def near_dependent_batch(eps, l=3, m=8, seed=3):
    """One trial per entry of ``eps``: terminal 1 is terminal 0 plus eps times
    fresh noise, so the Gram condition number grows like 1/eps^2."""
    # interleaved pairs in trial-major order, so the eps values below keep
    # the draws they were chosen on
    z = np.random.default_rng(seed).standard_normal((len(eps), l, 2 * m))
    w = np.sqrt(0.5) * (z[..., 0::2] + 1j * z[..., 1::2])
    for t, e in enumerate(eps):
        w[t, 1] = w[t, 0] + e * w[t, 1]
    bh = np.broadcast_to(np.eye(m, dtype=np.complex128), (l, m, m))
    return w, bh


def eigenvalue_rule(w):
    gram = w @ w.conj().transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(gram)
    return (lam[:, 0] > 0) & (lam[:, -1] <= COND_MAX * lam[:, 0]), gram


class TestCholeskyScreen:
    def test_trace_matches_eigenvalues(self):
        w, bh = random_batch(n_trials=64, l=4, m=16, seed=7)
        trace_inv = gram_eta_stats(w, bh)
        h = np.einsum("tlm,lmk->tlk", w, bh)
        lam = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))
        np.testing.assert_allclose(trace_inv, np.sum(1.0 / lam, axis=1), rtol=1e-12, atol=0)

    def test_verdicts_equal_the_eigenvalue_rule(self):
        eps = [1e-1, 1e-3, 1e-5, 2.1e-6, 1e-6, 1e-7]
        w, bh = near_dependent_batch(eps)
        rule, gram = eigenvalue_rule(w)
        # passing trials, trials past COND_MAX, and a passing trial whose
        # bound exceeds COND_MAX, all numerically positive definite
        assert rule[:4].all() and not rule[4:].any()
        bound = np.trace(gram[3]).real * np.trace(np.linalg.inv(gram[3])).real
        assert np.linalg.cond(gram[3]) < COND_MAX < bound
        np.linalg.cholesky(gram)
        np.testing.assert_array_equal(np.isfinite(gram_eta_stats(w, bh)), rule)

        # an exactly dependent pair and one Cholesky cannot factor send the
        # whole batch to the eigenvalues
        w, bh = near_dependent_batch(eps + [1e-8, 0.0])
        rule, gram = eigenvalue_rule(w)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        np.testing.assert_array_equal(np.isfinite(gram_eta_stats(w, bh)), rule)
        assert rule[:4].all() and not rule[4:].any()
