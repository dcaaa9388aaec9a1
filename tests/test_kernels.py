"""Shape checks and numerical results of the Gram-statistics kernel."""

import numpy as np
import pytest

from corrdiv.errors import InvalidParameterError
from corrdiv.kernels import COND_MAX, conditioned, gram_eta_stats
from corrdiv.zfcore import draw_fading


def random_batch(n_trials=16, l=3, m=8, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    w = draw_fading(rng, l, m, n_trials)
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
        stats = gram_eta_stats(w, bh)
        assert np.isinf(stats[0, 0])
        assert stats[0, 1] <= 0 or stats[0, 1] < 1e-12 * stats[0, 2]

    def test_eigenvalue_ordering(self):
        w, bh = random_batch(n_trials=6, seed=2)
        stats = gram_eta_stats(w, bh)
        assert np.all(stats[:, 1] <= stats[:, 2])
        assert np.all(stats[:, 0] > 0)

    def test_identity_factors_give_the_inverse_trace(self):
        rng = np.random.Generator(np.random.Philox(5))
        w = draw_fading(rng, 2, 4, 8)
        bh = np.broadcast_to(np.eye(4, dtype=np.complex128), (2, 4, 4))
        stats = gram_eta_stats(w, bh)
        for t in range(8):
            gram = w[t] @ w[t].conj().T
            assert stats[t, 0] == pytest.approx(np.trace(np.linalg.inv(gram)).real, rel=1e-12)


def near_dependent_batch(eps, l=3, m=8, seed=3):
    """One trial per entry of ``eps``: terminal 1 is terminal 0 plus eps times
    fresh noise, so the Gram condition number grows like 1/eps^2."""
    rng = np.random.default_rng(seed)
    w = draw_fading(rng, l, m, n_trials=len(eps))
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
        stats = gram_eta_stats(w, bh)
        h = np.einsum("tlm,lmk->tlk", w, bh)
        lam = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))
        np.testing.assert_allclose(stats[:, 0], np.sum(1.0 / lam, axis=1), rtol=1e-12, atol=0)

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
        np.testing.assert_array_equal(conditioned(gram_eta_stats(w, bh)), rule)

        # an exactly dependent pair and one Cholesky cannot factor send the
        # whole batch to the eigenvalues
        w, bh = near_dependent_batch(eps + [1e-8, 0.0])
        rule, gram = eigenvalue_rule(w)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        np.testing.assert_array_equal(conditioned(gram_eta_stats(w, bh)), rule)
        assert rule[:4].all() and not rule[4:].any()
