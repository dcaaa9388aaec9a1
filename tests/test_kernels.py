"""Shape checks and numerical results of the Gram-statistics kernel."""

import numpy as np
import pytest

from corrdiv.errors import InvalidParameterError
from corrdiv.kernels import gram_eta_stats
from corrdiv.zfcore import draw_fading


def random_batch(n_trials=16, l=3, m=8, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    w = np.stack([draw_fading(rng, l, m) for _ in range(n_trials)])
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
        w = np.stack([draw_fading(rng, 2, 4) for _ in range(8)])
        bh = np.broadcast_to(np.eye(4, dtype=np.complex128), (2, 4, 4))
        stats = gram_eta_stats(w, bh)
        for t in range(8):
            gram = w[t] @ w[t].conj().T
            assert stats[t, 0] == pytest.approx(np.trace(np.linalg.inv(gram)).real, rel=1e-12)
