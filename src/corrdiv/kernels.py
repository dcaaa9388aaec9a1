"""Hot loop for batched correlated-channel Gram statistics.

For every fading trial the kernel computes the trace of the inverse Gram
matrix plus its extremal eigenvalues (used for condition screening) in one
batched numpy pass. ``benchmarks/bench_kernels.py`` times it.
"""

import numpy as np

from .errors import InvalidParameterError


def _eta_numpy(w, bh):
    n, n_term, _ = w.shape
    h = np.empty_like(w)
    for l in range(n_term):
        h[:, l, :] = w[:, l, :] @ bh[l]
    gram = h @ np.conj(np.transpose(h, (0, 2, 1)))
    lam = np.linalg.eigvalsh(gram)
    lam_min = lam[:, 0]
    lam_max = lam[:, -1]
    trace_inv = np.full(n, np.inf)
    ok = lam_min > 0
    trace_inv[ok] = np.sum(1.0 / lam[ok], axis=1)
    return np.stack([trace_inv, lam_min, lam_max], axis=1)


def gram_eta_stats(w: np.ndarray, bh: np.ndarray) -> np.ndarray:
    """Per-trial [Tr[(HH^H)^-1], lam_min, lam_max] for a batch of trials.

    Parameters
    ----------
    w : (n_trials, L, M) complex128
        iid CN(0, 1) fading draws.
    bh : (L, M, M) complex128
        Per-terminal conjugate-transposed correlation factors, so that
        row l of trial t is ``w[t, l] @ bh[l]``.
    """
    w = np.ascontiguousarray(w, dtype=np.complex128)
    bh = np.ascontiguousarray(bh, dtype=np.complex128)
    if w.ndim != 3 or bh.ndim != 3 or w.shape[1] != bh.shape[0] or w.shape[2] != bh.shape[1]:
        raise InvalidParameterError(
            f"incompatible kernel shapes: w {w.shape}, bh {bh.shape}"
        )
    return _eta_numpy(w, bh)
