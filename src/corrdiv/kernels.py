"""Hot loop for batched correlated-channel Gram statistics.

``channels`` synthesizes a batch of correlated channels; it is the package's
one per-terminal synthesis loop. ``gram_stats`` reduces each trial's Gram
matrix to the trace of its inverse plus bounds on its extremal eigenvalues
(used for condition screening). ``gram_eta_stats`` composes the two over
fixed chunks of trials, so no whole-batch channel array exists;
``benchmarks/bench_kernels.py`` times it.
"""

import numpy as np

from .errors import InvalidParameterError

# Gram matrices past this condition number poison trace averages; callers
# count the rejection and resample the trial
COND_MAX = 1e12
# bytes of channels one kernel chunk synthesizes: a chunk's channels and the
# conjugate copy its Gram product makes stay this small whatever the batch
_CHUNK_BYTES = 4 << 20


def _eigen_stats(gram):
    """[Tr[G^-1], lam_min, lam_max] from the eigenvalues; inf trace if singular."""
    lam = np.linalg.eigvalsh(gram)
    trace_inv = np.full(len(gram), np.inf)
    ok = lam[:, 0] > 0
    trace_inv[ok] = np.sum(1.0 / lam[ok], axis=1)
    return np.stack([trace_inv, lam[:, 0], lam[:, -1]], axis=1)


def channels(w: np.ndarray, bh) -> np.ndarray:
    """Correlated channels ``h[t, l] = w[t, l, :r_l] @ bh[l]``, (n_trials, L, M),
    for terminal l's (r_l, M) conjugate-transposed factor ``bh[l]``."""
    h = np.empty(w.shape[:2] + (bh[0].shape[1],), np.complex128)
    for l, b in enumerate(bh):
        np.matmul(w[:, l, : len(b)], b, out=h[:, l, :])
    return h


def gram_stats(h: np.ndarray) -> np.ndarray:
    """Per-trial [Tr[G^-1], lam_lo, lam_hi] of G = h h^H for an (n_trials, L, M)
    batch of channels; ``gram_eta_stats`` says what the bounds mean."""
    gram = h @ np.conj(np.transpose(h, (0, 2, 1)))
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return _eigen_stats(gram)
    # Tr[G^-1] = ||L^-1||_F^2 for G = L L^H; 1/Tr[G^-1] <= lam_min and
    # lam_max <= Tr[G], so a bound ratio within COND_MAX proves the condition
    trace_inv = np.sum(chol_inv.real**2 + chol_inv.imag**2, axis=(1, 2))
    trace = np.trace(gram, axis1=1, axis2=2).real
    stats = np.stack([trace_inv, 1.0 / trace_inv, trace], axis=1)
    loose = trace * trace_inv > COND_MAX
    if np.any(loose):
        stats[loose] = _eigen_stats(gram[loose])
    return stats


def gram_eta_stats(w: np.ndarray, bh) -> np.ndarray:
    """Per-trial [Tr[(HH^H)^-1], lam_lo, lam_hi] for a batch of trials.

    ``lam_lo <= lam_min`` and ``lam_hi >= lam_max`` bound the Gram matrix's
    extremal eigenvalues: they are 1/Tr[G^-1] and Tr[G] from a Cholesky
    factor, or the eigenvalues themselves for trials whose bound ratio
    exceeds ``COND_MAX`` (and for a whole chunk when one of its Gram
    matrices is not numerically positive definite). So
    ``lam_hi <= COND_MAX * lam_lo`` holds exactly when the condition number
    is within ``COND_MAX``. A singular Gram matrix reports an infinite trace.

    The trials run in chunks whose (step, L, M) channels fit in
    ``_CHUNK_BYTES``; the step depends on L and M alone, so a trial's row
    does not depend on the batch it came in.

    Parameters
    ----------
    w : (n_trials, L, >= max r_l) complex128, any strides
        iid CN(0, 1) fading draws; terminal l reads its first r_l columns.
    bh : sequence of L complex128 arrays, each (r_l, M) with r_l <= M
        Per-terminal conjugate-transposed correlation factors, so that row l
        of trial t is ``w[t, l, :r_l] @ bh[l]``: an (L, M, M) or (L, r, M)
        stack, or a list whose ranks differ.
    """
    w = np.asarray(w, dtype=np.complex128)
    bh = [np.asarray(b, dtype=np.complex128) for b in bh]
    m = bh[0].shape[-1] if bh and bh[0].ndim else 0
    if w.ndim != 3 or m < 1 or len(bh) != w.shape[1] or any(
        b.ndim != 2 or b.shape[1] != m or b.shape[0] > min(m, w.shape[2]) for b in bh
    ):
        raise InvalidParameterError(
            f"incompatible kernel shapes: w {w.shape}, bh {[b.shape for b in bh]}"
        )
    n_trials, n_term = w.shape[:2]
    step = max(1, _CHUNK_BYTES // (n_term * m * w.itemsize))
    stats = np.empty((n_trials, 3))
    for t in range(0, n_trials, step):
        stats[t : t + step] = gram_stats(channels(w[t : t + step], bh))
    return stats


def conditioned(stats: np.ndarray) -> np.ndarray:
    """Mask of the trials whose ``gram_eta_stats`` rows pass the condition screen."""
    trace_inv, lam_lo, lam_hi = stats.T
    return np.isfinite(trace_inv) & (lam_lo > 0) & (lam_hi <= COND_MAX * lam_lo)
