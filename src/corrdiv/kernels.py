"""Hot loop for batched correlated-channel Gram statistics.

``channels`` synthesizes a batch of correlated channels; it is the package's
one per-terminal synthesis loop. ``gram_stats`` reduces each trial's Gram
matrix to the trace of its inverse, or to ``inf`` where the matrix fails the
condition screen. ``gram_eta_stats`` composes the two over fixed chunks of
trials, written one after another into one channel buffer, so no
whole-batch channel array exists; ``benchmarks/bench_kernels.py`` times it.
"""

import numpy as np

from .errors import InvalidParameterError

# Gram matrices past this condition number poison trace averages; the kernel
# reports such a trial's trace as inf, and callers leave it out and count it
COND_MAX = 1e12
# bytes of channels one kernel chunk synthesizes, so that its channels and the
# conjugate copy its Gram product makes stay cache-sized whatever the batch
# (170 trials at M=64, L=6); ``chunk_step`` keeps at least 64 trials, below
# which each terminal's matrix product gets too thin to pay (M=256, L=16)
_CHUNK_BYTES = 1 << 20
# bytes of channels ``gram_stats`` turns into Gram matrices at a time, and so
# of the conjugate copy each product reads (85 trials at M=64, L=6; 8 at
# M=256, L=16). There the copy and a 64-trial chunk's Gram matrices take the
# 0.75 MiB its Cholesky stage takes after them, so a smaller copy lowers no
# peak
_CONJ_BYTES = 1 << 19


def _eigen_trace(gram):
    """Tr[G^-1] from the eigenvalues; inf unless 0 < lam_max <= COND_MAX lam_min."""
    lam = np.linalg.eigvalsh(gram)
    trace_inv = np.full(len(gram), np.inf)
    ok = (lam[:, 0] > 0) & (lam[:, -1] <= COND_MAX * lam[:, 0])
    trace_inv[ok] = np.sum(1.0 / lam[ok], axis=1)
    return trace_inv


def channels(w: np.ndarray, bh, out=None) -> np.ndarray:
    """Correlated channels ``h[t, l] = w[t, l, :r_l] @ bh[l]``, (n_trials, L, M),
    for terminal l's (r_l, M) conjugate-transposed factor ``bh[l]``; written
    into ``out``, a C-contiguous complex128 array of that shape, when given."""
    if out is None:
        out = np.empty(w.shape[:2] + (bh[0].shape[1],), np.complex128)
    for l, b in enumerate(bh):
        np.matmul(w[:, l, : len(b)], b, out=out[:, l, :])
    return out


def gram_stats(h: np.ndarray) -> np.ndarray:
    """Per-trial Tr[G^-1] of G = h h^H for an (n_trials, L, M) batch of
    channels, inf where G fails the condition screen (``gram_eta_stats``);
    the Gram matrices are built ``_CONJ_BYTES`` of channels at a time."""
    n_trials, n_term, m = h.shape
    gram = np.empty((n_trials, n_term, n_term), np.complex128)
    step = max(1, _CONJ_BYTES // (n_term * m * 16))
    for t in range(0, n_trials, step):
        part = h[t : t + step]
        np.matmul(part, np.conj(np.transpose(part, (0, 2, 1))), out=gram[t : t + step])
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return _eigen_trace(gram)
    # Tr[G^-1] = ||L^-1||_F^2 for G = L L^H; lam_max / lam_min <= Tr[G] Tr[G^-1],
    # so a product within COND_MAX proves the condition
    sq = np.square(chol_inv.real)
    sq += np.square(chol_inv.imag)
    trace_inv = np.sum(sq, axis=(1, 2))
    loose = np.trace(gram, axis1=1, axis2=2).real * trace_inv > COND_MAX
    if np.any(loose):
        trace_inv[loose] = _eigen_trace(gram[loose])
    return trace_inv


def chunk_step(n_term: int, m: int) -> int:
    """Trials per ``gram_eta_stats`` chunk for L = ``n_term`` terminals and M = ``m``."""
    return max(64, _CHUNK_BYTES // (n_term * m * 16))


def gram_eta_stats(w: np.ndarray, bh) -> np.ndarray:
    """Per-trial Tr[(HH^H)^-1] for a batch of trials, ``inf`` for a trial
    whose Gram matrix fails the condition screen.

    A trial passes when ``0 < lam_min`` and ``lam_max <= COND_MAX * lam_min``.
    The Cholesky factor's ``Tr[G] * Tr[G^-1] <= COND_MAX`` proves that
    without an eigensolve; the eigenvalues decide the trials past that
    bound, and a whole chunk when one of its Gram matrices is not
    numerically positive definite.

    The trials run in chunks of ``chunk_step(L, M)`` trials, a step set by
    L and M alone, so a trial's value does not depend on the batch it came
    in; every chunk's channels go into one buffer the call allocates once.

    ``w`` holds (n_trials, L, >= max r_l) iid CN(0, 1) fading draws of any
    strides, and ``bh`` the L conjugate-transposed (r_l, M) factors, r_l <= M,
    as an (L, M, M) or (L, r, M) stack or a list whose ranks differ; row l of
    trial t is ``w[t, l, :r_l] @ bh[l]``.
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
    step = chunk_step(n_term, m)
    trace_inv = np.empty(n_trials)
    h = np.empty((min(step, n_trials), n_term, m), np.complex128)
    for t in range(0, n_trials, step):
        chunk = w[t : t + step]
        trace_inv[t : t + step] = gram_stats(channels(chunk, bh, out=h[: len(chunk)]))
    return trace_inv
