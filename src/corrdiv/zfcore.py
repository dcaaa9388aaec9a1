"""Fading draws and the closed-form zero-forcing SNR.

The transmit precoder is never formed. For a downlink with channel H (L
terminals by M antennas), the per-terminal ZF SNR is

    snr_l = rho_t * beta_l / (sigma2 * eta),   eta = Tr[(H H^H)^-1] / L,

so the exact SNR reduces to trace-of-inverse statistics of the Gram matrix,
which ``kernels.gram_stats`` computes. This module draws the CN(0, 1) fading
those channels are built from, and gives the closed-form expected SNR and
sum spectral efficiency driven by the diversity summary Tr[Rbar^2].
"""

import numpy as np

from .errors import InvalidParameterError


def draw_fading(rngs, ranks, n_trials: int) -> np.ndarray:
    """(n_trials, L, max(ranks)) CN(0, 1) entries: terminal l's first
    ``ranks[l]`` columns come from ``rngs[l]``, and the rest stay zero.

    The result is a view of a terminal-major (L, max(ranks), n_trials)
    block. Terminal l's standard normals fill it in place as interleaved
    (real, imaginary) pairs, column k for every trial before column k + 1,
    so its first r columns are the same whatever rank it is drawn to. One
    generator passed L times serves the terminals in turn, ``ranks[l] *
    n_trials`` pairs each.
    """
    ranks = [int(r) for r in ranks]
    block = np.zeros((len(ranks), max(ranks, default=0), n_trials), np.complex128)
    for rows, rng, r in zip(block, rngs, ranks, strict=True):
        filled = rows[:r]
        rng.standard_normal(out=filled.view(np.float64))
        filled *= np.sqrt(0.5)
    return block.transpose(2, 0, 1)


def expected_zf_snr_closed_form(
    beta,
    m: int,
    l: int,
    trace_sq: float,
    rho_t: float,
    sigma2: float,
):
    """Closed-form fading-averaged ZF SNR, rho_t*beta*M^3 / (sigma2*(M^2 + L*Tr[Rbar^2])).

    ``beta`` is one link gain, giving a float, or an array of them, giving
    an array of SNRs. Against the exact iid trace-inverse oracle it agrees
    within 1%.
    """
    if m < 1 or l < 1 or l > m:
        raise InvalidParameterError(f"need M >= L >= 1, got M={m}, L={l}")
    if (np.asarray(beta) <= 0).any() or rho_t <= 0 or sigma2 <= 0:
        raise InvalidParameterError("beta, rho_t and sigma2 must be positive")
    if trace_sq < m * (1 - 1e-12):
        raise InvalidParameterError(f"Tr[Rbar^2]={trace_sq} below its minimum M={m}")
    return rho_t * beta * m**3 / (sigma2 * (m**2 + l * trace_sq))


def expected_sum_se_closed_form(betas, m, l, trace_sq, rho_t, sigma2) -> float:
    """Sum over terminals of log2(1 + closed-form expected SNR)."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (l,):
        raise InvalidParameterError(f"need {l} link gains, got shape {betas.shape}")
    snrs = expected_zf_snr_closed_form(betas, m, l, trace_sq, rho_t, sigma2)
    return float(np.sum(np.log2(1.0 + snrs)))

