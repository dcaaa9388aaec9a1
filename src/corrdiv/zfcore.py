"""Zero-forcing SNR evaluation, exact and approximate.

The transmit precoder is never formed. For a downlink with channel H (L
terminals by M antennas), the per-terminal ZF SNR is

    snr_l = rho_t * beta_l / (sigma2 * eta),   eta = Tr[(H H^H)^-1] / L,

so everything reduces to trace-of-inverse statistics of the Gram matrix,
which the exact evaluator takes from ``kernels.gram_stats``. Alongside it
this module provides the Neumann-series trace approximation and the
closed-form expected SNR driven by the diversity summary Tr[Rbar^2].
"""

import math

import numpy as np

from .corrmodels import average_correlation
from .errors import IllConditionedChannelError, InvalidParameterError
from .kernels import COND_MAX, conditioned, gram_stats

_NEUMANN_ORDERS = (1, 2, 3)


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


def _channel(h) -> np.ndarray:
    """``h`` as an (L, M) complex128 channel matrix with L <= M."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] > h.shape[1]:
        raise InvalidParameterError(f"need an (L, M) channel with L <= M, got shape {h.shape}")
    return h


def zf_eta_exact(h) -> float:
    """eta = Tr[(HH^H)^-1] / L for an (L, M) channel, from the Gram kernel."""
    h = _channel(h)
    stats = gram_stats(h[np.newaxis])
    if not conditioned(stats)[0]:
        _, lam_lo, lam_hi = stats[0]
        cond = np.inf if lam_lo <= 0 else lam_hi / lam_lo
        raise IllConditionedChannelError(
            f"Gram matrix condition {cond:.3e} exceeds {COND_MAX:.0e}"
        )
    return float(stats[0, 0]) / h.shape[0]


def neumann_trace_inverse(h, order: int) -> float:
    """Order-N Neumann approximation of Tr[(HH^H)^-1] for an (L, M) channel.

    Expands the inverse around (1/M) I using the binomial form in powers of
    the Gram matrix: for N=2 this reduces to
    (1/M) [3L - (3/M) Tr(G) + (1/M^2) Tr(G^2)].
    """
    h = _channel(h)
    if order not in _NEUMANN_ORDERS:
        raise InvalidParameterError(f"Neumann order must be one of {_NEUMANN_ORDERS}")
    m = h.shape[1]
    gram = h @ h.conj().T
    power = np.eye(h.shape[0])
    total = 0.0
    for q in range(order + 1):
        weight = sum(math.comb(n, q) for n in range(q, order + 1))
        total += weight * (-1.0) ** q * float(np.trace(power).real) / m**q
        power = power @ gram
    return total / m


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


def moment_trace_gram_squared(rs) -> float:
    """E{Tr[(HH^H)^2]} = L (M^2 + L Tr[Rbar^2]) for rows h_l ~ CN(0, R_l)."""
    _, trace_sq = average_correlation(rs)
    m = rs[0].order
    l = len(rs)
    return l * (m**2 + l * trace_sq)
