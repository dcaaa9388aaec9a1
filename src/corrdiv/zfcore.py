"""Zero-forcing SNR evaluation, exact and approximate.

The transmit precoder is never formed. For a downlink with channel H (L
terminals by M antennas), the per-terminal ZF SNR is

    snr_l = rho_t * beta_l / (sigma2 * eta),   eta = Tr[(H H^H)^-1] / L,

so everything reduces to trace-of-inverse statistics of the Gram matrix.
Alongside the exact evaluator this module provides the Neumann-series trace
approximation and the closed-form expected SNR driven by the diversity
summary Tr[Rbar^2].
"""

import math
from dataclasses import dataclass

import numpy as np

from .corrmodels import average_correlation
from .errors import IllConditionedChannelError, InvalidParameterError

# Gram matrices past this condition number poison trace averages; callers
# count the rejection and resample the trial
COND_MAX = 1e12

_NEUMANN_ORDERS = (1, 2, 3)


@dataclass(frozen=True)
class ChannelMatrix:
    """L x M small-scale fading matrix (link gains excluded)."""

    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2:
            raise InvalidParameterError(f"channel matrix must be 2-D, got shape {e.shape}")
        if e.shape[0] > e.shape[1]:
            raise InvalidParameterError(
                f"need at least as many antennas as terminals, got {e.shape}"
            )
        e.setflags(write=False)

    @property
    def n_terminals(self) -> int:
        return self.entries.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SnrReport:
    per_terminal_snr_linear: np.ndarray
    eta: float
    sum_se_bits: float


def draw_fading(rng, n_terminals: int, n_antennas: int, n_trials=None) -> np.ndarray:
    """iid CN(0, 1) entries: one (L, M) matrix, or (n_trials, L, M) when given.

    The standard normals from ``rng`` fill the complex128 result in place as
    interleaved (real, imaginary) pairs, so each trial reads 2LM normals and a
    batch is bit-identical to ``n_trials`` successive single-trial calls.
    """
    w = np.empty((1 if n_trials is None else n_trials, n_terminals, n_antennas), np.complex128)
    rng.standard_normal(out=w.view(np.float64))
    w *= np.sqrt(0.5)
    return w[0] if n_trials is None else w


def sample_channel(factors, rng) -> ChannelMatrix:
    """Correlated Rayleigh channel: row l is w_l @ B_l^H with w_l ~ CN(0, I)."""
    if not factors:
        raise InvalidParameterError("need at least one correlation factor")
    m = factors[0].order
    if any(f.order != m for f in factors):
        raise InvalidParameterError("correlation factors differ in order")
    n_terminals = len(factors)
    if n_terminals > m:
        raise InvalidParameterError(f"L={n_terminals} terminals exceed M={m} antennas")
    w = draw_fading(rng, n_terminals, m)
    h = np.empty_like(w)
    for l, f in enumerate(factors):
        h[l, :] = w[l, :] @ f.factor.conj().T
    return ChannelMatrix(h)


def _gram_eigvals(h: ChannelMatrix) -> np.ndarray:
    e = h.entries
    return np.linalg.eigvalsh(e @ e.conj().T)


def zf_eta_exact(h: ChannelMatrix) -> float:
    """eta = Tr[(HH^H)^-1] / L via the symmetric eigendecomposition."""
    lam = _gram_eigvals(h)
    if lam[0] <= 0 or lam[-1] > COND_MAX * lam[0]:
        cond = np.inf if lam[0] <= 0 else lam[-1] / lam[0]
        raise IllConditionedChannelError(
            f"Gram matrix condition {cond:.3e} exceeds {COND_MAX:.0e}"
        )
    return float(np.sum(1.0 / lam)) / h.n_terminals


def zf_snr_instantaneous(h: ChannelMatrix, betas, rho_t: float, sigma2: float) -> SnrReport:
    """Per-terminal ZF SNR and sum spectral efficiency for one fading draw."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (h.n_terminals,):
        raise InvalidParameterError(
            f"need {h.n_terminals} link gains, got shape {betas.shape}"
        )
    if np.any(betas <= 0) or rho_t <= 0 or sigma2 <= 0:
        raise InvalidParameterError("link gains, rho_t and sigma2 must be positive")
    eta = zf_eta_exact(h)
    snr = rho_t * betas / (sigma2 * eta)
    return SnrReport(snr, eta, float(np.sum(np.log2(1.0 + snr))))


def neumann_trace_inverse(h: ChannelMatrix, order: int) -> float:
    """Order-N Neumann approximation of Tr[(HH^H)^-1].

    Expands the inverse around (1/M) I using the binomial form in powers of
    the Gram matrix: for N=2 this reduces to
    (1/M) [3L - (3/M) Tr(G) + (1/M^2) Tr(G^2)].
    """
    if order not in _NEUMANN_ORDERS:
        raise InvalidParameterError(f"Neumann order must be one of {_NEUMANN_ORDERS}")
    m = h.n_antennas
    lam = _gram_eigvals(h)
    total = 0.0
    for q in range(order + 1):
        weight = sum(math.comb(n, q) for n in range(q, order + 1))
        total += weight * (-1.0) ** q * float(np.sum(lam**q)) / m**q
    return total / m


def expected_zf_snr_closed_form(
    beta: float,
    m: int,
    l: int,
    trace_sq: float,
    rho_t: float,
    sigma2: float,
) -> float:
    """Closed-form fading-averaged ZF SNR, rho_t*beta*M^3 / (sigma2*(M^2 + L*Tr[Rbar^2])).

    Against the exact iid trace-inverse oracle it agrees within 1%.
    """
    if m < 1 or l < 1 or l > m:
        raise InvalidParameterError(f"need M >= L >= 1, got M={m}, L={l}")
    if beta <= 0 or rho_t <= 0 or sigma2 <= 0:
        raise InvalidParameterError("beta, rho_t and sigma2 must be positive")
    if trace_sq < m * (1 - 1e-12):
        raise InvalidParameterError(f"Tr[Rbar^2]={trace_sq} below its minimum M={m}")
    return rho_t * beta * m**3 / (sigma2 * (m**2 + l * trace_sq))


def expected_sum_se_closed_form(betas, m, l, trace_sq, rho_t, sigma2) -> float:
    """Sum over terminals of log2(1 + closed-form expected SNR)."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.shape != (l,):
        raise InvalidParameterError(f"need {l} link gains, got shape {betas.shape}")
    snrs = [
        expected_zf_snr_closed_form(float(b), m, l, trace_sq, rho_t, sigma2) for b in betas
    ]
    return float(np.sum(np.log2(1.0 + np.asarray(snrs))))


def moment_trace_gram_squared(rs) -> float:
    """E{Tr[(HH^H)^2]} = L (M^2 + L Tr[Rbar^2]) for rows h_l ~ CN(0, R_l)."""
    _, trace_sq = average_correlation(rs)
    m = rs[0].order
    l = len(rs)
    return l * (m**2 + l * trace_sq)
