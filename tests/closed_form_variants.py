"""Formulas the engine does not call, kept as test-side references.

``l_scaled_zf_snr`` is a wrong closed form that criterion 9 guards against.
The other two are the steps the paper derives the engine's closed form from:
``neumann_trace_inverse`` expands Tr[(HH^H)^-1] in powers of the Gram
matrix, and ``moment_trace_gram_squared`` gives the second moment
E{Tr[(HH^H)^2]} that the expansion's second-order term averages to.
``tests/test_zfcore.py`` and criterion 2 check them against Monte Carlo
and against the Gram kernel's exact trace.
"""

import math

import numpy as np

from corrdiv.corrmodels import average_correlation
from corrdiv.errors import InvalidParameterError

_NEUMANN_ORDERS = (1, 2, 3)


def l_scaled_zf_snr(beta, m, l, trace_sq, rho_t, sigma2):
    """The closed form with an extra factor of L in its denominator.

    Against the exact iid trace-inverse oracle it underestimates the SNR by a
    factor of about L; criterion 9 guards that the engine's form is not it.
    """
    return rho_t * beta * m**3 / (sigma2 * (m**2 + l * trace_sq) * l)


def neumann_trace_inverse(h, order: int) -> float:
    """Order-N Neumann approximation of Tr[(HH^H)^-1] for an (L, M) channel.

    Expands the inverse around (1/M) I using the binomial form in powers of
    the Gram matrix: for N=2 this reduces to
    (1/M) [3L - (3/M) Tr(G) + (1/M^2) Tr(G^2)].
    """
    h = np.asarray(h, dtype=np.complex128)
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


def moment_trace_gram_squared(rs) -> float:
    """E{Tr[(HH^H)^2]} = L (M^2 + L Tr[Rbar^2]) for rows h_l ~ CN(0, R_l)."""
    _, trace_sq = average_correlation(rs)
    m = rs[0].order
    l = len(rs)
    return l * (m**2 + l * trace_sq)
