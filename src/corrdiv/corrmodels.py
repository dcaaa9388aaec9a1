"""Spatial correlation matrices for a uniform linear array.

Three constructors (exponential, complex-phase exponential, one-ring), a
pivoted-Cholesky factorization for correlated channel synthesis, and the
average-correlation diversity summary used by the closed-form SNR.
"""

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    CorrDivError,
    DimensionMismatchError,
    IndefiniteMatrixError,
    InvalidParameterError,
    QuadratureNonconvergenceError,
    require_finite,
)
from .propagation import MeasuredAngularModel

# eigenvalues in [PSD_FLOOR, 0) are rounding noise; anything below is
# treated as a construction bug
PSD_FLOOR = -1e-10
# factor() stops once the trace it leaves out is at most this, which for a
# PSD matrix also bounds the Frobenius norm of what it leaves out
_FACTOR_TOL = abs(PSD_FLOOR)

_QUAD_START_ORDER = 32
_QUAD_MAX_ORDER = 4096
_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class CorrelationMatrix:
    """M x M Hermitian unit-diagonal correlation matrix."""

    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 1:
            raise InvalidParameterError(f"correlation matrix must be square, got shape {e.shape}")
        if not np.array_equal(e, e.conj().T):
            raise InvalidParameterError("correlation matrix must be exactly Hermitian")
        if not np.all(e.diagonal() == 1):
            raise InvalidParameterError("correlation matrix must have a unit diagonal")
        if np.any(np.abs(e) > 1 + 1e-9):
            raise InvalidParameterError("correlation coefficients cannot exceed unit magnitude")
        e.setflags(write=False)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


# the spec fields each variant reads
VARIANT_FIELDS = {
    "exponential": {"variant", "xi"},
    "clerckx": {"variant", "xi", "phase_range_deg"},
    "one_ring": {
        "variant", "angular_spread_deg", "mean_doa_deg", "spacing_wavelengths", "measured"
    },
}


@dataclass(frozen=True)
class CorrelationModelSpec:
    """Resolved per-scenario correlation-model parameters.

    ``angular_spread_deg`` may be the string tag ``"measured"`` (draw per
    terminal from the measured distribution) and ``mean_doa_deg`` the tag
    ``"uniform"`` (draw per terminal from U[-180, 180]). ``measured`` is the
    fit a ``"measured"`` spread draws from, the default fit when not given.
    A field the variant does not read must keep its default.
    """

    variant: str
    xi: float = 0.0
    phase_range_deg: tuple = (0.0, 0.0)
    angular_spread_deg: float | str = 14.02
    mean_doa_deg: float | str = "uniform"
    spacing_wavelengths: float = 0.5
    measured: MeasuredAngularModel | None = None

    def __post_init__(self):
        if self.angular_spread_deg != "measured":
            if self.measured is not None:
                raise InvalidParameterError(
                    "measured block requires angular_spread_deg: measured", field="measured"
                )
        elif self.measured is None:
            object.__setattr__(self, "measured", MeasuredAngularModel())
        if self.variant not in VARIANT_FIELDS:
            raise InvalidParameterError(
                f"unknown correlation model variant {self.variant!r}", field="variant"
            )
        # a tuple, so that specs stay hashable whatever sequence the caller gave
        phase_range = tuple(self.phase_range_deg)
        if len(phase_range) != 2:
            raise InvalidParameterError(
                f"phase range must be a (low, high) pair, got {self.phase_range_deg!r}",
                field="phase_range_deg",
            )
        object.__setattr__(self, "phase_range_deg", phase_range)
        lo, hi = phase_range
        tagged = {"angular_spread_deg": self.angular_spread_deg, "mean_doa_deg": self.mean_doa_deg}
        require_finite(
            xi=self.xi,
            phase_range_low_deg=lo,
            phase_range_high_deg=hi,
            spacing_wavelengths=self.spacing_wavelengths,
            **{k: v for k, v in tagged.items() if not isinstance(v, str)},
        )
        # a field the variant does not read keeps its default, so one model
        # has one spec, and its default passes the checks below
        for f in fields(self):
            if f.name not in VARIANT_FIELDS[self.variant] and getattr(self, f.name) != f.default:
                raise InvalidParameterError(
                    f"{f.name} does not apply to the {self.variant} model", field=f.name
                )
        if not 0 <= self.xi <= 1:
            raise InvalidParameterError(f"xi must be in [0, 1], got {self.xi}", field="xi")
        if lo > hi:
            raise InvalidParameterError(
                f"phase range must be ordered, got ({lo}, {hi})", field="phase_range_deg"
            )
        s = self.angular_spread_deg
        if isinstance(s, str):
            if s != "measured":
                raise InvalidParameterError(
                    f"unknown angular spread tag {s!r}", field="angular_spread_deg"
                )
        elif not 0 < s <= 180:
            raise InvalidParameterError(
                f"angular spread must be in (0, 180] deg, got {s}", field="angular_spread_deg"
            )
        d = self.mean_doa_deg
        if isinstance(d, str) and d != "uniform":
            raise InvalidParameterError(f"unknown mean DOA tag {d!r}", field="mean_doa_deg")
        if self.spacing_wavelengths <= 0:
            raise InvalidParameterError(
                "element spacing must be positive", field="spacing_wavelengths"
            )


def _hermitian_toeplitz(col):
    """Toeplitz matrix with first column ``col`` and its conjugate mirror above.

    entry(i, j) = col[i - j] for i >= j and conj(col[j - i]) otherwise, so the
    result is exactly Hermitian whenever col[0] is real.
    """
    m = col.size
    # full[m - 1 + k] is the entry at lag i - j = k
    full = np.concatenate((col.conj()[:0:-1], col))
    return full[np.subtract.outer(np.arange(m), np.arange(m)) + (m - 1)]


def _check_order_xi(m, xi):
    if m < 1:
        raise InvalidParameterError(f"matrix order must be >= 1, got {m}")
    if not 0 <= xi <= 1:
        raise InvalidParameterError(f"xi must be in [0, 1], got {xi}")


def build_exponential(m: int, xi: float) -> CorrelationMatrix:
    """Real symmetric Toeplitz profile with entry(i, j) = xi^|i-j|."""
    _check_order_xi(m, xi)
    col = xi ** np.arange(m, dtype=np.float64)
    return CorrelationMatrix(_hermitian_toeplitz(col))


def build_clerckx(m: int, xi: float, delta_phase_deg: float) -> CorrelationMatrix:
    """Exponential magnitude profile with a terminal-specific phase.

    entry(i, j) = (xi * e^{j delta})^(j-i) for j >= i, conjugate mirror below,
    so the magnitudes match :func:`build_exponential` exactly and the matrix
    stays Hermitian for any phase.
    """
    _check_order_xi(m, xi)
    return CorrelationMatrix(_hermitian_toeplitz(_clerckx_row(m, xi, delta_phase_deg).conj()))


def _clerckx_row(m, xi, delta_phase_deg):
    """First row of :func:`build_clerckx`: (xi * e^{j delta})^k at lag k."""
    row = (xi * np.exp(1j * np.deg2rad(delta_phase_deg))) ** np.arange(m)
    row[0] = 1.0
    return row


@lru_cache(maxsize=None)
def _gl_nodes(order):
    return leggauss(order)


def _one_ring_lags(m, spread_rad, mean_rad, spacing, order):
    x, w = _gl_nodes(order)
    phi = mean_rad + spread_rad * x
    # row k holds z^k for z = e^{-j 2 pi d sin(phi)}: one exp per node and a
    # running product over the lags, whose rounding grows like k * eps
    kernel = np.empty((m, order), np.complex128)
    kernel[0] = 1.0
    kernel[1:] = np.exp(-2j * np.pi * spacing * np.sin(phi))
    np.cumprod(kernel, axis=0, out=kernel)
    # (1/(2*spread)) * integral over [mean - spread, mean + spread] collapses
    # to 0.5 * sum(w * f) under the affine map to [-1, 1]
    return 0.5 * (kernel @ w)


def build_one_ring(
    m: int,
    angular_spread_deg: float,
    mean_doa_deg: float,
    spacing_wavelengths: float = 0.5,
) -> CorrelationMatrix:
    """Correlation from a uniform angle window around a mean direction.

    entry(i, j) averages the array phase response e^{-j 2 pi d (i-j) sin(phi)}
    over phi uniform on [mean - spread, mean + spread]. Entries are evaluated
    per lag by Gauss-Legendre quadrature whose order is doubled until the
    result stabilizes to 1e-10, then mirrored into a Hermitian Toeplitz matrix.
    """
    if m < 1:
        raise InvalidParameterError(f"matrix order must be >= 1, got {m}")
    if not 0 < angular_spread_deg <= 180:
        raise InvalidParameterError(
            f"angular spread must be in (0, 180] deg, got {angular_spread_deg}"
        )
    if spacing_wavelengths <= 0:
        raise InvalidParameterError(
            "element spacing must be positive", field="spacing_wavelengths"
        )

    spread = np.deg2rad(angular_spread_deg)
    mean = np.deg2rad(mean_doa_deg)
    order = _QUAD_START_ORDER
    vals = _one_ring_lags(m, spread, mean, spacing_wavelengths, order)
    while True:
        if 2 * order > _QUAD_MAX_ORDER:
            raise QuadratureNonconvergenceError(
                f"one-ring quadrature did not stabilize by order {_QUAD_MAX_ORDER} "
                f"(spread {angular_spread_deg} deg, spacing {spacing_wavelengths})"
            )
        order *= 2
        refined = _one_ring_lags(m, spread, mean, spacing_wavelengths, order)
        if np.max(np.abs(refined - vals)) <= _QUAD_TOL:
            vals = refined
            break
        vals = refined

    vals[0] = 1.0  # integrand is identically 1 at zero lag
    return CorrelationMatrix(_hermitian_toeplitz(vals))


def factor(r: CorrelationMatrix) -> np.ndarray:
    """Conjugate-transposed pivoted Cholesky factor C^H, (rank, M), with
    C C^H = R up to 1e-10: the layout channel synthesis reads.

    Each step takes the largest remaining diagonal entry of the Schur
    complement as its pivot, and the factor stops once the complement's
    trace sum(max(d_i, 0)) is at most ``_FACTOR_TOL``. For a PSD matrix that
    bounds ||R - C C^H||_F <= Tr[R - C C^H] <= 1e-10, so a rank-deficient
    one-ring profile costs O(M r^2), plus O(M^2 r) for the residual check,
    and yields r rows. The residual check
    guards indefiniteness: by Weyl's inequality ||R - C C^H||_2 >= -lam_min(R),
    so a matrix with an eigenvalue below ``PSD_FLOOR`` by more than the
    rounding slack 2 M (r + 1) eps raises ``IndefiniteMatrixError``. The tests
    check the reconstruction to 1e-8 for every family.
    """
    a = np.asarray(r.entries, dtype=np.complex128)
    m = a.shape[0]
    d = a.diagonal().real.copy()
    # row k of bh is column k of C conjugated, so each update reads
    # contiguous rows
    bh = np.zeros((m, m), np.complex128)
    k = 0
    while k < m and np.maximum(d, 0.0).sum() > _FACTOR_TOL:
        p = int(d.argmax())
        # row p of R, less what the first k columns explain, is column p of
        # the Schur complement conjugated
        row = bh[k]
        np.subtract(a[p], bh[:k, p].conj() @ bh[:k], out=row)
        row *= 1.0 / np.sqrt(d[p])
        d -= (row * row.conj()).real
        d[p] = 0.0  # zero in exact arithmetic; rounding must not pick p twice
        k += 1
    # a compact copy: a view would keep the whole M x M work buffer alive
    # for as long as the caller holds the factor
    bh = bh[:k].copy()
    residual = float(np.linalg.norm(a - bh.conj().T @ bh))
    if residual > _FACTOR_TOL + 2.0 * m * (k + 1) * np.finfo(np.float64).eps:
        raise IndefiniteMatrixError(
            f"correlation matrix is indefinite (||R - C C^H||_F = {residual:.3e} "
            f"after {k} pivots)"
        )
    return bh


def average_correlation(rs) -> tuple:
    """Entrywise mean of the terminal correlation matrices and Tr[Rbar^2].

    ``rs`` may be any iterable; it is read once, in order, and each matrix
    is folded into the sum as it arrives, so a generator never holds more
    than the matrix it yields. Returns ``(rbar, trace_sq)``. The trace is
    computed both directly, as ``sum_ij rbar_ij rbar_ji`` in O(M^2), and
    through the Hermitian identity ``M + 2 * sum_{i<j} |rbar_ij|^2``; the two
    routes must agree to 1e-9 relative error or the call fails.
    """
    rbar = None
    for count, r in enumerate(rs, 1):
        if rbar is None:
            rbar = np.zeros_like(r.entries)
        elif r.order != len(rbar):
            raise DimensionMismatchError("correlation matrices differ in order")
        dtype = np.result_type(rbar, r.entries)
        if dtype != rbar.dtype:  # a complex matrix after real ones
            rbar = rbar.astype(dtype)
        rbar += r.entries
    if rbar is None:
        raise DimensionMismatchError("need at least one correlation matrix")
    rbar /= count
    return rbar, _trace_sq(rbar)


def _trace_sq(rbar) -> float:
    """Tr[Rbar^2] by the two routes of :func:`average_correlation`, checked
    against each other."""
    m = len(rbar)
    upper = rbar[np.triu_indices(m, k=1)]
    trace_sq = m + 2.0 * float(np.sum(np.abs(upper) ** 2))
    direct = float(np.einsum("ij,ji->", rbar, rbar).real)
    if abs(direct - trace_sq) > 1e-9 * max(abs(trace_sq), 1.0):
        raise CorrDivError(
            f"Tr[Rbar^2] routes disagree: product {direct!r} vs identity {trace_sq!r}"
        )
    return trace_sq


def average_clerckx(m: int, xi: float, deltas) -> tuple:
    """:func:`average_correlation` over ``[build_clerckx(m, xi, d) for d in
    deltas]`` without building those matrices; ``deltas`` is a sequence.

    Every Clerckx matrix is Hermitian Toeplitz, so their entrywise sum is the
    Toeplitz matrix of their first rows summed in the same order: the mean
    equals :func:`average_correlation`'s entry for entry, up to the sign of a
    zero, and its trace bit for bit. The mean is returned as an array: its
    diagonal, L / L in complex arithmetic, need not be exactly 1.
    """
    _check_order_xi(m, xi)
    if len(deltas) == 0:
        raise DimensionMismatchError("need at least one correlation matrix")
    total = np.zeros(m, np.complex128)
    for d in deltas:
        total += _clerckx_row(m, xi, d)
    rbar = _hermitian_toeplitz(total.conj())
    rbar /= len(deltas)
    return rbar, _trace_sq(rbar)
