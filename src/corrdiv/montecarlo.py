"""Drop x fading-trial Monte Carlo orchestration and aggregation.

Randomness discipline (RNG contract 6): every stream is derived from the
scenario seed as SeedSequence(entropy=seed, spawn_key=(drop, lane, ...))
feeding an SFC64 generator. Lane 0 carries geometry and shadowing, lane 1 the
per-terminal correlation parameters and lane 2 one fading stream per terminal
l (spawn key (drop, 2, l)). Terminal l's channel reads the first r_l columns
of its fading, where r_l is the rank of its pivoted-Cholesky factor, and its
stream fills column k for every trial before column k + 1, so those columns
do not depend on how far the stream is drawn. Drops are therefore
independent work units whose results do not depend on worker count,
scheduling order or the other scenarios of a pass, and scenarios of equal
(n_fading, L, M) share their fading drop by drop. ``run_scenarios`` exploits
that: it loops over drops outermost and, within a drop, draws each
terminal's fading once, to the largest rank any scenario of that shape
reads, and each trial's Tr[G^-1] once per correlation model, ``inf`` where
the trial fails the condition screen. Aggregating a scenario's drop draws
its lane-0 geometry, which no kernel reads, and applies the screen's 5%
abort rule.

Calibration lives here too: the attenuation constant A that puts the 5th
percentile of instantaneous ZF SNR at 0 dB on a scenario's calibration
baseline, the reference configuration ``_REFERENCE`` under its geometry.
"""

import ctypes
import numbers
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernels
from .corrmodels import (
    CorrelationModelSpec,
    _clerckx_row,
    average_toeplitz,
    build_exponential,
    build_one_ring,
    factor,
)
from .errors import CorrDivError, InvalidParameterError, RunFailureError, require_finite
from .kernels import COND_MAX
from .propagation import (
    GeometryConfig,
    draw_truncated_spread,
    link_gain,
    sample_link_gain,
    sample_terminal_geometry,
)
from .zfcore import (
    draw_fading,
    expected_sum_se_closed_form,
    expected_zf_snr_closed_form,
)

# no longer called here, kept in this namespace because bench/trace_cli.py
# wraps them here
from .corrmodels import average_correlation, build_clerckx  # noqa: F401

# version of the seed-to-stream mapping; manifests record it, since outputs
# of one contract cannot be reproduced under another
RNG_CONTRACT = 6

_GEOMETRY_LANE = 0
_MODEL_LANE = 1
_FADING_LANE = 2
# the most bytes one array of a run may take: one drop's (n_fading, L, M)
# fading block, one M x M correlation matrix, or the n_drops x n_fading x L
# instantaneous SNRs that a run, or its L=6 calibration baseline, pools. A
# scenario past it is rejected before it allocates
MAX_ARRAY_BYTES = 1 << 32
# the configuration calibration solves on; a scenario keeps its geometry,
# noise power, seed, run sizes and radial law
_REFERENCE = {
    "m": 64,
    "l": 6,
    "rho_t_db": 0.0,
    "model": CorrelationModelSpec(variant="exponential", xi=0.9),
}
# glibc keeps a freed heap hole resident while a live block sits above it, and a
# granted huge page makes a fading block's unfilled rows resident: a drop trims
# the heap (a no-op without glibc), and a pass turns numpy's huge-page advice off
_trim_heap = getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)
_advise_huge_pages = (getattr(np, "_core", None) or np.core).multiarray._set_madvise_hugepage


@dataclass(frozen=True)
class Scenario:
    m: int
    l: int
    model: CorrelationModelSpec
    n_drops: int
    n_fading: int
    seed: int
    rho_t_db: float = 0.0
    sigma2: float = 1.0
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    radial_law: str = "area"

    def __post_init__(self):
        for name in ("m", "l", "n_drops", "n_fading", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}", field=name)
            object.__setattr__(self, name, operator.index(value))
        for name, kind in (("model", CorrelationModelSpec), ("geometry", GeometryConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise InvalidParameterError(
                    f"{name} must be a {kind.__name__}, got {value!r}", field=name
                )
        require_finite(self, "rho_t_db", "sigma2")
        if self.m < 1 or self.l < 1 or self.l > self.m:
            raise InvalidParameterError(
                f"need M >= L >= 1, got M={self.m}, L={self.l}",
                field="m" if self.m < 1 else "l",
            )
        if self.n_drops < 1 or self.n_fading < 1:
            raise InvalidParameterError(
                "n_drops and n_fading must be >= 1",
                field="n_drops" if self.n_drops < 1 else "n_fading",
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError(
                "seed must fit in an unsigned 64-bit integer", field="seed"
            )
        if self.sigma2 <= 0:
            raise InvalidParameterError("sigma2 must be positive", field="sigma2")
        if self.radial_law not in ("area", "radius"):
            raise InvalidParameterError(
                f"unknown radial law {self.radial_law!r}", field="radial_law"
            )
        for nbytes, fields, array in (
            (16 * self.m**2, "m", "an M x M correlation matrix"),
            (16 * self.n_fading * self.l * self.m, ("n_fading", "l", "m"), "a drop's fading"),
            (
                8 * self.n_drops * self.n_fading * max(self.l, _REFERENCE["l"]),
                ("n_drops", "n_fading"),
                "the instantaneous SNRs a run pools",
            ),
        ):
            if nbytes > MAX_ARRAY_BYTES:
                raise InvalidParameterError(
                    f"{array} would take more than {MAX_ARRAY_BYTES >> 30} GiB, "
                    "the most one array may take",
                    field=fields,
                )
        rank = _shared_rank(self.model, self.m)
        if rank is not None and rank < self.l:
            raise InvalidParameterError(
                f"every terminal shares one correlation matrix of numerical rank {rank} "
                f"< L={self.l}, so every Gram matrix is singular",
                field="l",
            )

    @property
    def rho_t_linear(self) -> float:
        return 10.0 ** (self.rho_t_db / 10.0)


@dataclass(frozen=True)
class DropResult:
    drop_index: int
    distances_m: np.ndarray
    link_gains: np.ndarray
    per_terminal_expected_snr_db: np.ndarray
    per_terminal_closed_form_snr_db: np.ndarray
    sum_se_sim_bits: float
    sum_se_cf_bits: float
    trace_sq: float
    # trials the condition screen left out of every average
    rejected_trials: int
    eta_cv: float
    # each kept trial's L / Tr[G^-1]; a terminal's instantaneous SNR is
    # rho_t beta / sigma2 times it
    inv_eta: np.ndarray


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    drops: tuple
    summary: dict


@lru_cache(maxsize=32)
def _shared_rank(model: CorrelationModelSpec, m: int) -> Optional[int]:
    """Numerical rank of the one matrix every terminal shares, or None when
    the model draws the terminals' matrices apart.

    The rank counts eigenvalues above lam_max / COND_MAX. Equal Clerckx phase
    bounds give every terminal the exponential spectrum, and an exponential
    profile with xi < 1 has lam_max / lam_min <= ((1 + xi) / (1 - xi))^2, so
    it needs an eigensolve only for xi within about 2e-6 of 1.
    """
    if model.variant == "clerckx" and model.phase_range_deg[0] != model.phase_range_deg[1]:
        return None
    if model.variant == "one_ring":
        spread, doa = model.angular_spread_deg, model.mean_doa_deg
        if isinstance(spread, str) or isinstance(doa, str):
            return None
        r = build_one_ring(m, spread, doa, model.spacing_wavelengths)
    elif model.xi == 1.0:
        return 1
    elif ((1.0 + model.xi) / (1.0 - model.xi)) ** 2 <= COND_MAX:
        return m
    else:
        r = build_exponential(m, model.xi)
    lam = np.linalg.eigvalsh(r.entries)
    return int(np.sum(lam > lam[-1] / COND_MAX))


def _stream(seed: int, *spawn_key):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.SFC64(ss))


@lru_cache(maxsize=8)
def _exponential_profile(m: int, xi: float):
    """The exponential matrix's first column and its conjugate-transposed
    factor, both read-only.

    Both depend on (M, xi) alone, so every drop of an exponential or Clerckx
    scenario, and of the calibration baseline, shares one factorization.
    """
    r = build_exponential(m, xi)
    col, bh = r.entries[:, 0].copy(), factor(r)
    col.setflags(write=False)
    bh.setflags(write=False)
    return col, bh


def _terminal_profiles(scenario: Scenario, rng):
    """Lane 1: the drop's Tr[Rbar^2] and the terminals' conjugate-transposed
    correlation factors, one (r_l, M) array per terminal: an (L, r, M) stack
    for the exponential and Clerckx families, whose terminals share a rank,
    and a list for the one-ring family. Every profile is Hermitian Toeplitz,
    so the trace comes from the terminals' first columns.

    Draw order inside the model lane is fixed: all mean-DOA draws first, then
    all spread draws. Scenarios differing only in the spread rule therefore
    share their DOA draws under a common seed.
    """
    model = scenario.model
    m, n = scenario.m, scenario.l
    if model.variant == "exponential":
        col, bh = _exponential_profile(m, model.xi)
        _, trace_sq = average_toeplitz([col] * n)
        return trace_sq, np.broadcast_to(bh, (n,) + bh.shape)
    if model.variant == "clerckx":
        lo, hi = model.phase_range_deg
        deltas = [float(rng.uniform(lo, hi)) for _ in range(n)]
        _, trace_sq = average_toeplitz([_clerckx_row(m, model.xi, d).conj() for d in deltas])
        _, bh = _exponential_profile(m, model.xi)
        # R = D^H T D with T exponential and D = diag(e^{j delta i}), so
        # B^H = B_T^H D is the shared factor with its columns phase-ramped
        ramp = np.exp(1j * np.deg2rad(deltas)[:, np.newaxis] * np.arange(m))
        return trace_sq, bh * ramp[:, np.newaxis, :]

    if model.mean_doa_deg == "uniform":
        doas = [float(rng.uniform(-180.0, 180.0)) for _ in range(n)]
    else:
        doas = [model.mean_doa_deg] * n
    if model.angular_spread_deg == "measured":
        spreads = [draw_truncated_spread(model.measured, rng) for _ in range(n)]
    else:
        spreads = [model.angular_spread_deg] * n
    # each matrix is factored and freed before the next is built
    bh, columns = [], []
    for s, d in zip(spreads, doas):
        r = build_one_ring(m, s, d, model.spacing_wavelengths)
        bh.append(factor(r))
        columns.append(r.entries[:, 0].copy())
    _, trace_sq = average_toeplitz(columns)
    return trace_sq, bh


def _draw_geometry(scenario: Scenario, drop_index: int):
    """Lane 0: each terminal's distance, then each terminal's shadowing."""
    gen_geo = _stream(scenario.seed, drop_index, _GEOMETRY_LANE)
    # the azimuths are drawn and dropped: the contract fixes the lane's order
    distances = [
        sample_terminal_geometry(scenario.geometry, gen_geo, scenario.radial_law)[0]
        for _ in range(scenario.l)
    ]
    shadowing = [sample_link_gain(scenario.geometry, d, gen_geo)[0] for d in distances]
    return distances, shadowing


def _fading_key(s: Scenario) -> tuple:
    """What a drop's fading draws depend on."""
    return (s.seed, s.n_fading, s.l, s.m)


def _stats_key(s: Scenario) -> tuple:
    """What a drop's kernel statistics depend on."""
    return (s.model,) + _fading_key(s)


def _draw_drops(scenarios, drop_index: int) -> dict:
    """One drop's kernel results, ``{_stats_key(s): (trace_sq, trace_inv)}``
    for each correlation model of ``scenarios``, with every trial's Tr[G^-1]
    (``inf`` past the condition screen), or the ``CorrDivError`` that
    aborted that model's drop.

    The one-ring profiles come first, because their ranks set how far the
    fading is drawn; an exponential or Clerckx terminal has the rank of the
    cached exponential factor, and its model's profiles are built just
    before that model's kernel runs, so the drop holds one (L, r, M) Clerckx
    stack at a time. Each model reads its own lane-1 stream, so the order
    moves no draw. Scenarios of equal (seed, n_fading, L, M) share the
    drop's fading, each terminal drawn to the largest rank any of their
    profiles reads, and those that also share the correlation model share
    its kernel statistics. All of it lives only as long as this call; the
    geometry is drawn when the drop is aggregated.
    """
    _trim_heap(0)
    firsts = {}
    for s in scenarios:
        firsts.setdefault(_stats_key(s), s)
    runs, ranks = {}, {}
    for key, s in firsts.items():
        try:
            if s.model.variant == "one_ring":
                runs[key] = _terminal_profiles(s, _stream(s.seed, drop_index, _MODEL_LANE))
                need = [len(b) for b in runs[key][1]]
            else:
                need = [len(_exponential_profile(s.m, s.model.xi)[1])] * s.l
        except CorrDivError as exc:
            runs[key] = exc
            continue
        shape = _fading_key(s)
        ranks[shape] = np.maximum(ranks.get(shape, 0), need)

    _trim_heap(0)
    fading = {
        (seed, n, l, m): draw_fading(
            [_stream(seed, drop_index, _FADING_LANE, t) for t in range(l)], need, n
        )
        for (seed, n, l, m), need in ranks.items()
    }

    for key, s in firsts.items():
        if isinstance(runs.get(key), CorrDivError):
            continue
        try:
            trace_sq, bh = runs.get(key) or _terminal_profiles(
                s, _stream(s.seed, drop_index, _MODEL_LANE)
            )
            runs[key] = trace_sq, kernels.gram_eta_stats(fading[_fading_key(s)], bh)
        except CorrDivError as exc:
            runs[key] = exc
        bh = None  # freed before the next model's stack is built
    return runs


def _aggregate_drop(scenario: Scenario, drop_index: int, kernel) -> DropResult:
    """Lane-0 geometry, link gains, fading-averaged and closed-form SNRs and
    sum SE of one drop from its model's ``_draw_drops`` result, whose
    ``CorrDivError`` it raises. A trial of infinite Tr[G^-1] enters no
    average; more of them than 5% of the trials abort the drop."""
    if isinstance(kernel, CorrDivError):
        raise kernel
    n_term, n_ant = scenario.l, scenario.m
    trace_sq, trace_inv = kernel
    kept = np.isfinite(trace_inv)
    rejected = scenario.n_fading - int(np.count_nonzero(kept))
    if rejected > 0.05 * scenario.n_fading:
        raise RunFailureError(
            f"{rejected} of {scenario.n_fading} trials failed the condition screen, "
            "more than the 5% abort threshold allows"
        )
    trace_inv = trace_inv[kept]
    inv_eta = n_term / trace_inv
    distances, shadowing = _draw_geometry(scenario, drop_index)
    betas = np.array([link_gain(scenario.geometry, z, d) for d, z in zip(distances, shadowing)])
    scale = scenario.rho_t_linear * betas / scenario.sigma2

    mean_inv_eta = float(np.mean(inv_eta))
    snr_sim_db = 10.0 * np.log10(scale * mean_inv_eta)
    snr_cf_db = 10.0 * np.log10(
        expected_zf_snr_closed_form(
            betas, n_ant, n_term, trace_sq, scenario.rho_t_linear, scenario.sigma2
        )
    )
    inst_snr = np.outer(inv_eta, scale)
    sum_se_sim = float(np.mean(np.sum(np.log2(1.0 + inst_snr), axis=1)))
    sum_se_cf = expected_sum_se_closed_form(
        betas, n_ant, n_term, trace_sq, scenario.rho_t_linear, scenario.sigma2
    )
    eta_cv = float(np.std(trace_inv) / np.mean(trace_inv))

    return DropResult(
        drop_index=drop_index,
        distances_m=np.array(distances),
        link_gains=betas,
        per_terminal_expected_snr_db=snr_sim_db,
        per_terminal_closed_form_snr_db=snr_cf_db,
        sum_se_sim_bits=sum_se_sim,
        sum_se_cf_bits=sum_se_cf,
        trace_sq=trace_sq,
        rejected_trials=rejected,
        eta_cv=eta_cv,
        inv_eta=inv_eta,
    )


def run_drop(scenario: Scenario, drop_index: int) -> DropResult:
    """One drop: sample large-scale state, average over fading, compare closed form.

    Deterministic function of (scenario.seed, drop_index); raises the
    ``CorrDivError`` that aborts the drop.
    """
    kernel = _draw_drops([scenario], drop_index)[_stats_key(scenario)]
    return _aggregate_drop(scenario, drop_index, kernel)


def _summarize(drops, n_failed: int) -> dict:
    pooled = np.concatenate([d.per_terminal_expected_snr_db for d in drops])
    gaps = np.concatenate(
        [
            np.abs(d.per_terminal_expected_snr_db - d.per_terminal_closed_form_snr_db)
            for d in drops
        ]
    )
    return {
        "n_drops_completed": len(drops),
        "n_drops_failed": n_failed,
        "rejected_trials_total": int(sum(d.rejected_trials for d in drops)),
        "expected_snr_db_mean": float(np.mean(pooled)),
        "expected_snr_db_median": float(np.percentile(pooled, 50.0)),
        "expected_snr_db_p5": float(np.percentile(pooled, 5.0)),
        "expected_snr_db_p95": float(np.percentile(pooled, 95.0)),
        "sum_se_sim_bits_mean": float(np.mean([d.sum_se_sim_bits for d in drops])),
        "sum_se_cf_bits_mean": float(np.mean([d.sum_se_cf_bits for d in drops])),
        "mean_abs_cf_gap_db": float(np.mean(gaps)),
        "eta_cv_mean": float(np.mean([d.eta_cv for d in drops])),
    }


def _result(scenario: Scenario, per_drop) -> ScenarioResult:
    """Aggregate a scenario's drops from the pass's ``_draw_drops`` results,
    in drop order. The run fails outright if more than 1% of its drops abort."""
    key = _stats_key(scenario)
    drops, failures = [], []
    for d, kernel in enumerate(drop[key] for drop in per_drop):
        try:
            drops.append(_aggregate_drop(scenario, d, kernel))
        except CorrDivError as exc:
            failures.append((d, str(exc)))
    if len(failures) > 0.01 * scenario.n_drops:
        detail = "; ".join(f"drop {d}: {msg}" for d, msg in failures[:5])
        raise RunFailureError(
            f"{len(failures)} of {scenario.n_drops} drops aborted: {detail}"
        )
    drops = tuple(drops)
    return ScenarioResult(scenario, drops, _summarize(drops, len(failures)))


def calibration_baseline(scenario: Scenario) -> Scenario:
    """The reference configuration under ``scenario``'s geometry, noise power,
    seed, run sizes and radial law."""
    return replace(scenario, **_REFERENCE)


def _at_attenuation(scenario: Scenario, constant: float) -> Scenario:
    return replace(scenario, geometry=replace(scenario.geometry, attenuation_constant=constant))


@lru_cache(maxsize=None)
def _openblas():
    """numpy's bundled OpenBLAS, or None when numpy links another BLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        blas = ctypes.CDLL(str(lib))
        blas.scipy_openblas_get_num_threads64_.argtypes = []
        blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        blas.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        blas.scipy_openblas_set_num_threads64_.restype = None
        return blas
    return None


def _set_blas_threads(n):
    """Set numpy's bundled OpenBLAS to ``n`` threads and return the count it
    had. With another BLAS, does nothing and returns None, which as ``n``
    does nothing either.

    A pass runs thousands of small matrix products, between which a second
    OpenBLAS thread only spins, so the in-process pass and every pool worker
    run on one. Lowering the count does not stop a pool thread OpenBLAS
    started when numpy loaded, in this process or in a forked worker; the
    command line therefore starts OpenBLAS on one thread before numpy loads,
    and this serves library callers that loaded numpy first.
    """
    blas = _openblas()
    if blas is None:
        return None
    previous = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(n)
    return previous


def run_scenarios(scenarios, workers: int = 1, calibrate: bool = False) -> list:
    """Run several scenarios of equal ``n_drops`` in one drop-major pass; one
    result per scenario.

    The outer loop runs over drops, in-process or one pool task per drop on
    at most ``n_drops`` workers. Either way drops run on one BLAS thread: an
    in-process pass restores the caller's thread count when it ends, also
    when it raises, and a pooled pass leaves the main process's count as it
    is. Each drop draws its fading once per (seed, n_fading, L, M) and its
    kernel statistics once per correlation model, and frees both before the
    next drop; the heap is trimmed once more before aggregation. The
    geometry, the attenuation constant, rho_t and sigma2 enter only when the
    drops are aggregated, so every result is bit-identical to a separate
    ``run_scenario`` call, for any worker count.

    With ``calibrate``, the calibration baseline of the first scenario joins
    the pass at A = 1, and every scenario is aggregated at the A that puts
    the baseline's 5th percentile of instantaneous ZF SNR at 0 dB; each
    result's scenario carries that constant. Instantaneous SNR is linear in
    A, so a rescale solves it, and a scenario equal to the baseline up to A
    shares its kernel statistics.
    A scenario whose drops abort past 1% raises ``RunFailureError``, the
    first such scenario in order, the baseline before all.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise InvalidParameterError("run_scenarios needs at least one scenario")
    n_drops = scenarios[0].n_drops
    if any(s.n_drops != n_drops for s in scenarios):
        raise InvalidParameterError(
            "run_scenarios needs scenarios of equal n_drops", field="n_drops"
        )
    if calibrate:
        scenarios = [_at_attenuation(calibration_baseline(scenarios[0]), 1.0)] + scenarios
    tasks = [scenarios] * n_drops
    workers = min(workers, n_drops)
    advising = _advise_huge_pages(False)  # forked pool workers inherit it
    try:
        if workers <= 1:
            threads = _set_blas_threads(1)
            try:
                per_drop = list(map(_draw_drops, tasks, range(n_drops)))
            finally:
                _set_blas_threads(threads)
        else:
            # imported here: multiprocessing adds 12-17 ms to every CLI start.
            # The main process's BLAS count is never raised around the pool:
            # OpenBLAS stops its threads at fork, and raising the count after
            # it starts a thread that spins until the process exits
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=workers, initializer=_set_blas_threads, initargs=(1,)
            ) as pool:
                per_drop = list(pool.map(_draw_drops, tasks, range(n_drops)))
        # the last drop's freed fading and kernel pages would otherwise stay
        # resident while the results are aggregated and written
        _trim_heap(0)
    finally:
        _advise_huge_pages(advising)
    if calibrate:
        unit = _result(scenarios.pop(0), per_drop)
        p5_db = float(np.percentile(pooled_instantaneous_snr_db(unit), 5.0))
        scenarios = [_at_attenuation(s, 10.0 ** (-p5_db / 10.0)) for s in scenarios]
    return [_result(s, per_drop) for s in scenarios]


def run_scenario(scenario: Scenario, workers: int = 1) -> ScenarioResult:
    """Execute all drops of one scenario, in-process or across a process pool.

    Drop failures are collected; the run fails outright if more than 1% of
    drops abort. Summaries are bit-identical for any worker count.
    """
    (result,) = run_scenarios([scenario], workers)
    return result


def calibrate_attenuation_constant(baseline: Scenario) -> float:
    """Attenuation constant A putting the 5th-percentile instantaneous ZF SNR at 0 dB.

    The constant ``run_scenarios(..., calibrate=True)`` gives: one Monte Carlo
    pass of the baseline at A = 1 plus a rescale; deterministic given the
    scenario seed.
    """
    if calibration_baseline(baseline) != baseline:
        ref = _REFERENCE
        raise InvalidParameterError(
            f"calibration requires the reference configuration: M={ref['m']}, "
            f"L={ref['l']}, rho_t={ref['rho_t_db']:g} dB, {ref['model'].variant} model "
            f"with xi={ref['model'].xi}"
        )
    (result,) = run_scenarios([baseline], calibrate=True)
    return result.scenario.geometry.attenuation_constant


def pooled_instantaneous_snr_db(result: ScenarioResult) -> np.ndarray:
    """Instantaneous SNRs in (drop, trial, terminal) order."""
    s = result.scenario
    return np.concatenate(
        [
            10.0 * np.log10(np.outer(d.inv_eta, s.rho_t_linear * d.link_gains / s.sigma2)).ravel()
            for d in result.drops
        ]
    )


def pooled_expected_snr_db(result: ScenarioResult) -> np.ndarray:
    """Fading-averaged per-terminal SNRs in (drop, terminal) order."""
    return np.concatenate([d.per_terminal_expected_snr_db for d in result.drops])

