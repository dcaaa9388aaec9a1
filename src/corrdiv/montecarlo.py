"""Drop x fading-trial Monte Carlo orchestration and aggregation.

Randomness discipline (RNG contract 5): every stream is derived from the
scenario seed as SeedSequence(entropy=seed, spawn_key=(drop, lane, ...))
feeding an SFC64 generator. Lane 0 carries geometry and shadowing, lane 1 the
per-terminal correlation parameters, lane 2 one fading stream per terminal l
(spawn key (drop, 2, l)) and lane 3 the redraws of ill-conditioned trials,
taken in trial order. Terminal l's channel reads the first r_l columns of its
fading, where r_l is the rank of its pivoted-Cholesky factor, and its stream
fills column k for every trial before column k + 1, so those columns do not
depend on how far the stream is drawn. Drops are therefore independent work
units whose results do not depend on worker count, scheduling order or the
other scenarios of a pass, and scenarios of equal (n_fading, L, M) share
their fading drop by drop. ``run_scenarios`` exploits that: it loops over
drops outermost and, within a drop, draws each terminal's fading once, to
the largest rank any scenario of that shape reads, and the kernel statistics
once per correlation model.

Calibration lives here too: the attenuation constant A that puts the 5th
percentile of instantaneous ZF SNR at 0 dB on a scenario's calibration
baseline, the reference configuration ``_REFERENCE`` under its geometry.
"""

import ctypes
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernels
from .corrmodels import (
    CorrelationModelSpec,
    average_clerckx,
    average_correlation,
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
# wraps it here
from .corrmodels import build_clerckx  # noqa: F401

# version of the seed-to-stream mapping; manifests record it, since outputs
# of one contract cannot be reproduced under another
RNG_CONTRACT = 5

_GEOMETRY_LANE = 0
_MODEL_LANE = 1
_FADING_LANE = 2
_REDRAW_LANE = 3
# a single trial redrawn this often means the ensemble itself is degenerate
_MAX_REDRAWS = 64
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
        require_finite(rho_t_db=self.rho_t_db, sigma2=self.sigma2)
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
    # redraw attempts, which outnumber the rejected trials whenever one
    # trial needs several
    rejected_trials: int
    eta_cv: float
    # each trial's L / Tr[G^-1]; a terminal's instantaneous SNR is
    # rho_t beta / sigma2 times it
    inv_eta: np.ndarray


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    drops: tuple
    summary: dict


@dataclass(frozen=True)
class _DropDraws:
    """What one drop draws for a scenario: everything its result needs except
    the attenuation constant, rho_t and sigma2."""

    drop_index: int
    distances_m: list
    shadowing: list
    trace_sq: float
    stats: np.ndarray
    rejected_trials: int


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
    """The exponential matrix and its read-only conjugate-transposed factor.

    Both depend on (M, xi) alone, so every drop of an exponential or Clerckx
    scenario, and of the calibration baseline, shares one factorization.
    """
    r = build_exponential(m, xi)
    bh = factor(r)
    bh.setflags(write=False)
    return r, bh


def _terminal_profiles(scenario: Scenario, rng):
    """Lane 1: the drop's Tr[Rbar^2] and the terminals' conjugate-transposed
    correlation factors, one (r_l, M) array per terminal: an (L, r, M) stack
    for the exponential and Clerckx families, whose terminals share a rank,
    and a list for the one-ring family.

    Draw order inside the model lane is fixed: all mean-DOA draws first, then
    all spread draws. Scenarios differing only in the spread rule therefore
    share their DOA draws under a common seed.
    """
    model = scenario.model
    m, n = scenario.m, scenario.l
    if model.variant == "exponential":
        r, bh = _exponential_profile(m, model.xi)
        _, trace_sq = average_correlation([r] * n)
        return trace_sq, np.broadcast_to(bh, (n,) + bh.shape)
    if model.variant == "clerckx":
        lo, hi = model.phase_range_deg
        deltas = [float(rng.uniform(lo, hi)) for _ in range(n)]
        _, trace_sq = average_clerckx(m, model.xi, deltas)
        _, bh = _exponential_profile(m, model.xi)
        # R = D^H T D with T exponential and D = diag(e^{j delta i}), so
        # B^H = B_T^H D is the shared factor with its columns phase-ramped
        ramp = np.exp(1j * np.deg2rad(deltas)[:, np.newaxis] * np.arange(m))
        return trace_sq, bh * ramp[:, np.newaxis, :]

    if model.mean_doa_deg == "uniform":
        doas = [float(rng.uniform(-180.0, 180.0)) for _ in range(n)]
    else:
        doas = [float(model.mean_doa_deg)] * n
    if model.angular_spread_deg == "measured":
        spreads = [draw_truncated_spread(model.measured, rng) for _ in range(n)]
    else:
        spreads = [float(model.angular_spread_deg)] * n
    bh = []

    def profiles():
        # each matrix is factored and folded into Rbar before the next is built
        for s, d in zip(spreads, doas):
            r = build_one_ring(m, s, d, model.spacing_wavelengths)
            bh.append(factor(r))
            yield r

    _, trace_sq = average_correlation(profiles())
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


def _draw_kernel(scenario: Scenario, drop_index: int, bh, fading):
    """The Gram statistics of the drop's fading and the redraws of
    ill-conditioned trials, with their abort rules.

    ``bh`` holds the terminals' lane-1 factors and ``fading`` the drop's
    lane-2 draws, (n_fading, L, >= r_l). Returns ``(stats, rejected)``.
    """
    stats = kernels.gram_eta_stats(fading, bh)

    rejected = 0
    gen_redraw = None
    ranks = [len(b) for b in bh]
    bad = np.flatnonzero(~kernels.conditioned(stats))
    for t in bad:
        if gen_redraw is None:
            gen_redraw = _stream(scenario.seed, drop_index, _REDRAW_LANE)
        # every attempt takes the next r_l pairs of the redraw lane for each
        # terminal in turn
        for _ in range(_MAX_REDRAWS):
            rejected += 1
            w_t = draw_fading([gen_redraw] * scenario.l, ranks, n_trials=1)
            row = kernels.gram_eta_stats(w_t, bh)
            stats[t] = row[0]
            if kernels.conditioned(row)[0]:
                break
        else:
            raise RunFailureError(
                f"trial {t} still ill-conditioned after {_MAX_REDRAWS} redraws"
            )
    # the threshold counts redraw attempts, which outnumber the rejected
    # trials whenever one trial needs several
    if rejected > 0.05 * scenario.n_fading:
        raise RunFailureError(
            f"{len(bad)} rejected trials out of {scenario.n_fading} took {rejected} "
            f"redraw attempts, more than the 5% abort threshold allows"
        )
    return stats, rejected


def _fading_key(s: Scenario) -> tuple:
    """What a drop's fading draws depend on."""
    return (s.seed, s.n_fading, s.l, s.m)


def _stats_key(s: Scenario) -> tuple:
    """What a drop's kernel statistics depend on."""
    return (s.model,) + _fading_key(s)


def _draw_drops(scenarios, drop_index: int) -> list:
    """One drop of every scenario: its ``_DropDraws`` or the ``CorrDivError``
    that aborted it.

    Every correlation model's lane-1 profiles come first. Scenarios of equal
    (seed, n_fading, L, M) then share the drop's fading, each terminal drawn
    to the largest rank any of their profiles reads, and those that also
    share the correlation model share its kernel statistics. All of it lives
    only as long as this call.
    """
    _trim_heap(0)
    firsts = {}
    for s in scenarios:
        firsts.setdefault(_stats_key(s), s)
    runs = {}
    for key, s in firsts.items():
        try:
            runs[key] = _terminal_profiles(s, _stream(s.seed, drop_index, _MODEL_LANE))
        except CorrDivError as exc:
            runs[key] = exc

    _trim_heap(0)
    ranks = {}
    for key, run in runs.items():
        if not isinstance(run, CorrDivError):
            shape = _fading_key(firsts[key])
            ranks[shape] = np.maximum(ranks.get(shape, 0), [len(b) for b in run[1]])
    fading = {
        (seed, n, l, m): draw_fading(
            [_stream(seed, drop_index, _FADING_LANE, t) for t in range(l)], need, n
        )
        for (seed, n, l, m), need in ranks.items()
    }

    for key, run in runs.items():
        if isinstance(run, CorrDivError):
            continue
        s, (trace_sq, bh) = firsts[key], run
        try:
            runs[key] = (trace_sq,) + _draw_kernel(s, drop_index, bh, fading[_fading_key(s)])
        except CorrDivError as exc:
            runs[key] = exc

    outcomes = []
    for s in scenarios:
        try:
            distances, shadowing = _draw_geometry(s, drop_index)
            kernel = runs[_stats_key(s)]
            if isinstance(kernel, CorrDivError):
                raise kernel
            outcomes.append(_DropDraws(drop_index, distances, shadowing, *kernel))
        except CorrDivError as exc:
            outcomes.append(exc)
    return outcomes


def _aggregate_drop(scenario: Scenario, draws: _DropDraws) -> DropResult:
    """Link gains, fading-averaged and closed-form SNRs and sum SE of one drop."""
    n_term, n_ant = scenario.l, scenario.m
    trace_sq = draws.trace_sq
    trace_inv = draws.stats[:, 0]
    inv_eta = n_term / trace_inv
    betas = np.array(
        [link_gain(scenario.geometry, z, d) for d, z in zip(draws.distances_m, draws.shadowing)]
    )
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
        drop_index=draws.drop_index,
        distances_m=np.array(draws.distances_m),
        link_gains=betas,
        per_terminal_expected_snr_db=snr_sim_db,
        per_terminal_closed_form_snr_db=snr_cf_db,
        sum_se_sim_bits=sum_se_sim,
        sum_se_cf_bits=sum_se_cf,
        trace_sq=trace_sq,
        rejected_trials=draws.rejected_trials,
        eta_cv=eta_cv,
        inv_eta=inv_eta,
    )


def run_drop(scenario: Scenario, drop_index: int) -> DropResult:
    """One drop: sample large-scale state, average over fading, compare closed form.

    Deterministic function of (scenario.seed, drop_index); raises the
    ``CorrDivError`` that aborts the drop.
    """
    (draws,) = _draw_drops([scenario], drop_index)
    if isinstance(draws, CorrDivError):
        raise draws
    return _aggregate_drop(scenario, draws)


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


def _result(scenario: Scenario, outcomes) -> ScenarioResult:
    """Aggregate a scenario's drawn drops. The run fails outright if more than
    1% of its drops abort."""
    drops, failures = [], []
    for d, outcome in enumerate(outcomes):
        try:
            if isinstance(outcome, CorrDivError):
                raise outcome
            drops.append(_aggregate_drop(scenario, outcome))
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


def _set_blas_threads(n):
    """Set numpy's bundled OpenBLAS to ``n`` threads and return the count it
    had. With another BLAS, does nothing and returns None, which as ``n``
    does nothing either.

    A pass runs thousands of small matrix products, between which a second
    OpenBLAS thread only spins, so the in-process pass and every pool worker
    run on one.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        blas = ctypes.CDLL(str(lib))
        blas.scipy_openblas_get_num_threads64_.argtypes = []
        blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        blas.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        blas.scipy_openblas_set_num_threads64_.restype = None
        previous = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(n)
        return previous
    return None


def run_scenarios(scenarios, workers: int = 1, calibrate: bool = False) -> list:
    """Run several scenarios of equal ``n_drops`` in one drop-major pass; one
    result per scenario.

    The outer loop runs over drops, in-process or one pool task per drop on
    at most ``n_drops`` workers. Either way drops run on one BLAS thread: an
    in-process pass restores the caller's thread count when it ends, also
    when it raises, and a pooled pass leaves the main process's count as it
    is. Each drop draws its fading once per (seed, n_fading, L, M) and its
    kernel statistics once per correlation model, and frees both before the
    next drop. The attenuation constant, rho_t and sigma2 enter only when the
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
        outcomes = [list(column) for column in zip(*per_drop)]
    finally:
        _advise_huge_pages(advising)
    if calibrate:
        unit = _result(scenarios.pop(0), outcomes.pop(0))
        p5_db = float(np.percentile(pooled_instantaneous_snr_db(unit), 5.0))
        scenarios = [_at_attenuation(s, 10.0 ** (-p5_db / 10.0)) for s in scenarios]
    return [_result(s, o) for s, o in zip(scenarios, outcomes)]


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

