"""Drop x fading-trial Monte Carlo orchestration and aggregation.

Randomness discipline (RNG contract 3): every stream is derived from the
scenario seed as SeedSequence(entropy=seed, spawn_key=(drop, lane)) feeding an
SFC64 generator. Lane 0 carries geometry and shadowing, lane 1 the
per-terminal correlation parameters, lane 2 the drop's whole fading block and
lane 3 the redraws of ill-conditioned trials, taken in trial order. Drops are
therefore independent work units whose results do not depend on worker count
or scheduling order, and scenarios of equal (n_fading, L, M) share their
fading block drop by drop. ``run_scenarios`` exploits that: it loops over
drops outermost and, within a drop, draws the block once for every scenario
of that shape and the kernel statistics once per correlation model.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import kernels
from .corrmodels import (
    CorrelationModelSpec,
    average_correlation,
    build_clerckx,
    build_exponential,
    build_one_ring,
    factor,
)
from .errors import CorrDivError, InvalidParameterError, RunFailureError, require_finite
from .propagation import (
    GeometryConfig,
    MeasuredAngularModel,
    attenuation_from_samples,
    calibrate_attenuation_constant,
    draw_truncated_spread,
    link_gain,
    sample_link_gain,
    sample_terminal_geometry,
    unit_baseline,
)
from .zfcore import (
    COND_MAX,
    draw_fading,
    expected_sum_se_closed_form,
    expected_zf_snr_closed_form,
)

# version of the seed-to-stream mapping; manifests record it, since outputs
# of one contract cannot be reproduced under another
RNG_CONTRACT = 3

_GEOMETRY_LANE = 0
_MODEL_LANE = 1
_FADING_LANE = 2
_REDRAW_LANE = 3
# a single trial redrawn this often means the ensemble itself is degenerate
_MAX_REDRAWS = 64


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
    measured_model: Optional[MeasuredAngularModel] = None
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
        if self.model.angular_spread_deg == "measured" and self.measured_model is None:
            object.__setattr__(self, "measured_model", MeasuredAngularModel())
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
    rejected_trials: int
    eta_cv: float
    inst_snr_db: Optional[np.ndarray] = None


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


def _stream(seed: int, drop: int, lane: int):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(drop, lane))
    return np.random.Generator(np.random.SFC64(ss))


@lru_cache(maxsize=8)
def _exponential_profile(m: int, xi: float):
    """The exponential matrix and its read-only conjugate-transposed factor.

    Both depend on (M, xi) alone, so every drop of an exponential or Clerckx
    scenario, and of the calibration baseline, shares one eigendecomposition.
    """
    r = build_exponential(m, xi)
    bh = factor(r).factor.conj().T
    bh.setflags(write=False)
    return r, bh


def _terminal_correlations(scenario: Scenario, rng):
    """Per-terminal correlation matrices plus the resolved parameter dicts.

    Draw order inside the model lane is fixed: all mean-DOA draws first, then
    all spread draws. Scenarios differing only in the spread rule therefore
    share their DOA draws under a common seed.
    """
    model = scenario.model
    n = scenario.l
    if model.variant == "exponential":
        r, _ = _exponential_profile(scenario.m, model.xi)
        return [r] * n, [{"xi": model.xi}] * n
    if model.variant == "clerckx":
        lo, hi = model.phase_range_deg
        deltas = [float(rng.uniform(lo, hi)) for _ in range(n)]
        rs = [build_clerckx(scenario.m, model.xi, d) for d in deltas]
        return rs, [{"delta_phase_deg": d} for d in deltas]

    if model.mean_doa_deg == "uniform":
        doas = [float(rng.uniform(-180.0, 180.0)) for _ in range(n)]
    else:
        doas = [float(model.mean_doa_deg)] * n
    if model.angular_spread_deg == "measured":
        spreads = [draw_truncated_spread(scenario.measured_model, rng) for _ in range(n)]
    else:
        spreads = [float(model.angular_spread_deg)] * n
    rs = [
        build_one_ring(scenario.m, s, d, model.spacing_wavelengths)
        for s, d in zip(spreads, doas)
    ]
    params = [
        {"angular_spread_deg": s, "mean_doa_deg": d} for s, d in zip(spreads, doas)
    ]
    return rs, params


def _conjugate_factors(scenario: Scenario, rs, params) -> np.ndarray:
    """The terminals' conjugate-transposed correlation factors, (L, M, M)."""
    model = scenario.model
    m = scenario.m
    if model.variant == "one_ring":
        return np.stack([factor(r).factor.conj().T for r in rs])
    _, bh = _exponential_profile(m, model.xi)
    if model.variant == "exponential":
        return np.broadcast_to(bh, (scenario.l, m, m))
    # Clerckx: R = D^H T D with T exponential and D = diag(e^{j delta i}), so
    # B^H = B_T^H D is the shared factor with its columns phase-ramped
    deltas = np.deg2rad([p["delta_phase_deg"] for p in params])
    return bh * np.exp(1j * deltas[:, np.newaxis] * np.arange(m))[:, np.newaxis, :]


def _draw_geometry(scenario: Scenario, drop_index: int):
    """Lane 0: each terminal's distance, then each terminal's shadowing."""
    gen_geo = _stream(scenario.seed, drop_index, _GEOMETRY_LANE)
    # the azimuths are drawn and dropped: contract 3 fixes the lane's order
    distances = [
        sample_terminal_geometry(scenario.geometry, gen_geo, scenario.radial_law)[0]
        for _ in range(scenario.l)
    ]
    shadowing = [sample_link_gain(scenario.geometry, d, gen_geo)[0] for d in distances]
    return distances, shadowing


def _draw_kernel(scenario: Scenario, drop_index: int, fading):
    """Lane 1's correlations, the Gram statistics of the drop's fading block
    and the redraws of ill-conditioned trials, with their abort rules.

    ``fading(scenario)`` returns the drop's lane-2 block. Returns
    ``(trace_sq, stats, rejected)``.
    """
    n_term, n_ant = scenario.l, scenario.m
    seed = scenario.seed
    rs, params = _terminal_correlations(scenario, _stream(seed, drop_index, _MODEL_LANE))
    _, trace_sq = average_correlation(rs)
    bh = _conjugate_factors(scenario, rs, params)
    stats = kernels.gram_eta_stats(fading(scenario), bh)

    rejected = 0
    gen_redraw = None
    for t in np.flatnonzero(~kernels.conditioned(stats)):
        if gen_redraw is None:
            gen_redraw = _stream(seed, drop_index, _REDRAW_LANE)
        # every attempt takes the next single-trial block of the redraw lane
        for _ in range(_MAX_REDRAWS):
            rejected += 1
            w_t = draw_fading(gen_redraw, n_term, n_ant)
            row = kernels.gram_eta_stats(w_t[np.newaxis], bh)
            stats[t] = row[0]
            if kernels.conditioned(row)[0]:
                break
        else:
            raise RunFailureError(
                f"trial {t} still ill-conditioned after {_MAX_REDRAWS} redraws"
            )
    if rejected > 0.05 * scenario.n_fading:
        raise RunFailureError(
            f"{rejected} rejected trials out of {scenario.n_fading} exceeds "
            f"the 5% abort threshold"
        )
    return trace_sq, stats, rejected


def _stats_key(s: Scenario) -> tuple:
    """What a drop's kernel statistics depend on."""
    return (s.model, s.measured_model, s.m, s.l, s.n_fading, s.seed)


def _draw_drops(scenarios, drop_index: int) -> list:
    """One drop of every scenario: its ``_DropDraws`` or the ``CorrDivError``
    that aborted it.

    Scenarios of equal (seed, n_fading, L, M) share the drop's fading block,
    and those that also share the correlation model share its kernel
    statistics. Both live only as long as this call.
    """
    blocks, kernel_runs = {}, {}

    def fading(s):
        key = (s.seed, s.n_fading, s.l, s.m)
        if key not in blocks:
            gen = _stream(s.seed, drop_index, _FADING_LANE)
            blocks[key] = draw_fading(gen, s.l, s.m, n_trials=s.n_fading)
        return blocks[key]

    outcomes = []
    for s in scenarios:
        key = _stats_key(s)
        try:
            distances, shadowing = _draw_geometry(s, drop_index)
            if key not in kernel_runs:
                try:
                    kernel_runs[key] = _draw_kernel(s, drop_index, fading)
                except CorrDivError as exc:
                    kernel_runs[key] = exc
            kernel = kernel_runs[key]
            if isinstance(kernel, CorrDivError):
                raise kernel
            outcomes.append(_DropDraws(drop_index, distances, shadowing, *kernel))
        except CorrDivError as exc:
            outcomes.append(exc)
    return outcomes


def _aggregate_drop(
    scenario: Scenario, draws: _DropDraws, collect_instantaneous: bool = False
) -> DropResult:
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
        [
            expected_zf_snr_closed_form(
                float(b), n_ant, n_term, trace_sq, scenario.rho_t_linear, scenario.sigma2
            )
            for b in betas
        ]
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
        inst_snr_db=10.0 * np.log10(inst_snr).ravel() if collect_instantaneous else None,
    )


def run_drop(scenario: Scenario, drop_index: int, collect_instantaneous: bool = False) -> DropResult:
    """One drop: sample large-scale state, average over fading, compare closed form.

    Deterministic function of (scenario.seed, drop_index); raises the
    ``CorrDivError`` that aborts the drop.
    """
    (draws,) = _draw_drops([scenario], drop_index)
    if isinstance(draws, CorrDivError):
        raise draws
    return _aggregate_drop(scenario, draws, collect_instantaneous)


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


def _result(scenario: Scenario, outcomes, collect_instantaneous: bool) -> ScenarioResult:
    """Aggregate a scenario's drawn drops. The run fails outright if more than
    1% of its drops abort."""
    drops, failures = [], []
    for d, outcome in enumerate(outcomes):
        try:
            if isinstance(outcome, CorrDivError):
                raise outcome
            drops.append(_aggregate_drop(scenario, outcome, collect_instantaneous))
        except CorrDivError as exc:
            failures.append((d, str(exc)))
    if len(failures) > 0.01 * scenario.n_drops:
        detail = "; ".join(f"drop {d}: {msg}" for d, msg in failures[:5])
        raise RunFailureError(
            f"{len(failures)} of {scenario.n_drops} drops aborted: {detail}"
        )
    drops = tuple(drops)
    return ScenarioResult(scenario, drops, _summarize(drops, len(failures)))


def run_scenarios(
    scenarios, workers: int = 1, collect_instantaneous: bool = False, calibrate: bool = False
) -> list:
    """Run several scenarios of equal ``n_drops`` in one drop-major pass; one
    result per scenario.

    The outer loop runs over drops, in-process or one pool task per drop.
    Each drop draws its fading block once per (seed, n_fading, L, M) and its
    kernel statistics once per correlation model, and frees both before the
    next drop. The attenuation constant, rho_t and sigma2 enter only when the
    drops are aggregated, so every result is bit-identical to a separate
    ``run_scenario`` call, for any worker count.

    With ``calibrate``, every scenario is aggregated at the constant that
    ``calibrate_attenuation_constant`` gives for the calibration baseline of
    the first scenario, and each result's scenario carries that constant. The
    baseline joins the pass at A = 1 when ``workers`` is 1; with a pool it is
    calibrated serially first, because pool workers each run a full BLAS
    thread pool on the same cores and take several times longer per drop.
    A scenario whose drops abort past 1% raises ``RunFailureError``, the
    first such scenario in order.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise InvalidParameterError("run_scenarios needs at least one scenario")
    n_drops = scenarios[0].n_drops
    if any(s.n_drops != n_drops for s in scenarios):
        raise InvalidParameterError(
            "run_scenarios needs scenarios of equal n_drops", field="n_drops"
        )
    entries, constant = scenarios, None
    if calibrate:
        unit = unit_baseline(scenarios[0])
        if workers > 1:
            constant = calibrate_attenuation_constant(unit)
        else:
            entries = [unit] + scenarios
    tasks = [entries] * n_drops
    if workers <= 1:
        per_drop = map(_draw_drops, tasks, range(n_drops))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_drop = list(pool.map(_draw_drops, tasks, range(n_drops)))
    outcomes = [[] for _ in entries]
    for row in per_drop:
        for per_entry, outcome in zip(outcomes, row):
            per_entry.append(outcome)
    if calibrate:
        if constant is None:
            unit = _result(entries[0], outcomes.pop(0), collect_instantaneous=True)
            constant = attenuation_from_samples(pooled_instantaneous_snr_db(unit))
        scenarios = [
            replace(s, geometry=replace(s.geometry, attenuation_constant=constant))
            for s in scenarios
        ]
    return [_result(s, o, collect_instantaneous) for s, o in zip(scenarios, outcomes)]


def run_scenario(
    scenario: Scenario, workers: int = 1, collect_instantaneous: bool = False
) -> ScenarioResult:
    """Execute all drops of one scenario, in-process or across a process pool.

    Drop failures are collected; the run fails outright if more than 1% of
    drops abort. Summaries are bit-identical for any worker count.
    """
    (result,) = run_scenarios([scenario], workers, collect_instantaneous)
    return result


def collect_instantaneous_snr_db(scenario: Scenario, workers: int = 1) -> np.ndarray:
    """Pooled per-(drop, trial, terminal) instantaneous ZF SNR samples in dB."""
    return pooled_instantaneous_snr_db(run_scenario(scenario, workers, collect_instantaneous=True))


def pooled_instantaneous_snr_db(result: ScenarioResult) -> np.ndarray:
    """Instantaneous SNRs in (drop, trial, terminal) order, from a run made
    with ``collect_instantaneous``."""
    return np.concatenate([d.inst_snr_db for d in result.drops])


def pooled_expected_snr_db(result: ScenarioResult) -> np.ndarray:
    """Fading-averaged per-terminal SNRs in (drop, terminal) order."""
    return np.concatenate([d.per_terminal_expected_snr_db for d in result.drops])


def empirical_cdf(samples):
    """Step CDF: sorted samples paired with probabilities i/n."""
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    if arr.size == 0:
        raise InvalidParameterError("empirical_cdf needs at least one sample")
    probs = np.arange(1, arr.size + 1) / arr.size
    return list(zip(arr.tolist(), probs.tolist()))


def percentile(samples, q) -> float:
    """Linear-interpolation percentile matching the step-CDF convention."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise InvalidParameterError("percentile needs at least one sample")
    return float(np.percentile(arr, q))
