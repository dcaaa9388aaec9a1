"""Command-line entry points: run, compare, calibrate.

Scenario files are YAML documents validated against a closed schema; unknown
keys are rejected and every diagnostic carries the file and line it came
from. All tables are plain CSV with full-precision floats.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .corrmodels import CorrelationModelSpec
from .errors import CorrDivError, InvalidParameterError, ScenarioError
from .montecarlo import (
    RNG_CONTRACT,
    Scenario,
    calibration_baseline,
    empirical_cdf,
    percentile,
    pooled_expected_snr_db,
    pooled_instantaneous_snr_db,
    run_scenarios,
)
from .propagation import GeometryConfig, MeasuredAngularModel

# entry points the commands no longer call, kept in this namespace because
# bench/trace_cli.py wraps them here
from .montecarlo import calibrate_attenuation_constant, run_scenario  # noqa: F401, E402

# YAML key -> dataclass field it sets, for the sections made of plain numbers
_MEASURED_FIELDS = {key: key for key in ("spread_mean_deg", "spread_std_deg", "spread_floor_deg")}
_GEOMETRY_FIELDS = {
    "cell_radius_m": "cell_radius_m",
    "reference_distance_m": "reference_distance_m",
    "alpha": "attenuation_exponent",
    "sigma_sh_db": "shadowing_std_db",
    "attenuation_constant": "attenuation_constant",
}
_TOP_KEYS = {"rng_contract", "m", "l", "rho_t_db", "sigma2", "model", "geometry", "run"}
_MODEL_KEYS = {
    "exponential": {"type", "xi"},
    "clerckx": {"type", "xi", "phase_range_deg"},
    "one_ring": {"type", "angular_spread_deg", "mean_doa", "spacing_wavelengths", "measured"},
}
_RUN_KEYS = {"n_drops", "n_fading", "seed"}
# the key path of each Scenario and CorrelationModelSpec field a file sets
_SCENARIO_KEYS = {
    "m": ("m",),
    "l": ("l",),
    "rho_t_db": ("rho_t_db",),
    "sigma2": ("sigma2",),
    **{field: ("run", field) for field in _RUN_KEYS},
}
_SPEC_KEYS = {
    "variant": ("model", "type"),
    "xi": ("model", "xi"),
    "phase_range_deg": ("model", "phase_range_deg"),
    "phase_range_low_deg": ("model", "phase_range_deg", 0),
    "phase_range_high_deg": ("model", "phase_range_deg", 1),
    "angular_spread_deg": ("model", "angular_spread_deg"),
    "mean_doa_deg": ("model", "mean_doa"),
    "spacing_wavelengths": ("model", "spacing_wavelengths"),
}


def _collect_marks(node, path, marks):
    marks[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            _collect_marks(value_node, path + (key_node.value,), marks)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _collect_marks(item, path + (i,), marks)


class _Parser:
    """Schema walker that turns violations into located ScenarioErrors.

    It checks the file's shape and types only; value ranges are the
    dataclasses' to check, and ``build`` locates their errors.
    """

    def __init__(self, path, data, marks):
        self.path = str(path)
        self.data = data
        self.marks = marks

    def fail(self, keys, message):
        label = ".".join(str(k) for k in keys) if keys else "document"
        raise ScenarioError(f"{label}: {message}", path=self.path, line=self.marks.get(keys))

    def mapping(self, value, keys, allowed, required):
        if not isinstance(value, dict):
            self.fail(keys, "expected a mapping")
        for key in value:
            if key not in allowed:
                self.fail(keys + (key,), f"unknown key {key!r}")
        for key in required:
            if key not in value:
                self.fail(keys, f"missing required key {key!r}")
        return value

    def number(self, mapping, keys, key):
        if key not in mapping:
            self.fail(keys, f"missing required key {key!r}")
        value = mapping[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(keys + (key,), f"expected a number, got {value!r}")
        return float(value)

    def numbers(self, mapping, keys, fields):
        """The numbers present in ``mapping``, keyed by the field each key sets."""
        return {
            field: self.number(mapping, keys, key) for key, field in fields.items() if key in mapping
        }

    def integer(self, mapping, keys, key):
        if key not in mapping:
            self.fail(keys, f"missing required key {key!r}")
        value = mapping[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(keys + (key,), f"expected an integer, got {value!r}")
        return value

    def build(self, cls, keys, field_keys, **kwargs):
        """``cls(**kwargs)``, with a rejected value reported at the key that set
        its field (``field_keys`` maps field to key path), or at ``keys``.
        Of several blamed fields, the first one the file sets is reported."""
        try:
            return cls(**kwargs)
        except InvalidParameterError as exc:
            fields = exc.field if isinstance(exc.field, tuple) else (exc.field,)
            paths = [field_keys.get(f, keys) for f in fields]
            at = next((path for path in paths if path in self.marks), paths[0])
            while at not in self.marks:
                at = at[:-1]
            self.fail(at, str(exc))

    def section(self, cls, mapping, keys, fields):
        """``cls`` built from the numbers of one section, one per field."""
        field_keys = {field: keys + (key,) for key, field in fields.items()}
        return self.build(cls, keys, field_keys, **self.numbers(mapping, keys, fields))


def _tagged(p: _Parser, raw, keys, key, tag):
    """A number, or a string tag that the model spec checks."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        p.fail(keys + (key,), f"expected a number or {tag!r}, got {value!r}")
    return value if isinstance(value, str) else float(value)


def _parse_model(p: _Parser, raw) -> CorrelationModelSpec:
    keys = ("model",)
    raw = p.mapping(raw, keys, set().union(*_MODEL_KEYS.values()), {"type"})
    variant = raw["type"]
    if not isinstance(variant, str) or variant not in _MODEL_KEYS:
        p.fail(keys + ("type",), f"unknown model type {variant!r}")
    for key in raw:
        if key not in _MODEL_KEYS[variant]:
            p.fail(keys + (key,), f"key {key!r} does not apply to model type {variant!r}")

    kwargs = {"variant": variant}
    if variant in ("exponential", "clerckx"):
        kwargs["xi"] = p.number(raw, keys, "xi")
    if variant == "clerckx":
        rng = raw.get("phase_range_deg")
        if (
            not isinstance(rng, list)
            or len(rng) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in rng)
        ):
            p.fail(keys + ("phase_range_deg",), "expected a [low, high] pair of numbers")
        kwargs["phase_range_deg"] = (float(rng[0]), float(rng[1]))
    if variant == "one_ring":
        if "angular_spread_deg" not in raw:
            p.fail(keys, "missing required key 'angular_spread_deg'")
        kwargs["angular_spread_deg"] = _tagged(p, raw, keys, "angular_spread_deg", "measured")
        if "mean_doa" in raw:
            kwargs["mean_doa_deg"] = _tagged(p, raw, keys, "mean_doa", "uniform")
        kwargs.update(p.numbers(raw, keys, {"spacing_wavelengths": "spacing_wavelengths"}))
        if "measured" in raw and raw["angular_spread_deg"] != "measured":
            p.fail(keys + ("measured",), "measured block requires angular_spread_deg: measured")
    return p.build(CorrelationModelSpec, keys, _SPEC_KEYS, **kwargs)


def _parse_geometry(p: _Parser, raw):
    keys = ("geometry",)
    raw = p.mapping(raw, keys, set(_GEOMETRY_FIELDS) | {"calibrate"}, set())
    calibrate = raw.get("calibrate", False)
    if not isinstance(calibrate, bool):
        p.fail(keys + ("calibrate",), f"expected true or false, got {calibrate!r}")
    if calibrate and "attenuation_constant" in raw:
        p.fail(keys, "give either attenuation_constant or calibrate: true, not both")
    if not calibrate and "attenuation_constant" not in raw:
        p.fail(keys, "geometry needs attenuation_constant or calibrate: true")
    # with calibrate: true the constant keeps GeometryConfig's placeholder
    return p.section(GeometryConfig, raw, keys, _GEOMETRY_FIELDS), calibrate


def load_scenario_file(path):
    """Parse and validate a scenario file.

    Returns ``(scenario, wants_calibration)``. The scenario carries a
    placeholder attenuation constant of 1.0 when calibration was requested.
    An optional top-level ``rng_contract`` must name the current contract.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}", path=str(path))
    # one pass: the composed node gives both the line marks and the data
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
        data = None if node is None else loader.construct_document(node)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ScenarioError(
            f"invalid YAML: {str(exc).strip()}",
            path=str(path),
            line=None if mark is None else mark.line + 1,
        )
    finally:
        loader.dispose()
    marks = {}
    if node is not None:
        _collect_marks(node, (), marks)
    p = _Parser(path, data, marks)

    data = p.mapping(data, (), _TOP_KEYS, {"m", "l", "model", "geometry", "run"})
    contract = data.get("rng_contract", RNG_CONTRACT)
    if isinstance(contract, bool) or contract != RNG_CONTRACT:
        p.fail(
            ("rng_contract",),
            f"written under RNG contract {contract!r}; this version reproduces "
            f"only contract {RNG_CONTRACT}",
        )
    m = p.integer(data, (), "m")
    l = p.integer(data, (), "l")
    noise = p.numbers(data, (), {"rho_t_db": "rho_t_db", "sigma2": "sigma2"})

    model = _parse_model(p, data["model"])
    measured = None
    if isinstance(data["model"], dict) and "measured" in data["model"]:
        keys = ("model", "measured")
        raw = p.mapping(data["model"]["measured"], keys, set(_MEASURED_FIELDS), set())
        measured = p.section(MeasuredAngularModel, raw, keys, _MEASURED_FIELDS)
    geometry, wants_calibration = _parse_geometry(p, data["geometry"])

    run_keys = ("run",)
    run_raw = p.mapping(data["run"], run_keys, _RUN_KEYS, _RUN_KEYS)
    sizes = {key: p.integer(run_raw, run_keys, key) for key in ("n_drops", "n_fading", "seed")}

    scenario = p.build(
        Scenario,
        (),
        _SCENARIO_KEYS,
        m=m,
        l=l,
        model=model,
        geometry=geometry,
        measured_model=measured,
        **noise,
        **sizes,
    )
    return scenario, wants_calibration


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serializable scenario in the file schema (attenuation resolved), stamped
    with the RNG contract its outputs were drawn under."""
    model = scenario.model
    model_doc = {"type": model.variant}
    if model.variant in ("exponential", "clerckx"):
        model_doc["xi"] = model.xi
    if model.variant == "clerckx":
        model_doc["phase_range_deg"] = list(model.phase_range_deg)
    if model.variant == "one_ring":
        model_doc["angular_spread_deg"] = model.angular_spread_deg
        model_doc["mean_doa"] = model.mean_doa_deg
        model_doc["spacing_wavelengths"] = model.spacing_wavelengths
        if model.angular_spread_deg == "measured":
            mm = scenario.measured_model
            model_doc["measured"] = {key: getattr(mm, f) for key, f in _MEASURED_FIELDS.items()}
    return {
        "rng_contract": RNG_CONTRACT,
        "m": scenario.m,
        "l": scenario.l,
        "rho_t_db": scenario.rho_t_db,
        "sigma2": scenario.sigma2,
        "model": model_doc,
        "geometry": {key: getattr(scenario.geometry, f) for key, f in _GEOMETRY_FIELDS.items()},
        "run": {
            "n_drops": scenario.n_drops,
            "n_fading": scenario.n_fading,
            "seed": scenario.seed,
        },
    }


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.seed is not None:
        try:
            scenario = replace(scenario, seed=args.seed)
        except InvalidParameterError as exc:
            raise ScenarioError(f"--seed {args.seed}: {exc}")
    return scenario


def _write_drops_table(path, result):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "drop",
                "terminal",
                "distance_m",
                "beta_db",
                "expected_snr_sim_db",
                "expected_snr_cf_db",
                "trace_sq",
            ]
        )
        for drop in result.drops:
            beta_db = 10.0 * np.log10(drop.link_gains)
            for term in range(drop.link_gains.size):
                writer.writerow(
                    [
                        drop.drop_index,
                        term,
                        _fmt(drop.distances_m[term]),
                        _fmt(beta_db[term]),
                        _fmt(drop.per_terminal_expected_snr_db[term]),
                        _fmt(drop.per_terminal_closed_form_snr_db[term]),
                        _fmt(drop.trace_sq),
                    ]
                )


def _write_summary_table(path, summary):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "value"])
        for key, value in summary.items():
            writer.writerow([key, value if isinstance(value, int) else _fmt(value)])


def _write_manifest(path, scenario):
    with open(path, "w") as handle:
        yaml.safe_dump(scenario_to_dict(scenario), handle, sort_keys=False)


def cmd_run(args) -> int:
    scenario, wants_calibration = load_scenario_file(args.scenario)
    scenario = _apply_overrides(scenario, args)
    # calibration, when asked for, runs in the same call and resolves the constant
    (result,) = run_scenarios([scenario], workers=args.workers, calibrate=wants_calibration)
    scenario = result.scenario

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_drops_table(out / "drops.csv", result)
    _write_summary_table(out / "summary.csv", result.summary)
    _write_manifest(out / "manifest.yaml", scenario)
    print(f"wrote {out / 'drops.csv'}, {out / 'summary.csv'}, {out / 'manifest.yaml'}")
    print(
        "median expected SNR "
        f"{result.summary['expected_snr_db_median']:.3f} dB over "
        f"{result.summary['n_drops_completed']} drops"
    )
    return 0


def _compatibility_signature(scenario: Scenario, wants_calibration: bool):
    return (
        scenario.m,
        scenario.l,
        scenario.seed,
        scenario.geometry,
        wants_calibration,
        scenario.n_drops,
        scenario.n_fading,
    )


def cmd_compare(args) -> int:
    paths = args.scenario
    if len(paths) < 2:
        raise ScenarioError("compare needs at least two --scenario files")
    parsed = [load_scenario_file(p) for p in paths]
    scenarios = [_apply_overrides(s, args) for s, _ in parsed]
    flags = [w for _, w in parsed]

    signatures = {_compatibility_signature(s, w) for s, w in zip(scenarios, flags)}
    if len(signatures) > 1:
        raise ScenarioError(
            "scenarios are incompatible: M, L, seed, geometry and run sizes must match"
        )
    labels = []
    for i, p in enumerate(paths):
        stem = Path(p).stem
        labels.append(stem if stem not in labels else f"{stem}#{i}")

    # one drop-major pass: the scenarios read the same fading streams in each drop
    results = run_scenarios(scenarios, workers=args.workers, calibrate=flags[0])
    pooled = [pooled_expected_snr_db(r) for r in results]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "cdf.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "expected_snr_db", "cdf_prob"])
        for label, samples in zip(labels, pooled):
            for value, prob in empirical_cdf(samples):
                writer.writerow([label, _fmt(value), _fmt(prob)])

    gain_rows = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            diff = pooled[j] - pooled[i]
            gain_rows.append(
                (
                    labels[i],
                    labels[j],
                    percentile(diff, 50.0),
                    percentile(pooled[j], 50.0) - percentile(pooled[i], 50.0),
                )
            )
    with open(out / "gains.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["baseline", "alternative", "median_gain_db", "delta_median_db"])
        for base, alt, gain, delta in gain_rows:
            writer.writerow([base, alt, _fmt(gain), _fmt(delta)])

    for base, alt, gain, _ in gain_rows:
        print(f"median gain of {alt} over {base}: {gain:.3f} dB")
    print(f"wrote {out / 'cdf.csv'}, {out / 'gains.csv'}")
    return 0


def cmd_calibrate(args) -> int:
    scenario, wants_calibration = load_scenario_file(args.scenario)
    if not wants_calibration:
        raise ScenarioError(
            "geometry.calibrate: true is required for the calibrate command",
            path=str(args.scenario),
        )
    scenario = _apply_overrides(scenario, args)
    # the pass that calibrates also aggregates the baseline's draws at the
    # constant, at any worker count, which gives the achieved percentile
    (result,) = run_scenarios(
        [calibration_baseline(scenario)],
        workers=args.workers,
        collect_instantaneous=True,
        calibrate=True,
    )
    constant = result.scenario.geometry.attenuation_constant
    resolved = replace(
        scenario, geometry=replace(scenario.geometry, attenuation_constant=constant)
    )
    achieved = percentile(pooled_instantaneous_snr_db(result), 5.0)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved_path = out / f"{Path(args.scenario).stem}.resolved.yaml"
    _write_manifest(resolved_path, resolved)
    print(f"attenuation_constant: {_fmt(constant)}")
    print(f"achieved 5th percentile of instantaneous ZF SNR: {achieved:.6f} dB")
    print(f"wrote {resolved_path}")
    return 0


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdiv",
        description=(
            "Monte Carlo engine for downlink zero-forcing MU-MIMO under "
            "per-terminal correlation diversity"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write result tables")
    run_p.add_argument("--scenario", required=True, help="scenario YAML file")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--workers", type=int, default=1, help="drop-level worker processes")
    run_p.set_defaults(handler=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several scenarios and report pairwise gains")
    cmp_p.add_argument(
        "--scenario",
        action="append",
        required=True,
        help="scenario YAML file (repeat for each scenario)",
    )
    cmp_p.add_argument("--out", default=".", help="output directory")
    cmp_p.add_argument("--seed", type=int, default=None, help="override every scenario seed")
    cmp_p.add_argument("--workers", type=int, default=1, help="drop-level worker processes")
    cmp_p.set_defaults(handler=cmd_compare)

    cal_p = sub.add_parser("calibrate", help="calibrate the attenuation constant")
    cal_p.add_argument("--scenario", required=True, help="scenario YAML file with calibrate: true")
    cal_p.add_argument("--out", default=".", help="output directory for the resolved scenario")
    cal_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    cal_p.add_argument("--workers", type=int, default=1, help="drop-level worker processes")
    cal_p.set_defaults(handler=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ScenarioError(f"--workers must be at least 1, got {args.workers}")
        return args.handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CorrDivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
