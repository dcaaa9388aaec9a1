"""Command-line entry points: run, compare, calibrate.

Scenario files are YAML documents read against a closed schema: the parser
checks their shape only, the dataclasses every value, and each diagnostic
carries its file and line. All tables are plain CSV with full-precision floats.
"""

import os
import sys

# numpy's bundled OpenBLAS starts its thread pool when numpy loads, and an idle
# pool thread spins on a core between a pass's small matrix products. Setting
# the count to one later stops it neither in this process nor in the pool
# workers it forks, so the command line starts OpenBLAS on one thread, unless
# the caller exported a count or numpy is already loaded
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import csv  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path

import numpy as np
import yaml

from .corrmodels import VARIANT_FIELDS, CorrelationModelSpec
from .errors import CorrDivError, InvalidParameterError, ScenarioError
from .montecarlo import (
    RNG_CONTRACT,
    Scenario,
    calibration_baseline,
    pooled_expected_snr_db,
    pooled_instantaneous_snr_db,
    run_scenarios,
)
from .propagation import GeometryConfig, MeasuredAngularModel

# entry points the commands no longer call, kept in this namespace because
# bench/trace_cli.py wraps them here
from .montecarlo import calibrate_attenuation_constant, run_scenario  # noqa: F401, E402

# the file schema: each section's keys in manifest order, each with the
# dataclass field it sets. A key whose path names a section is that section;
# one of field None sets its parent's fields, or the parser reads it itself
_SCHEMA = {
    (): {
        "rng_contract": None,
        "m": "m",
        "l": "l",
        "rho_t_db": "rho_t_db",
        "sigma2": "sigma2",
        "model": "model",
        "geometry": "geometry",
        "run": None,
    },
    ("model",): {
        "type": "variant",
        "xi": "xi",
        "phase_range_deg": "phase_range_deg",
        "angular_spread_deg": "angular_spread_deg",
        "mean_doa": "mean_doa_deg",
        "spacing_wavelengths": "spacing_wavelengths",
        "measured": "measured",
    },
    ("model", "measured"): {
        key: key for key in ("spread_mean_deg", "spread_std_deg", "spread_floor_deg")
    },
    ("geometry",): {
        "cell_radius_m": "cell_radius_m",
        "reference_distance_m": "reference_distance_m",
        "alpha": "attenuation_exponent",
        "sigma_sh_db": "shadowing_std_db",
        "attenuation_constant": "attenuation_constant",
        "calibrate": None,
    },
    ("run",): {key: key for key in ("n_drops", "n_fading", "seed")},
}
# the model keys each type takes: those of the spec fields its variant reads
_MODEL_KEYS = {
    variant: {key for key, field in _SCHEMA[("model",)].items() if field in fields}
    for variant, fields in VARIANT_FIELDS.items()
}
# the key path that sets each dataclass field
_FIELD_KEYS = {
    field: keys + (key,)
    for keys, section in _SCHEMA.items()
    for key, field in section.items()
    if field is not None
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

    It checks the file's shape only; every value is the dataclasses' to
    check, and ``build`` locates their errors.
    """

    def __init__(self, path, marks):
        self.path = str(path)
        self.marks = marks

    def fail(self, keys, message):
        label = ".".join(str(k) for k in keys) if keys else "document"
        raise ScenarioError(f"{label}: {message}", path=self.path, line=self.marks.get(keys))

    def mapping(self, value, keys, required=()):
        """``value``, checked to be a mapping of section ``keys``'s keys that
        holds every key of ``required``."""
        if not isinstance(value, dict):
            self.fail(keys, "expected a mapping")
        for key in value:
            if key not in _SCHEMA[keys]:
                self.fail(keys + (key,), f"unknown key {key!r}")
        for key in required:
            if key not in value:
                self.fail(keys, f"missing required key {key!r}")
        return value

    def values(self, raw, keys) -> dict:
        """The fields the keys in ``raw`` set, as given. Sub-sections and keys
        of field None are the caller's to read."""
        return {
            field: raw[key]
            for key, field in _SCHEMA[keys].items()
            if key in raw and field is not None and keys + (key,) not in _SCHEMA
        }

    def build(self, cls, keys, **kwargs):
        """``cls(**kwargs)``, with a rejected value reported at the key that set
        its field, or at ``keys``. Of several blamed fields, the first one the
        file sets is reported."""
        try:
            return cls(**kwargs)
        except InvalidParameterError as exc:
            fields = exc.field if isinstance(exc.field, tuple) else (exc.field,)
            paths = [_FIELD_KEYS.get(f, keys) for f in fields]
            at = next((path for path in paths if path in self.marks), paths[0])
            while at not in self.marks:
                at = at[:-1]
            self.fail(at, str(exc))


def _parse_model(p: _Parser, raw) -> CorrelationModelSpec:
    keys = ("model",)
    raw = p.mapping(raw, keys, required=("type",))
    variant = raw["type"]
    if not isinstance(variant, str) or variant not in _MODEL_KEYS:
        p.fail(keys + ("type",), f"unknown model type {variant!r}")
    for key in raw:
        if key not in _MODEL_KEYS[variant]:
            p.fail(keys + (key,), f"key {key!r} does not apply to model type {variant!r}")
    for key in ("xi", "phase_range_deg", "angular_spread_deg"):
        if key in _MODEL_KEYS[variant] and key not in raw:
            p.fail(keys, f"missing required key {key!r}")

    fields = p.values(raw, keys)
    if "measured" in raw:
        block_keys = keys + ("measured",)
        block = p.mapping(raw["measured"], block_keys)
        fields["measured"] = p.build(
            MeasuredAngularModel, block_keys, **p.values(block, block_keys)
        )
    return p.build(CorrelationModelSpec, keys, **fields)


class _Loader(yaml.SafeLoader):
    """The safe loader, with a value its constructor cannot convert, such as
    an integer past the interpreter's digit limit or ``!!bool x``, reported
    at its line; so is an alias, whose expansions multiply with each level,
    and a node nested deeper than ``_MAX_DEPTH``, before either is composed."""

    # the deepest values sit four nodes down (document, model, measured block
    # or phase range, value); a fifth lets a list there reach its key's check
    _MAX_DEPTH = 5
    _depth = 0

    def compose_node(self, parent, index):
        event = self.peek_event()
        if isinstance(event, yaml.AliasEvent):
            problem = "aliases are not allowed in a scenario file"
        elif self._depth == self._MAX_DEPTH:
            problem = f"nested deeper than the scenario schema's {self._MAX_DEPTH} levels"
        else:
            self._depth += 1
            node = super().compose_node(parent, index)
            self._depth -= 1
            return node
        raise yaml.composer.ComposerError(None, None, problem, event.start_mark)

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (KeyError, ValueError) as exc:
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read {node.tag}: {exc}", node.start_mark
            ) from None


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
    loader = _Loader(text)
    loader.name = str(path)  # the file, not "<unicode string>", in every mark
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
    p = _Parser(path, marks)

    data = p.mapping(data, (), required=("m", "l", "model", "geometry", "run"))
    contract = data.get("rng_contract", RNG_CONTRACT)
    if isinstance(contract, bool) or contract != RNG_CONTRACT:
        p.fail(
            ("rng_contract",),
            f"written under RNG contract {contract!r}; this version reproduces "
            f"only contract {RNG_CONTRACT}",
        )
    fields = p.values(data, ())
    model = _parse_model(p, data["model"])

    keys = ("geometry",)
    raw = p.mapping(data["geometry"], keys)
    wants_calibration = raw.get("calibrate", False)
    if not isinstance(wants_calibration, bool):
        p.fail(keys + ("calibrate",), f"expected true or false, got {wants_calibration!r}")
    if wants_calibration and "attenuation_constant" in raw:
        p.fail(keys, "give either attenuation_constant or calibrate: true, not both")
    if not wants_calibration and "attenuation_constant" not in raw:
        p.fail(keys, "geometry needs attenuation_constant or calibrate: true")
    # with calibrate: true the constant keeps GeometryConfig's placeholder
    geometry = p.build(GeometryConfig, keys, **p.values(raw, keys))

    keys = ("run",)
    fields.update(p.values(p.mapping(data["run"], keys, required=_SCHEMA[keys]), keys))
    scenario = p.build(Scenario, (), model=model, geometry=geometry, **fields)
    return scenario, wants_calibration


def _section_to_dict(obj, keys) -> dict:
    """Section ``keys`` of the file schema, filled from the dataclass ``obj``."""
    doc = {}
    for key, field in _SCHEMA[keys].items():
        if keys == ("model",) and key not in _MODEL_KEYS[obj.variant]:
            continue
        if keys + (key,) in _SCHEMA:
            section = obj if field is None else getattr(obj, field)
            if section is not None:
                doc[key] = _section_to_dict(section, keys + (key,))
        elif field is not None:
            value = getattr(obj, field)
            doc[key] = list(value) if isinstance(value, tuple) else value
    return doc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serializable scenario in the file schema (attenuation resolved), stamped
    with the RNG contract its outputs were drawn under."""
    return {"rng_contract": RNG_CONTRACT, **_section_to_dict(scenario, ())}


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _load(paths, args):
    """Parse every scenario file, then apply ``--seed`` to each.

    Returns ``(scenarios, wants_calibration)``. The scenarios must pair on
    common random numbers: equal M, L, seed, geometry, calibration and run
    sizes.
    """
    parsed = [load_scenario_file(p) for p in paths]
    scenarios = [s for s, _ in parsed]
    if args.seed is not None:
        try:
            scenarios = [replace(s, seed=args.seed) for s in scenarios]
        except InvalidParameterError as exc:
            raise ScenarioError(f"--seed {args.seed}: {exc}")
    signatures = {
        (s.m, s.l, s.seed, s.geometry, wants, s.n_drops, s.n_fading)
        for s, (_, wants) in zip(scenarios, parsed)
    }
    if len(signatures) > 1:
        raise ScenarioError(
            "scenarios are incompatible: M, L, seed, geometry and run sizes must match"
        )
    return scenarios, parsed[0][1]


def _write_csv(path, header, rows):
    """A table whose cells are strings, integers or full-precision floats."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, (str, int)) else _fmt(v) for v in row])


def _write_manifest(path, scenario):
    with open(path, "w") as handle:
        yaml.safe_dump(scenario_to_dict(scenario), handle, sort_keys=False)


def cmd_run(args) -> int:
    scenarios, wants_calibration = _load([args.scenario], args)
    # calibration, when asked for, runs in the same call and resolves the constant
    (result,) = run_scenarios(scenarios, workers=args.workers, calibrate=wants_calibration)
    rows = []
    for drop in result.drops:
        columns = zip(
            drop.distances_m,
            10.0 * np.log10(drop.link_gains),
            drop.per_terminal_expected_snr_db,
            drop.per_terminal_closed_form_snr_db,
        )
        rows += ([drop.drop_index, t, *values, drop.trace_sq] for t, values in enumerate(columns))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "drops.csv",
        [
            "drop",
            "terminal",
            "distance_m",
            "beta_db",
            "expected_snr_sim_db",
            "expected_snr_cf_db",
            "trace_sq",
        ],
        rows,
    )
    _write_csv(out / "summary.csv", ["metric", "value"], result.summary.items())
    _write_manifest(out / "manifest.yaml", result.scenario)
    print(f"wrote {out / 'drops.csv'}, {out / 'summary.csv'}, {out / 'manifest.yaml'}")
    print(
        "median expected SNR "
        f"{result.summary['expected_snr_db_median']:.3f} dB over "
        f"{result.summary['n_drops_completed']} drops"
    )
    return 0


def cmd_compare(args) -> int:
    paths = args.scenario
    if len(paths) < 2:
        raise ScenarioError("compare needs at least two --scenario files")
    scenarios, wants_calibration = _load(paths, args)
    labels = []
    for i, p in enumerate(paths):
        stem = Path(p).stem
        labels.append(stem if stem not in labels else f"{stem}#{i}")

    # one drop-major pass: the scenarios read the same fading streams in each drop
    results = run_scenarios(scenarios, workers=args.workers, calibrate=wants_calibration)
    pooled = [pooled_expected_snr_db(r) for r in results]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "cdf.csv",
        ["scenario", "expected_snr_db", "cdf_prob"],
        (
            (label, value, k / samples.size)
            for label, samples in zip(labels, pooled)
            for k, value in enumerate(np.sort(samples), 1)
        ),
    )
    # the gain is the median of the differences paired by (drop, terminal),
    # so the samples are differenced in pass order, never sorted first
    gain_rows = [
        (
            labels[i],
            labels[j],
            np.percentile(pooled[j] - pooled[i], 50.0),
            np.percentile(pooled[j], 50.0) - np.percentile(pooled[i], 50.0),
        )
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    header = ["baseline", "alternative", "median_gain_db", "delta_median_db"]
    _write_csv(out / "gains.csv", header, gain_rows)

    for base, alt, gain, _ in gain_rows:
        print(f"median gain of {alt} over {base}: {gain:.3f} dB")
    print(f"wrote {out / 'cdf.csv'}, {out / 'gains.csv'}")
    return 0


def cmd_calibrate(args) -> int:
    (scenario,), wants_calibration = _load([args.scenario], args)
    if not wants_calibration:
        raise ScenarioError(
            "geometry.calibrate: true is required for the calibrate command",
            path=str(args.scenario),
        )
    # the pass that calibrates also aggregates the baseline's draws at the
    # constant, at any worker count, which gives the achieved percentile
    (result,) = run_scenarios(
        [calibration_baseline(scenario)],
        workers=args.workers,
        calibrate=True,
    )
    resolved = replace(scenario, geometry=result.scenario.geometry)
    achieved = np.percentile(pooled_instantaneous_snr_db(result), 5.0)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved_path = out / f"{Path(args.scenario).stem}.resolved.yaml"
    _write_manifest(resolved_path, resolved)
    print(f"attenuation_constant: {_fmt(resolved.geometry.attenuation_constant)}")
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
    # built per call, so a handler replaced after import, such as a tracing
    # wrapper, is the one that runs
    commands = {
        "run": (cmd_run, "run one scenario and write result tables", "scenario YAML file"),
        "compare": (
            cmd_compare,
            "run several scenarios and report pairwise gains",
            "scenario YAML file (repeat for each scenario)",
        ),
        "calibrate": (
            cmd_calibrate,
            "calibrate the attenuation constant",
            "scenario YAML file with calibrate: true",
        ),
    }
    for name, (handler, help_text, scenario_help) in commands.items():
        p = sub.add_parser(name, help=help_text)
        action = "append" if name == "compare" else "store"
        p.add_argument("--scenario", action=action, required=True, help=scenario_help)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override each scenario's seed")
        p.add_argument("--workers", type=int, default=1, help="drop-level worker processes")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    # numpy.random imports secrets, and through it hashlib's OpenSSL backend,
    # which maps libcrypto (3.3 MB resident) though no stream is seeded from
    # secrets. Blocking the backend makes hashlib and hmac use CPython's
    # built-in digests in this process and in the pool workers it forks,
    # unless numpy.random or the backend is already loaded
    if "numpy.random" not in sys.modules:
        sys.modules.setdefault("_hashlib", None)
    args = _build_arg_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ScenarioError(f"--workers must be at least 1, got {args.workers}")
        # a fork pool starts every worker at its first task, so more workers
        # than the cores this process may run on only add processes
        cores = getattr(os, "sched_getaffinity", None)
        args.workers = min(args.workers, len(cores(0)) if cores else (os.cpu_count() or 1))
        return args.handler(args)
    except (CorrDivError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(exc, ScenarioError) else 1


if __name__ == "__main__":
    sys.exit(main())
