"""End-to-end CLI tests driven through main(argv) in-process, plus a few in a
subprocess with a timeout, where a regression would hang."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import corrdiv
from corrdiv import cli, montecarlo
from corrdiv.cli import _build_arg_parser, load_scenario_file, main, scenario_to_dict
from corrdiv.montecarlo import RNG_CONTRACT, pooled_expected_snr_db, run_scenarios

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = sorted((ROOT / "scenarios").glob("*.yaml"))

MINIMAL = """\
m: 8
l: 2
model:
  type: exponential
  xi: 0.6
geometry:
  attenuation_constant: 1.0
run:
  n_drops: 2
  n_fading: 10
  seed: 7
"""


def write_scenario(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def package_env(**overrides):
    """This process's environment with the package on PYTHONPATH."""
    paths = [str(Path(corrdiv.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **overrides)


def fresh_interpreter(code, **env):
    """Standard output of ``python -c code``, stripped, in an interpreter
    that inherits no BLAS thread count unless ``env`` sets one."""
    child = package_env(**env)
    for name in {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} - set(env):
        child.pop(name, None)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child
    )
    return out.stdout.strip()


def run_in_subprocess(scenario, out, timeout=60, command=("-m", "corrdiv.cli")):
    """``corrdiv run`` in a fresh interpreter, started as ``python <command> run
    ...``; past ``timeout`` seconds the test fails."""
    args = ["run", "--scenario", str(scenario), "--out", str(out)]
    return subprocess.run(
        [sys.executable, *command, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=package_env(),
    )


# a measured spread model whose mean sits below its floor
SPREAD_BELOW_FLOOR = MINIMAL.replace(
    "  type: exponential\n  xi: 0.6",
    "  type: one_ring\n  angular_spread_deg: measured\n  measured:\n"
    "    spread_mean_deg: 0.5\n    spread_std_deg: {std}\n    spread_floor_deg: 1.0",
)


class TestRunCommand:
    def test_minimal_scenario_runs(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        rows = read_rows(out / "drops.csv")
        assert rows[0] == [
            "drop",
            "terminal",
            "distance_m",
            "beta_db",
            "expected_snr_sim_db",
            "expected_snr_cf_db",
            "trace_sq",
        ]
        assert len(rows) - 1 == 2 * 2
        summary = dict(read_rows(out / "summary.csv")[1:])
        assert summary["n_drops_completed"] == "2"
        assert "median expected SNR" in capsys.readouterr().out

    def test_summary_floats_round_trip(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario), "--out", str(out)])
        summary = dict(read_rows(out / "summary.csv")[1:])
        # .17g strings must parse back to the exact doubles
        median = float(summary["expected_snr_db_median"])
        assert summary["expected_snr_db_median"] == format(median, ".17g")

    def test_reruns_are_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(scenario), "--out", str(out_a)])
        main(["run", "--scenario", str(scenario), "--out", str(out_b)])
        for name in ("drops.csv", "summary.csv", "manifest.yaml"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_worker_count_does_not_change_tables(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(scenario), "--out", str(out_a), "--workers", "1"])
        main(["run", "--scenario", str(scenario), "--out", str(out_b), "--workers", "2"])
        for name in ("drops.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_draws(self, tmp_path):
        scenario = write_scenario(tmp_path, MINIMAL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(scenario), "--out", str(out_a)])
        main(["run", "--scenario", str(scenario), "--out", str(out_b), "--seed", "8"])
        assert (out_a / "drops.csv").read_bytes() != (out_b / "drops.csv").read_bytes()
        manifest = yaml.safe_load((out_b / "manifest.yaml").read_text())
        assert manifest["run"]["seed"] == 8

    def test_manifest_round_trips_to_identical_scenario(self, tmp_path):
        scenario_path = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        original, _ = load_scenario_file(scenario_path)
        reloaded, wants_calibration = load_scenario_file(out / "manifest.yaml")
        assert not wants_calibration
        assert reloaded == original
        assert scenario_to_dict(reloaded) == scenario_to_dict(original)

    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda path: path.stem)
    def test_sample_manifest_round_trips_to_identical_scenario(self, tmp_path, sample):
        original, _ = load_scenario_file(sample)
        doc = scenario_to_dict(original)
        assert ("measured" in doc["model"]) == (original.model.angular_spread_deg == "measured")
        manifest = write_scenario(tmp_path, yaml.safe_dump(doc, sort_keys=False))
        reloaded, wants_calibration = load_scenario_file(manifest)
        assert not wants_calibration
        assert reloaded == original
        assert scenario_to_dict(reloaded) == doc

    def test_manifest_records_rng_contract(self, tmp_path):
        scenario_path = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["rng_contract"] == RNG_CONTRACT
        assert "rng_contract" not in manifest["run"]

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 74.5 GiB"), "Unable to allocate 74.5 GiB"),
            (MemoryError(), "out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch, exc, message):
        # an allocation below the array ceiling can still fail on a small host
        def run_scenarios(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_scenarios", run_scenarios)
        scenario = write_scenario(tmp_path, MINIMAL)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_degenerate_run_exits_one(self, tmp_path, capsys):
        # rank-1 profiles 1e-9 deg apart: accepted, singular in every trial
        text = MINIMAL.replace(
            "  type: exponential\n  xi: 0.6",
            "  type: clerckx\n  xi: 1.0\n  phase_range_deg: [0.0, 1.0e-9]",
        ).replace("m: 8", "m: 4")
        scenario = write_scenario(tmp_path, text)
        code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "aborted" in capsys.readouterr().err


# every section sets a value, each on its own line
LOCATED = """\
m: 8
l: 2
rho_t_db: 5.0
model:
  type: one_ring
  angular_spread_deg: measured
  spacing_wavelengths: 0.5
  measured:
    spread_floor_deg: 1.0
geometry:
  cell_radius_m: 500.0
  alpha: 3.67
  attenuation_constant: 1.0
run:
  n_drops: 2
  n_fading: 10
  seed: 7
"""

# the keys that set a real-valued field: every leaf key of the file schema but
# the model type and the integer sizes
NUMBER_KEYS = [
    path
    for field, path in cli._FIELD_KEYS.items()
    if path not in cli._SCHEMA
    and field not in {"variant", "m", "l", "n_drops", "n_fading", "seed"}
]
# for each model key, a model section that takes it
MODEL_FOR_KEY = {
    "xi": {"type": "exponential", "xi": 0.6},
    "phase_range_deg": {"type": "clerckx", "xi": 0.6, "phase_range_deg": [0.0, 38.0]},
    "angular_spread_deg": {"type": "one_ring", "angular_spread_deg": 14.02},
    "mean_doa": {"type": "one_ring", "angular_spread_deg": 14.02},
    "spacing_wavelengths": {"type": "one_ring", "angular_spread_deg": 14.02},
    "measured": {"type": "one_ring", "angular_spread_deg": "measured"},
}


class TestArgParser:
    @pytest.mark.parametrize("command", ["run", "compare", "calibrate"])
    def test_commands_share_options_and_defaults(self, command, monkeypatch):
        parse = _build_arg_parser().parse_args
        args = parse([command, "--scenario", "s.yaml"])
        assert args.scenario == (["s.yaml"] if command == "compare" else "s.yaml")
        assert (args.out, args.seed, args.workers) == (".", None, 1)
        flags = ["--out", "o", "--seed", "3", "--workers", "2"]
        args = parse([command, "--scenario", "s.yaml", *flags])
        assert (args.out, args.seed, args.workers) == ("o", 3, 2)
        with pytest.raises(SystemExit):
            parse([command, "--out", "o"])
        # the handler is the module's at parse time, so a wrapper set after
        # import takes effect
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: 0)
        args = _build_arg_parser().parse_args([command, "--scenario", "s.yaml"])
        assert args.handler is getattr(cli, f"cmd_{command}")


class TestValidation:
    def test_out_of_range_xi_names_the_key(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINIMAL.replace("xi: 0.6", "xi: 1.5"))
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "model.xi" in err
        assert f"{scenario}:5:" in err

    def test_nan_in_sample_scenario_exits_two(self, tmp_path, capsys):
        sample = Path(__file__).resolve().parents[1] / "scenarios" / "clerckx_delta38.yaml"
        text = sample.read_text()
        assert "rho_t_db: 5.0" in text
        scenario = write_scenario(tmp_path, text.replace("rho_t_db: 5.0", "rho_t_db: .nan"))
        code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        # the error sits on rho_t_db's own line, not the document's first key
        line = text.splitlines().index("rho_t_db: 5.0") + 1
        assert line == 4
        assert f"{scenario}:{line}: rho_t_db: rho_t_db must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "label, value",
        [
            ("rho_t_db", ".inf"),
            ("model.spacing_wavelengths", "-0.5"),
            ("geometry.alpha", ".nan"),
            ("model.measured.spread_floor_deg", "0.0"),
            # below the default reference distance, which the file does not set
            ("geometry.cell_radius_m", "40.0"),
            # (50/500)^400 underflows every link gain to zero
            ("geometry.alpha", "400.0"),
            ("model.measured.spread_floor_deg", "181.0"),
            # run sizes whose arrays would pass the 4 GiB ceiling
            ("m", "100000"),
            ("run.n_fading", "100000000000000000000"),
            pytest.param("run.n_drops", "1" + "0" * 400, id="run.n_drops-1e400"),
        ],
    )
    def test_rejected_value_is_located_at_its_key(self, tmp_path, capsys, label, value):
        key = label.rsplit(".", 1)[-1]
        lines = LOCATED.splitlines()
        line = next(i for i, text in enumerate(lines, 1) if text.strip().startswith(f"{key}:"))
        lines[line - 1] = lines[line - 1].split(":")[0] + f": {value}"
        scenario = write_scenario(tmp_path, "\n".join(lines) + "\n")
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f"{scenario}:{line}: {label}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", NUMBER_KEYS, ids=".".join)
    def test_integer_beyond_float_range_is_located(self, tmp_path, capsys, path):
        huge = 10**400
        data = yaml.safe_load(MINIMAL)
        if path[0] == "model":
            data["model"] = dict(MODEL_FOR_KEY[path[1]])
        section = data
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = [huge, huge] if path[-1] == "phase_range_deg" else huge
        scenario = write_scenario(tmp_path, yaml.safe_dump(data, sort_keys=False))
        lines = scenario.read_text().splitlines()
        line = next(i for i, text in enumerate(lines, 1) if str(huge) in text)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{scenario}:{line}: {'.'.join(path)}:" in err
        assert "beyond the float range" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1", "2", "4", "5", "true", "'2'", "'3'"])
    def test_foreign_rng_contract_is_located(self, tmp_path, capsys, value):
        scenario = write_scenario(tmp_path, f"rng_contract: {value}\n" + MINIMAL)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{scenario}:1:" in err
        assert "RNG contract" in err

    def test_current_rng_contract_is_accepted(self, tmp_path):
        plain = write_scenario(tmp_path, MINIMAL, "plain.yaml")
        stamped = write_scenario(
            tmp_path, f"rng_contract: {RNG_CONTRACT}\n" + MINIMAL, "stamped.yaml"
        )
        assert load_scenario_file(stamped) == load_scenario_file(plain)

    def test_contract_three_file_is_located(self, tmp_path, capsys):
        # contract 3 factored by eigendecomposition and synthesized through
        # all M columns, so its outputs are not reproducible under later ones
        scenario = write_scenario(tmp_path, MINIMAL + "rng_contract: 3\n")
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        line = len(MINIMAL.splitlines()) + 1
        assert f"{scenario}:{line}: rng_contract: written under RNG contract 3" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_located(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINIMAL + "bogus_knob: 3\n")
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bogus_knob" in err
        assert f"{scenario}:12:" in err

    def test_model_specific_keys_enforced(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path, MINIMAL.replace("  xi: 0.6", "  xi: 0.6\n  mean_doa: 12.0")
        )
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert "does not apply" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_yaml_exits_two(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "m: [unclosed\n")
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert "invalid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [
            # int() refuses a literal of more than 4300 digits, and so does
            # str() of such an int, so the literal is built as text
            pytest.param("1" + "0" * 5000, "int: Exceeds the limit", id="digit-limit"),
            ("!!float abc", "float: could not convert"),
            ("!!bool x", "bool: 'x'"),
        ],
    )
    def test_unreadable_scalar_is_located(self, tmp_path, capsys, value, message):
        text = MINIMAL.replace("l: 2\n", f"l: 2\nrho_t_db: {value}\n")
        scenario = write_scenario(tmp_path, text)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        prefix = f"error: {scenario}:3: invalid YAML: cannot read tag:yaml.org,2002:"
        assert err.startswith(prefix + message), err
        assert not (tmp_path / "out").exists()

    def test_yaml_mark_names_the_file(self, tmp_path, capsys):
        text = MINIMAL.replace("l: 2\n", "l: 2\nrho_t_db: !!float abc\n")
        scenario = write_scenario(tmp_path, text)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f'in "{scenario}", line 3, column 11' in err, err
        assert "<unicode string>" not in err

    def test_alias_levels_are_rejected_at_the_first_alias(self, tmp_path, capsys, monkeypatch):
        # five levels of ten aliases each expand to 10**5 lists, and line
        # marks collected over an expansion cost ten times more per level
        calls = []
        collect = cli._collect_marks

        def counted(node, path, marks):
            calls.append(path)
            collect(node, path, marks)

        monkeypatch.setattr(cli, "_collect_marks", counted)
        levels = ["  a0: &a0 [x, x, x, x, x, x, x, x, x, x]"]
        levels += [f"  a{i}: &a{i} [{', '.join([f'*a{i - 1}'] * 10)}]" for i in range(1, 5)]
        scenario = write_scenario(tmp_path, MINIMAL + "bogus:\n" + "\n".join(levels) + "\n")
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {scenario}:14: invalid YAML: aliases are not allowed in a scenario file"
        ), err
        assert calls == []

    def test_aliased_value_is_located_without_its_expansion(self, tmp_path, capsys):
        big = "big: &big [" + ", ".join(["1.0"] * 2000) + "]\n"
        scenario = write_scenario(tmp_path, big + MINIMAL.replace("m: 8", "m: *big"))
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scenario}:2: invalid YAML: aliases are not allowed"), err
        assert len(err) < 500

    @pytest.mark.parametrize("depth", [6, 3000])
    def test_nesting_past_the_schema_is_located(self, tmp_path, capsys, depth):
        # 3000 levels would pass the recursion limit if they were composed
        text = MINIMAL.replace("m: 8", "m: 8\nrho_t_db: " + "[" * depth + "]" * depth)
        scenario = write_scenario(tmp_path, text)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {scenario}:2: invalid YAML: nested deeper than the scenario schema's 5 levels"
        ), err

    def test_attenuation_and_calibrate_are_exclusive(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "  attenuation_constant: 1.0", "  attenuation_constant: 1.0\n  calibrate: true"
        )
        scenario = write_scenario(tmp_path, text)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, m, l",
        [
            # the rank-1 exponential profile at every terminal
            ("  type: exponential\n  xi: 1.0", 8, 2),
            # one fixed one-ring profile of numerical rank 27 at M=64
            ("  type: one_ring\n  angular_spread_deg: 14.02\n  mean_doa: 0.0", 64, 32),
        ],
        ids=["exponential_rank1", "one_ring_fixed_rank27"],
    )
    def test_shared_profile_below_rank_l_exits_two(self, tmp_path, capsys, model, m, l):
        text = (
            MINIMAL.replace("  type: exponential\n  xi: 0.6", model)
            .replace("m: 8", f"m: {m}")
            .replace("l: 2", f"l: {l}")
        )
        scenario = write_scenario(tmp_path, text)
        code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{scenario}:2: l: every terminal shares one correlation matrix" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_fixed_spread_below_floor_exits_two(self, tmp_path):
        text = SPREAD_BELOW_FLOOR.format(std="0.0")
        scenario = write_scenario(tmp_path, text)
        done = run_in_subprocess(scenario, tmp_path / "out")
        assert done.returncode == 2
        line = text.splitlines().index("    spread_mean_deg: 0.5") + 1
        assert f"{scenario}:{line}: model.measured.spread_mean_deg:" in done.stderr
        assert not (tmp_path / "out").exists()

    def test_unreachable_spread_floor_exits_one(self, tmp_path):
        # accepted, but no drop can draw a spread that clears the floor
        scenario = write_scenario(tmp_path, SPREAD_BELOW_FLOOR.format(std="1.0e-9"))
        done = run_in_subprocess(scenario, tmp_path / "out")
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "below the floor 1.0 deg" in done.stderr

    def test_spread_mean_near_180_runs(self, tmp_path):
        # draws above 180 deg are redrawn, as those below the floor are
        text = (
            SPREAD_BELOW_FLOOR.format(std="6.45")
            .replace("spread_mean_deg: 0.5", "spread_mean_deg: 175.0")
            .replace("n_drops: 2", "n_drops: 20")
        )
        scenario = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        summary = dict(read_rows(out / "summary.csv")[1:])
        assert summary["n_drops_completed"] == "20"
        assert summary["n_drops_failed"] == "0"

    def test_fixed_spread_above_180_exits_two(self, tmp_path, capsys):
        text = SPREAD_BELOW_FLOOR.format(std="0.0").replace(
            "spread_mean_deg: 0.5", "spread_mean_deg: 190.0"
        )
        scenario = write_scenario(tmp_path, text)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2
        line = text.splitlines().index("    spread_mean_deg: 190.0") + 1
        assert f"{scenario}:{line}: model.measured.spread_mean_deg:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "calibrate"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "-1"), ("--seed", str(2**64)), ("--workers", "0"), ("--workers", "-2")],
    )
    def test_rejected_override_exits_two(self, tmp_path, capsys, command, flag, value):
        scenario = write_scenario(tmp_path, CALIBRATE if command == "calibrate" else MINIMAL)
        out = tmp_path / "out"
        args = [command, "--scenario", str(scenario), "--out", str(out), flag, value]
        if command == "compare":
            args += ["--scenario", str(scenario)]
        assert main(args) == 2
        assert f"error: {flag} " in capsys.readouterr().err
        assert not out.exists()

    def test_geometry_requires_a_constant_or_calibration(self, tmp_path, capsys):
        text = MINIMAL.replace("  attenuation_constant: 1.0", "  cell_radius_m: 400.0")
        scenario = write_scenario(tmp_path, text)
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert "attenuation_constant or calibrate" in capsys.readouterr().err


class TestCompareCommand:
    def test_self_comparison_has_zero_gain(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code = main(
            ["compare", "--scenario", str(scenario), "--scenario", str(scenario), "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out / "gains.csv")
        assert rows[0] == ["baseline", "alternative", "median_gain_db", "delta_median_db"]
        assert len(rows) == 2
        assert float(rows[1][2]) == 0.0
        assert float(rows[1][3]) == 0.0
        assert "0.000 dB" in capsys.readouterr().out

    def test_cdf_table_covers_both_scenarios(self, tmp_path):
        a = write_scenario(tmp_path, MINIMAL, "exp.yaml")
        b = write_scenario(
            tmp_path,
            MINIMAL.replace(
                "  type: exponential\n  xi: 0.6",
                "  type: clerckx\n  xi: 0.6\n  phase_range_deg: [0.0, 38.0]",
            ),
            "clerckx.yaml",
        )
        out = tmp_path / "out"
        assert main(["compare", "--scenario", str(a), "--scenario", str(b), "--out", str(out)]) == 0
        rows = read_rows(out / "cdf.csv")[1:]
        labels = {row[0] for row in rows}
        assert labels == {"exp", "clerckx"}
        # 2 drops x 2 terminals pooled samples per scenario
        assert len(rows) == 2 * 4
        probs = [float(r[2]) for r in rows if r[0] == "exp"]
        assert probs == [0.25, 0.5, 0.75, 1.0]
        # a step CDF: each scenario's pooled samples ascending, the k-th at k/n
        results = run_scenarios([load_scenario_file(p)[0] for p in (a, b)])
        for label, result in zip(("exp", "clerckx"), results):
            samples = pooled_expected_snr_db(result)
            values = [float(r[1]) for r in rows if r[0] == label]
            assert values == sorted(values) == sorted(samples.tolist())
            probs = [float(r[2]) for r in rows if r[0] == label]
            assert probs == [k / samples.size for k in range(1, samples.size + 1)]

    def test_gain_is_the_median_of_paired_differences(self, tmp_path, capsys):
        # no shadowing and a thin ring of terminals, so the correlation model,
        # not the link gain, decides how the samples sort
        text = MINIMAL.replace("n_drops: 2", "n_drops: 5").replace(
            "  attenuation_constant: 1.0",
            "  attenuation_constant: 1.0\n  cell_radius_m: 51.0\n  sigma_sh_db: 0.0",
        )
        a = write_scenario(tmp_path, text, "exp.yaml")
        b = write_scenario(
            tmp_path,
            text.replace(
                "  type: exponential\n  xi: 0.6",
                "  type: clerckx\n  xi: 0.6\n  phase_range_deg: [0.0, 90.0]",
            ),
            "clerckx.yaml",
        )
        out = tmp_path / "out"
        assert main(["compare", "--scenario", str(a), "--scenario", str(b), "--out", str(out)]) == 0
        (_, _, gain, delta), = read_rows(out / "gains.csv")[1:]
        base, alt = (
            pooled_expected_snr_db(r)
            for r in run_scenarios([load_scenario_file(p)[0] for p in (a, b)])
        )
        assert float(gain) == np.percentile(alt - base, 50.0)
        assert float(delta) == np.percentile(alt, 50.0) - np.percentile(base, 50.0)
        # pairing by (drop, terminal) matters here: neither the difference of
        # the medians nor the median of sorted differences equals the gain
        assert float(gain) != float(delta)
        assert float(gain) != np.percentile(np.sort(alt) - np.sort(base), 50.0)
        assert f"median gain of clerckx over exp: {float(gain):.3f} dB" in capsys.readouterr().out

    def test_mismatched_scenarios_rejected(self, tmp_path, capsys):
        a = write_scenario(tmp_path, MINIMAL, "a.yaml")
        b = write_scenario(tmp_path, MINIMAL.replace("l: 2", "l: 4"), "b.yaml")
        code = main(["compare", "--scenario", str(a), "--scenario", str(b), "--out", str(tmp_path)])
        assert code == 2
        assert "incompatible" in capsys.readouterr().err

    def test_mismatched_seed_rejected(self, tmp_path, capsys):
        a = write_scenario(tmp_path, MINIMAL, "a.yaml")
        b = write_scenario(tmp_path, MINIMAL.replace("seed: 7", "seed: 9"), "b.yaml")
        code = main(["compare", "--scenario", str(a), "--scenario", str(b), "--out", str(tmp_path)])
        assert code == 2
        assert "incompatible" in capsys.readouterr().err

    def test_seed_override_restores_compatibility(self, tmp_path):
        a = write_scenario(tmp_path, MINIMAL, "a.yaml")
        b = write_scenario(tmp_path, MINIMAL.replace("seed: 7", "seed: 9"), "b.yaml")
        out = tmp_path / "out"
        code = main(
            [
                "compare",
                "--scenario",
                str(a),
                "--scenario",
                str(b),
                "--out",
                str(out),
                "--seed",
                "11",
            ]
        )
        assert code == 0
        rows = read_rows(out / "gains.csv")
        assert float(rows[1][2]) == 0.0


CALIBRATE = """\
m: 64
l: 6
model:
  type: exponential
  xi: 0.9
geometry:
  calibrate: true
run:
  n_drops: 4
  n_fading: 25
  seed: 3
"""


class TestCompareWorkers:
    def test_worker_count_does_not_change_files(self, tmp_path, capsys):
        # calibrated scenarios, so the baseline shares the pool as well
        exp = CALIBRATE.replace("n_drops: 4", "n_drops: 3")
        clerckx = exp.replace(
            "  type: exponential\n  xi: 0.9",
            "  type: clerckx\n  xi: 0.9\n  phase_range_deg: [0.0, 38.0]",
        )
        paths = [write_scenario(tmp_path, exp, "exp.yaml")]
        paths.append(write_scenario(tmp_path, clerckx, "clerckx.yaml"))
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            args = ["compare", "--out", str(out), "--workers", workers]
            for path in paths:
                args += ["--scenario", str(path)]
            assert main(args) == 0
            outputs.append((out, capsys.readouterr().out.replace(str(out), "OUT")))
        (one, stdout_one), (two, stdout_two) = outputs
        assert stdout_one == stdout_two
        for name in ("cdf.csv", "gains.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()


class TestWorkerCap:
    """``--workers`` is capped at the cores this process may run on, since a
    fork pool starts every worker at its first task."""

    @staticmethod
    def run(tmp_path, workers):
        scenario = write_scenario(tmp_path, MINIMAL.replace("n_drops: 2", "n_drops: 6"))
        args = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
        assert main(args + ["--workers", str(workers)]) == 0
        return read_rows(tmp_path / "out" / "drops.csv")

    @pytest.mark.parametrize(
        "cores, workers, pools", [(3, 5000, [3]), (8, 2, [2]), (1, 5000, [])]
    )
    def test_workers_are_capped_at_the_affinity(
        self, tmp_path, monkeypatch, in_process_pool, cores, workers, pools
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        rows = self.run(tmp_path, workers)
        assert [max_workers for max_workers, *_ in in_process_pool] == pools
        assert rows == self.run(tmp_path, 1)

    def test_cpu_count_caps_without_an_affinity(self, tmp_path, monkeypatch, in_process_pool):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        self.run(tmp_path, 5000)
        assert [max_workers for max_workers, *_ in in_process_pool] == [4]


class TestCalibrateCommand:
    def test_calibrate_writes_resolved_scenario(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, CALIBRATE, "base.yaml")
        out = tmp_path / "out"
        assert main(["calibrate", "--scenario", str(scenario), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        constant = float(lines[0].split(":")[1])
        assert constant > 0
        achieved = float(lines[1].rsplit(":", 1)[1].split()[0])
        assert achieved == pytest.approx(0.0, abs=1e-6)
        resolved = yaml.safe_load((out / "base.resolved.yaml").read_text())
        assert resolved["geometry"]["attenuation_constant"] == pytest.approx(constant)
        assert resolved["rng_contract"] == RNG_CONTRACT

    def test_worker_count_does_not_change_files(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, CALIBRATE, "base.yaml")
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            args = ["calibrate", "--scenario", str(scenario), "--out", str(out)]
            assert main(args + ["--workers", workers]) == 0
            outputs.append((out, capsys.readouterr().out.replace(str(out), "OUT")))
        (one, stdout_one), (two, stdout_two) = outputs
        assert stdout_one == stdout_two
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_rerun_gives_identical_constant(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, CALIBRATE, "base.yaml")
        main(["calibrate", "--scenario", str(scenario), "--out", str(tmp_path / "a")])
        first = capsys.readouterr().out.splitlines()[0]
        main(["calibrate", "--scenario", str(scenario), "--out", str(tmp_path / "b")])
        second = capsys.readouterr().out.splitlines()[0]
        assert first == second

    def test_resolved_scenario_is_runnable(self, tmp_path):
        scenario = write_scenario(tmp_path, CALIBRATE, "base.yaml")
        out = tmp_path / "cal"
        main(["calibrate", "--scenario", str(scenario), "--out", str(out)])
        code = main(
            ["run", "--scenario", str(out / "base.resolved.yaml"), "--out", str(tmp_path / "run")]
        )
        assert code == 0

    def test_missing_calibrate_flag_exits_two(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, MINIMAL)
        assert main(["calibrate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert "calibrate: true is required" in capsys.readouterr().err


class TestTracedRun:
    def test_span_tracer_wraps_every_layer(self, tmp_path):
        """The benchmark's tracer replaces named functions of the package in
        place; a run under it succeeds and records the command, parse and
        kernel layers."""
        scenario = write_scenario(tmp_path, MINIMAL)
        spans_path = tmp_path / "spans.json"
        tracer = (str(ROOT / "bench" / "trace_cli.py"), str(spans_path), "--")
        proc = run_in_subprocess(scenario, tmp_path / "out", command=tracer)
        assert proc.returncode == 0, proc.stderr
        traced = json.loads(spans_path.read_text())
        assert traced["exit_code"] == 0
        names = {span[0] for span in traced["spans"]}
        assert {"cli.cmd", "cli.parse", "kernels.gram"} <= names


def blas_threads_observable():
    """Whether a fresh interpreter's BLAS pool shows: Linux, numpy's bundled
    OpenBLAS and more than one core."""
    return (
        sys.platform.startswith("linux")
        and montecarlo._openblas() is not None
        and len(os.sched_getaffinity(0)) > 1
    )


# prints the interpreter's thread count and the bundled OpenBLAS's
THREADS = (
    "import os; from corrdiv import montecarlo; "
    "print(len(os.listdir('/proc/self/task')), "
    "montecarlo._openblas().scipy_openblas_get_num_threads64_())"
)


# a small calibrated Clerckx scenario, whose pass draws through numpy.random
LEAN_SCENARIO = MINIMAL.replace(
    "  type: exponential\n  xi: 0.6", "  type: clerckx\n  xi: 0.9\n  phase_range_deg: [0.0, 38.0]"
).replace("  attenuation_constant: 1.0", "  calibrate: true")
SHA256_CORRDIV = "46755d6ef5e599400cb0f0f3bb1cd0de639a304705e3cf352d73952c1511349c"


def after_lean_run(prelude, call="main"):
    """Code that runs ``prelude``, then the lean scenario at one worker, through
    ``cli.main`` (``corrdiv run``, output discarded) or through
    ``run_scenarios`` as a library call. It prints the exit code, whether
    libcrypto is mapped, whether hashlib's OpenSSL backend is loaded and
    whether a SHA-256 digest is right."""
    run = {
        "main": "main(['run', '--scenario', str(path), '--out', tmp, '--workers', '1'])",
        "library": "run_scenarios([load_scenario_file(path)[0]], calibrate=True) and 0",
    }[call]
    return f"""{prelude}
import contextlib, io, sys, tempfile
from pathlib import Path
from corrdiv.cli import load_scenario_file, main, run_scenarios
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path = Path(tmp) / "lean.yaml"
    path.write_text({LEAN_SCENARIO!r})
    code = {run}
import hashlib
print(
    code,
    "libcrypto" in Path("/proc/self/maps").read_text(),
    sys.modules.get("_hashlib") is not None,
    hashlib.sha256(b"corrdiv").hexdigest() == {SHA256_CORRDIV!r},
)
"""


@pytest.mark.parametrize(
    "code, expected, env, needs",
    [
        # scipy serves only the tests
        pytest.param(
            "import sys, corrdiv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            "[]",
            {},
            None,
            id="cli-loads-no-scipy",
        ),
        # the process pool's modules load with the first pooled pass
        pytest.param(
            "import sys, corrdiv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))",
            "[]",
            {},
            None,
            id="cli-loads-no-multiprocessing",
        ),
        # numpy.polynomial loads with the first one-ring build
        pytest.param(
            "import sys, corrdiv.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))",
            "[]",
            {},
            None,
            id="cli-loads-no-numpy-polynomial",
        ),
        # a command-line process maps no OpenSSL; hashlib falls back to
        # CPython's built-in digests
        pytest.param(
            after_lean_run(""), "0 False False True", {}, "linux", id="cli-maps-no-openssl"
        ),
        # a process that loaded numpy.random first keeps its OpenSSL backend,
        # and so does a library pass
        pytest.param(
            after_lean_run("import numpy.random"),
            "0 True True True",
            {},
            "linux",
            id="numpy-random-first-keeps-openssl",
        ),
        pytest.param(
            after_lean_run("", call="library"),
            "0 True True True",
            {},
            "linux",
            id="library-pass-keeps-openssl",
        ),
        # the package's names load on first use, so the command line can set
        # BLAS threading before numpy loads, and a library import sets nothing
        pytest.param(
            "import os, sys; before = dict(os.environ); import corrdiv; "
            "print('numpy' in sys.modules, dict(os.environ) == before)",
            "False True",
            {},
            None,
            id="package-loads-no-numpy",
        ),
        pytest.param(
            "import corrdiv.cli; " + THREADS, "1 1", {}, "blas", id="cli-starts-one-blas-thread"
        ),
        pytest.param(
            "import corrdiv.cli; " + THREADS,
            "2 2",
            {"OPENBLAS_NUM_THREADS": "2"},
            "blas",
            id="exported-blas-threads-win",
        ),
    ],
)
def test_fresh_interpreter_import(code, expected, env, needs):
    if needs == "blas" and not blas_threads_observable():
        pytest.skip("needs Linux, numpy's bundled OpenBLAS and two cores")
    if needs == "linux" and not sys.platform.startswith("linux"):
        pytest.skip("needs Linux's /proc/self/maps")
    assert fresh_interpreter(code, **env) == expected


class TestPackageSurface:
    """The package root exports what README's "Library use" documents."""

    EXPORTS = {
        "CorrDivError",
        "DimensionMismatchError",
        "IndefiniteMatrixError",
        "InvalidParameterError",
        "QuadratureNonconvergenceError",
        "RunFailureError",
        "ScenarioError",
        "Scenario",
        "ScenarioResult",
        "DropResult",
        "CorrelationModelSpec",
        "CorrelationMatrix",
        "GeometryConfig",
        "MeasuredAngularModel",
        "run_scenarios",
        "run_scenario",
        "pooled_expected_snr_db",
        "pooled_instantaneous_snr_db",
        "build_exponential",
        "build_clerckx",
        "build_one_ring",
        "factor",
        "average_correlation",
        "expected_zf_snr_closed_form",
        "expected_sum_se_closed_form",
    }
    # no longer at the root: each lives in its module or in tests/, or is deleted
    MODULE_ONLY = [
        "run_drop",
        "calibrate_attenuation_constant",
        "draw_fading",
        "gram_eta_stats",
        "sample_link_gain",
        "sample_terminal_geometry",
        "neumann_trace_inverse",
        "moment_trace_gram_squared",
        "zf_eta_exact",
        "IllConditionedChannelError",
    ]

    def test_every_export_resolves(self):
        code = (
            "import corrdiv; "
            "print(all(getattr(corrdiv, name) is not None for name in corrdiv.__all__)); "
            "print(*corrdiv.__all__)"
        )
        resolved, names = fresh_interpreter(code).splitlines()
        assert resolved == "True"
        assert names.split() == sorted(self.EXPORTS)

    def test_module_only_names_are_not_exported(self):
        code = f"import corrdiv; print(*(hasattr(corrdiv, n) for n in {self.MODULE_ONLY!r}))"
        assert fresh_interpreter(code).split() == ["False"] * len(self.MODULE_ONLY)

    def test_readme_library_use_names_every_export(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
        missing = [name for name in self.EXPORTS if not re.search(rf"`{name}\b", section)]
        assert missing == []


def test_kernel_benchmark_script_runs():
    # benchmarks/bench_kernels.py reaches into montecarlo's private profile cache
    script = ROOT / "benchmarks" / "bench_kernels.py"
    args = ["--m", "16", "--l", "4", "--trials", "16", "--reps", "1"]
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ms per batch" in proc.stdout
    assert "MB traced peak allocation per batch" in proc.stdout


def test_tracer_resolves_every_traced_name():
    # bench/trace_cli.py replaces each traced function by name in the module
    # its caller reads it from; a name it cannot find fails every traced run
    import importlib.util

    spec = importlib.util.spec_from_file_location("trace_cli", ROOT / "bench" / "trace_cli.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _ in tracer.TRACED
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
