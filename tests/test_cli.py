"""End-to-end CLI tests driven through main(argv) in-process, plus a few in a
subprocess with a timeout, where a regression would hang."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import corrdiv
from corrdiv import cli
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


def run_in_subprocess(scenario, out, timeout=60, command=("-m", "corrdiv.cli")):
    """``corrdiv run`` in a fresh interpreter, started as ``python <command> run
    ...``; past ``timeout`` seconds the test fails."""
    paths = [str(Path(corrdiv.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    args = ["run", "--scenario", str(scenario), "--out", str(out)]
    return subprocess.run(
        [sys.executable, *command, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
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

    @pytest.mark.parametrize("value", ["1", "2", "4", "6", "true", "'2'", "'3'"])
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


def test_cli_import_does_not_load_multiprocessing():
    # the process pool's modules load with the first pooled pass, not at start-up
    src = str(Path(corrdiv.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import corrdiv.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
