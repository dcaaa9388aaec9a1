"""Golden diagnostics: every single-key mutation of five sample scenarios
parses to the recorded outcome, either the located diagnostic or the
manifest of the scenario it accepts.

Each line of ``data/cli_diagnostics.txt`` reads ``sample path value: outcome``.
Regenerate the file, after checking that a changed line is meant, with

    PYTHONPATH=src python tests/test_cli_diagnostics.py > tests/data/cli_diagnostics.txt
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from corrdiv.cli import load_scenario_file, scenario_to_dict
from corrdiv.errors import ScenarioError

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DATA = Path(__file__).parent / "data" / "cli_diagnostics.txt"
SAMPLES = [
    "exponential",
    "clerckx_delta38",
    "one_ring_fixed",
    "one_ring_measured",
    "baseline_calibrate",
]

# every key path of the file schema, sections, list items and one unknown key
PATHS = [
    ("rng_contract",),
    ("m",),
    ("l",),
    ("rho_t_db",),
    ("sigma2",),
    ("model",),
    ("model", "type"),
    ("model", "xi"),
    ("model", "phase_range_deg"),
    ("model", "phase_range_deg", 0),
    ("model", "phase_range_deg", 1),
    ("model", "angular_spread_deg"),
    ("model", "mean_doa"),
    ("model", "spacing_wavelengths"),
    ("model", "measured"),
    ("model", "measured", "spread_mean_deg"),
    ("model", "measured", "spread_std_deg"),
    ("model", "measured", "spread_floor_deg"),
    ("geometry",),
    ("geometry", "cell_radius_m"),
    ("geometry", "reference_distance_m"),
    ("geometry", "alpha"),
    ("geometry", "sigma_sh_db"),
    ("geometry", "attenuation_constant"),
    ("geometry", "calibrate"),
    ("run",),
    ("run", "n_drops"),
    ("run", "n_fading"),
    ("run", "seed"),
    ("bogus_knob",),
]
_DELETE = object()
VALUES = {
    "-1": -1,
    "0.5": 0.5,
    "nan": float("nan"),
    "true": True,
    "'x'": "x",
    "null": None,
    "[0.0, 38.0]": [0.0, 38.0],
    "delete": _DELETE,
}
# the block a mutation under model.measured adds when the sample has none,
# and the one extra value model.measured itself is set to
MEASURED = {"spread_mean_deg": 14.02, "spread_std_deg": 6.45, "spread_floor_deg": 1.0}


def _mutated(data, path, value):
    """A copy of ``data`` with the value at ``path`` replaced or deleted, or
    None where the sample has no parent for it or no key to delete."""
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        if key == "measured":
            parent.setdefault(key, dict(MEASURED))
        if key not in parent:
            return None
        parent = parent[key]
    key = path[-1]
    if value is not _DELETE:
        parent[key] = value
    elif isinstance(parent, dict) and key in parent:
        del parent[key]
    else:
        return None
    return data


def _mutations(sample):
    data = yaml.safe_load((SCENARIOS / f"{sample}.yaml").read_text())
    yield "original", data
    for path in PATHS:
        values = dict(VALUES)
        if path == ("model", "measured"):
            values["block"] = dict(MEASURED)
        for label, value in values.items():
            mutated = _mutated(data, path, value)
            if mutated is not None:
                yield f"{'.'.join(map(str, path))}={label}", mutated


def _outcome(scenario_file):
    try:
        scenario, wants_calibration = load_scenario_file(scenario_file)
    except ScenarioError as exc:
        return str(exc).replace(str(scenario_file), "<file>")
    manifest = json.dumps(scenario_to_dict(scenario), sort_keys=False)
    return f"OK calibrate={wants_calibration} {manifest}"


def diagnostics(sample, directory):
    """One line per mutation of ``sample``: its label and parse outcome."""
    scenario_file = Path(directory) / "scenario.yaml"
    lines = []
    for label, data in _mutations(sample):
        scenario_file.write_text(yaml.safe_dump(data, sort_keys=False))
        lines.append(f"{sample} {label}: {_outcome(scenario_file)}")
    return lines


@pytest.mark.parametrize("sample", SAMPLES)
def test_diagnostics_match_the_recorded_ones(sample, tmp_path):
    recorded = [
        line for line in DATA.read_text().splitlines() if line.startswith(f"{sample} ")
    ]
    assert recorded, f"no recorded diagnostics for {sample}"
    assert diagnostics(sample, tmp_path) == recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in SAMPLES:
            sys.stdout.write("".join(line + "\n" for line in diagnostics(name, tmp)))
