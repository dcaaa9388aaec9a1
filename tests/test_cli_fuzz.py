"""Fuzzing the CLI: mutated sample scenarios at small sizes end in one of the
documented exits, never in a hang or a traceback.

- exit 0 with finite ``drops.csv`` and ``summary.csv``;
- exit 2 with a ``file:line:`` diagnostic;
- exit 1 with an ``error:`` run-failure line.
"""

import contextlib
import csv
import io
import re
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corrdiv.cli import main  # noqa: E402

SAMPLES = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))
# a run still going after this many seconds counts as a hang
TIME_LIMIT_S = 60

# what a mutation writes over one key: boundary and non-finite numbers, and
# values of the wrong type
ODD_VALUES = [-1, 0, 1, 2, 0.5, 1e-9, 38.0, 180.0, 1e3, float("nan"), float("inf")]
ODD_VALUES += [True, "measured", "uniform", "x", None, [0.0, 38.0]]
_DELETE = object()


def _leaves(node, path=()):
    """Key paths of the values in a parsed scenario that are not mappings."""
    if not isinstance(node, dict):
        yield path
        return
    for key, value in node.items():
        yield from _leaves(value, path + (key,))


@st.composite
def scenario_texts(draw):
    """A sample scenario at M <= 8, 3 drops and 20 trials at most, with up to
    two keys set to odd values or deleted."""
    data = yaml.safe_load(draw(st.sampled_from(SAMPLES)).read_text())
    data["m"] = draw(st.integers(1, 8))
    data["l"] = draw(st.integers(1, data["m"]))
    data["run"] = {
        "n_drops": draw(st.integers(1, 3)),
        "n_fading": draw(st.integers(1, 20)),
        "seed": draw(st.integers(0, 2**32)),
    }
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        path = draw(st.sampled_from(sorted(_leaves(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        value = draw(st.sampled_from(ODD_VALUES + [_DELETE]))
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return yaml.safe_dump(data, sort_keys=False)


class _Hang(BaseException):
    """Raised by the alarm; a BaseException, so the CLI's handlers let it through."""


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise _Hang(f"the CLI was still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _finite_table(path, skip_columns):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    values = np.array([[float(v) for v in row[skip_columns:]] for row in rows])
    return values.size > 0 and bool(np.all(np.isfinite(values)))


# the two shared-profile cases of rank below L, and the two measured-spread
# models whose mean sits below the floor
BASE = "m: {m}\nl: {l}\nmodel:\n{model}\ngeometry:\n  attenuation_constant: 1.0\n"
BASE += "run:\n  n_drops: 2\n  n_fading: 10\n  seed: 7\n"
BELOW_FLOOR = (
    "  type: one_ring\n  angular_spread_deg: measured\n  measured:\n"
    "    spread_mean_deg: 0.5\n    spread_std_deg: {std}\n    spread_floor_deg: 1.0"
)
EXPLICIT = [
    BASE.format(m=8, l=2, model="  type: exponential\n  xi: 1.0"),
    BASE.format(
        m=64, l=32, model="  type: one_ring\n  angular_spread_deg: 14.02\n  mean_doa: 0.0"
    ),
    BASE.format(m=8, l=2, model=BELOW_FLOOR.format(std="0.0")),
    BASE.format(m=8, l=2, model=BELOW_FLOOR.format(std="1.0e-9")),
]
# an integer literal past the interpreter's 4300-digit limit, built as text
# since str() of such an int raises too, and run sizes whose arrays would pass
# the 4 GiB ceiling
EXPONENTIAL = BASE.format(m=8, l=2, model="  type: exponential\n  xi: 0.6")
EXPLICIT += [
    EXPONENTIAL + "rho_t_db: 1" + "0" * 5000 + "\n",
    EXPONENTIAL.replace("m: 8", "m: 100000"),
    EXPONENTIAL.replace("n_fading: 10", "n_fading: 100000000000000000000"),
    EXPONENTIAL.replace("n_drops: 2", "n_drops: 1" + "0" * 400),
]


def _apply_examples(test):
    for text in reversed(EXPLICIT):
        test = example(text)(test)
    return test


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@_apply_examples
@given(scenario_texts())
def test_cli_run_ends_in_a_documented_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.yaml"
        scenario.write_text(text)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with _time_limit(TIME_LIMIT_S), contextlib.redirect_stderr(err):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--scenario", str(scenario), "--out", str(out)])
        err = err.getvalue()
        if code == 0:
            assert _finite_table(out / "drops.csv", skip_columns=0)
            assert _finite_table(out / "summary.csv", skip_columns=1)
        elif code == 2:
            assert re.match(rf"error: {re.escape(str(scenario))}:\d+: ", err), err
        else:
            assert code == 1 and err.startswith("error: "), (code, err)
