"""End-to-end benchmark of the corrdiv command line.

Usage:
    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve against the checkout that holds this file.
Each workload writes scenario files generated from ``scenarios/`` with the
benchmark's seed and run sizes, then runs the ``corrdiv`` CLI on them as a
user would (``python3 -m corrdiv.cli`` with ``src`` on PYTHONPATH), again
and again for ``--seconds`` seconds, and checks every output with
``checks.py``. BLAS threading is left at the machine's default.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of fresh
interpreters importing ``corrdiv.cli`` and parsing the inputs), and
``wall_s``, ``cpu_s`` (user + system of the CLI process tree) and
``peak_rss_mb`` (largest resident set in the tree), each the mean over the
invocations without the lowest and the highest (see ``central``).
``--trace 1`` alternates untraced invocations with traced ones
(``trace_cli.py``) and reports the per-layer split and the tracing overhead.
Without ``--workload`` every workload runs, untraced and then traced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
CLI invocation or one check of its output.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / "results" / "bench"
DEFAULT_SEED = 20190417
SETUP_REPS = 5
# the reference configuration calibration solves on (see corrdiv.propagation)
REFERENCE = {"m": 64, "l": 6, "xi": 0.9}

# Why these three: see README.md. Sizes keep one invocation at a few seconds
# on two cores so a run repeats it several times and reports their mean.
WORKLOADS = {
    "compare-paper": {
        "command": "compare",
        "workers": 1,
        "sources": [
            "exponential",
            "clerckx_delta14",
            "clerckx_delta28",
            "clerckx_delta38",
            "one_ring_fixed",
            "one_ring_measured",
        ],
        "run": {"n_drops": 8, "n_fading": 500},
    },
    "run-workers2": {
        "command": "run",
        "workers": 2,
        "sources": ["clerckx_delta38"],
        # Two workers, each with the default BLAS thread pool, oversubscribe
        # two cores, and whole invocations fall into a fast and a slow
        # cluster: 1.0-1.3 s or 1.5-2.1 s wall, 1.7-2.2 s or 2.4-3.6 s CPU.
        # A run's median flips between them, hence ``central``. Larger runs
        # split the same way with the clusters further apart.
        "run": {"n_drops": 4, "n_fading": 500},
        # the closed form overestimates exponential-magnitude profiles at
        # M=64, L=6: sim - cf was -0.69 to -0.33 dB over 600 drops
        "sim_band_db": {"each": (-1.2, -0.1), "median": (-1.0, -0.2)},
    },
    "large-array": {
        "command": "run",
        "workers": 1,
        "sources": ["one_ring_measured"],
        "set": {"m": 256, "l": 16},
        "attenuation_constant": 500.0,
        "run": {"n_drops": 6, "n_fading": 500},
        # one-ring at L/M = 1/16: sim - cf was -4.15 to +0.012 dB over 450
        # drops, with a heavy lower tail when small drawn spreads meet close
        # DOAs, and the median of 6 drops -0.29 to -0.03 dB over 50 seeds
        "sim_band_db": {"each": (-math.inf, 0.25), "median": (-1.0, 0.05)},
    },
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

SETUP_PROBE = (
    "import sys\n"
    "import corrdiv.cli\n"
    "for path in sys.argv[1:]:\n"
    "    corrdiv.cli.load_scenario_file(path)\n"
    "print(corrdiv.cli.__file__)\n"
)


def central(values):
    """Mean of the values without the lowest and the highest one.

    Invocations of ``run-workers2`` fall into two clusters, so a median
    jumps between them with the share each got in a run; a mean moves with
    that share by 1/n. Dropping the two extremes keeps one stalled or
    lucky invocation from moving a short run.
    """
    values = sorted(values)
    return statistics.mean(values[1:-1] if len(values) >= 3 else values)


class BenchError(Exception):
    """The benchmark cannot run in this checkout; no result is printed."""


# ------------------------------------------------------------------ inputs


def make_inputs(name, seed, in_dir):
    """Write the workload's scenario files; return {label: (path, document)}."""
    spec = WORKLOADS[name]
    in_dir.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for source in spec["sources"]:
        doc = yaml.safe_load((SCENARIOS / f"{source}.yaml").read_text())
        doc.update(spec.get("set", {}))
        doc["run"] = dict(spec["run"], seed=seed)
        if "attenuation_constant" in spec:
            doc["geometry"].pop("calibrate", None)
            doc["geometry"]["attenuation_constant"] = spec["attenuation_constant"]
        path = in_dir / f"{source}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        inputs[source] = (path, doc)
    return inputs


def cli_args(name, inputs, out_dir):
    spec = WORKLOADS[name]
    args = [spec["command"], "--workers", str(spec["workers"]), "--out", str(out_dir)]
    for path, _ in inputs.values():
        args += ["--scenario", str(path)]
    return args


def p5_oracle(name, inputs, seed):
    """Oracle fading draws for a workload whose scenario calibrates, else None."""
    if WORKLOADS[name]["command"] != "run":
        return None
    (_, doc), = inputs.values()
    if not doc["geometry"].get("calibrate"):
        return None
    rng = np.random.default_rng([seed, 5])
    return checks.exponential_inv_eta_db(
        REFERENCE["m"], REFERENCE["l"], REFERENCE["xi"], checks.P5_ORACLE_TRIALS, rng
    )


def check_outputs(name, inputs, out_dir, oracle):
    if WORKLOADS[name]["command"] == "compare":
        return checks.check_compare(out_dir, {k: doc for k, (_, doc) in inputs.items()})
    (_, doc), = inputs.values()
    return checks.check_run(out_dir, doc, WORKLOADS[name]["sim_band_db"], oracle)


# --------------------------------------------------------------- processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(cmd, log_path):
    """Run one command to its end through launch.py; return its exit code,
    wall time, and the CPU time and peak RSS of its process tree."""
    result_path = log_path.with_suffix(".cost.json")
    result_path.unlink(missing_ok=True)
    launcher = [sys.executable, str(BENCH / "launch.py"), str(result_path), "--"]
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            launcher + cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the command and its workers too
            proc.wait()
            raise
    if code != 0:
        raise BenchError(f"launcher failed with exit code {code}: {log_path.read_text()[-500:]}")
    return json.loads(result_path.read_text())


def measure_setup(inputs, work):
    times = []
    for rep in range(SETUP_REPS):
        log = work / f"setup-{rep}.log"
        sample = invoke([sys.executable, "-c", SETUP_PROBE] + [str(p) for p, _ in inputs.values()], log)
        text = log.read_text().strip()
        if sample["code"] != 0 or not text.endswith(str(SRC / "corrdiv" / "cli.py")):
            raise BenchError(f"cannot import corrdiv.cli from {SRC}: {text[-500:]}")
        times.append(sample["wall_s"])
    return statistics.median(times)


# ----------------------------------------------------------------- tracing


def layer_metrics(spans):
    """Per-layer totals from one traced invocation's spans (times in ms)."""
    dur = [(s[3] - s[2]) / 1e6 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def self_ms(name):
        return sum(d - c for s, d, c in zip(spans, dur, child) if s[0] == name)

    drops = [d for s, d in zip(spans, dur) if s[0] == "montecarlo.run_drop"]
    rejected = sum(s[4] for s in spans if s[0] == "montecarlo.run_drop")
    gram = [s[4] for s in spans if s[0] == "kernels.gram"]
    trials = sum(n for n, _, _ in gram)
    # computed from shapes, not counted by hardware: per trial, L rows of
    # w @ B^H, the L x L Gram product, and a Hermitian eigensolve
    flop = sum(n * (8 * l * m * m + 8 * l * l * m + 16 * l**3 / 3) for n, l, m in gram)
    # w and B^H read, H and the Gram matrix written and read back, output
    moved = sum(16 * (n * l * m + l * m * m + 2 * n * l * m + 2 * n * l * l) + 24 * n for n, l, m in gram)
    gram_ms = total("kernels.gram")
    n_drops = len(drops)
    return {
        "cli.parse_ms": (total("cli.parse"), "ms"),
        "cli.self_ms": (self_ms("cli.cmd"), "ms"),
        "propagation.calibrate_ms": (total("propagation.calibrate"), "ms"),
        "propagation.calibrate_calls": (calls("propagation.calibrate"), "count"),
        "propagation.sample_ms": (total("propagation.sample"), "ms"),
        "montecarlo.run_scenario_ms": (total("montecarlo.run_scenario"), "ms"),
        "montecarlo.drops": (n_drops, "count"),
        "montecarlo.drop_ms_p50": (float(np.percentile(drops, 50)) if drops else 0.0, "ms"),
        "montecarlo.drop_ms_p90": (float(np.percentile(drops, 90)) if drops else 0.0, "ms"),
        "montecarlo.self_ms": (self_ms("montecarlo.run_drop"), "ms"),
        "montecarlo.rejected_trials": (rejected, "count"),
        "montecarlo.useful_trial_share": ((trials - rejected) / trials if trials else 0.0, "ratio"),
        "corrmodels.build_ms": (total("corrmodels.build"), "ms"),
        "corrmodels.build_calls": (calls("corrmodels.build"), "count"),
        "corrmodels.factor_ms": (total("corrmodels.factor"), "ms"),
        "corrmodels.factor_calls": (calls("corrmodels.factor"), "count"),
        "corrmodels.average_ms": (total("corrmodels.average"), "ms"),
        "zfcore.draw_fading_ms": (total("zfcore.draw_fading"), "ms"),
        "zfcore.draw_fading_calls": (calls("zfcore.draw_fading"), "count"),
        "zfcore.draw_fading_per_drop": (calls("zfcore.draw_fading") / n_drops if n_drops else 0.0, "count"),
        "zfcore.closed_form_ms": (total("zfcore.closed_form"), "ms"),
        "kernels.gram_ms": (gram_ms, "ms"),
        "kernels.gram_calls": (len(gram), "count"),
        "kernels.trials": (trials, "count"),
        "kernels.gflop": (flop / 1e9, "GFLOP"),
        "kernels.mb_moved": (moved / 1e6, "MB"),
        "kernels.gflop_per_s": (flop / 1e6 / gram_ms if gram_ms else 0.0, "GFLOP/s"),
    }


# -------------------------------------------------------------------- runs


def run_workload(name, seed, seconds, trace):
    """One run of a workload; returns the result object."""
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(name, seed, work / "inputs")
        oracle = p5_oracle(name, inputs, seed)
        setup_s = None if trace else measure_setup(inputs, work)
        out_dir = work / "out"
        plain = [sys.executable, "-m", "corrdiv.cli"] + cli_args(name, inputs, out_dir)
        spans_path = work / "spans.json"
        traced = [sys.executable, str(BENCH / "trace_cli.py"), str(spans_path), "--"]
        traced += cli_args(name, inputs, out_dir)

        samples, traced_walls, layers = [], [], []
        attempted = failed = 0

        def attempt(cmd):
            nonlocal attempted, failed
            shutil.rmtree(out_dir, ignore_errors=True)
            sample = invoke(cmd, work / "cli.log")
            exited = ("exit_code", sample["code"] == 0, (work / "cli.log").read_text()[-500:])
            results = [exited] + check_outputs(name, inputs, out_dir, oracle)
            attempted += len(results)
            failed += sum(not ok for _, ok, _ in results)
            for check, ok, detail in results:
                if not ok:
                    print(f"[{name}] FAIL {check}: {detail}", file=sys.stderr)
            return sample

        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            samples.append(attempt(plain))
            if trace:
                sample = attempt(traced)
                traced_walls.append(sample["wall_s"])
                if sample["code"] == 0:
                    layers.append(layer_metrics(json.loads(spans_path.read_text())["spans"]))

        metrics = {}
        if trace:
            for key in layers[0] if layers else []:
                values = [m[key][0] for m in layers]
                metrics[key] = {"value": statistics.median(values), "unit": layers[0][key][1]}
            overhead = central(traced_walls) - central(s["wall_s"] for s in samples)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        else:
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            for key, unit in END_TO_END[1:]:
                metrics[key] = {"value": central(s[key] for s in samples), "unit": unit}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_result(name, result, suffix=""):
    for key, metric in result["metrics"].items():
        print(f"{name:14s} {key:30s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{name:14s} operations attempted {result['attempted']}, failed {result['failed']}{suffix}")


def preflight():
    sources = sorted({s for spec in WORKLOADS.values() for s in spec["sources"]})
    needed = [SRC / "corrdiv" / "cli.py"] + [SCENARIOS / f"{s}.yaml" for s in sources]
    missing = [p for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not a corrdiv checkout, missing: " + ", ".join(str(p) for p in missing))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the commands it started (see invoke)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    try:
        preflight()
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print_result(args.workload, result)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for trace in (0, 1):
            for name in WORKLOADS:
                result = run_workload(name, args.seed, args.seconds, trace)
                print_result(name, result, " (traced)" if trace else "")
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for key, metric in result["metrics"].items():
                    combined["metrics"][f"{name}:{key}"] = metric
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
