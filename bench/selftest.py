"""Self-test of the benchmark's correctness checks.

Usage:
    python3 bench/selftest.py

1. Every workload's checks pass on the default seed and on three others.
2. Each check fails on an output edited to break what it guards: a
   perturbed closed form, a simulated SNR outside its band, a trace above
   the exponential series, a wrong 5th percentile, a negative or
   non-monotone Clerckx gain, an unsorted CDF, and so on.
3. `run-workers2` writes the same summary.csv as a `--workers 1` run of the
   same inputs.
4. A `corrdiv run` of the exponential scenario reports Tr[Rbar^2] equal to
   the series M + 2 * sum_k (M - k) * xi^(2k).

Exits 0 when every step holds, 1 otherwise.
"""

import csv
import math
import shutil
import sys

import yaml

import checks
import run

SEEDS = [run.DEFAULT_SEED, 7, 1009, 424242]
WORK = run.WORK / "selftest"
FAILURES = []


def expect(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(label)


def cli(name, seed, out_dir, workers=None):
    """One CLI invocation of a workload; returns (inputs, out_dir)."""
    work = out_dir.parent
    inputs = run.make_inputs(name, seed, work / "inputs")
    args = run.cli_args(name, inputs, out_dir)
    if workers is not None:
        args[args.index("--workers") + 1] = str(workers)
    sample = run.invoke([sys.executable, "-m", "corrdiv.cli"] + args, work / f"{out_dir.name}.log")
    if sample["code"] != 0:
        raise SystemExit(f"corrdiv {' '.join(args)} exited {sample['code']}")
    return inputs, out_dir


def failing(results):
    return sorted(name for name, ok, _ in results if not ok)


# ---------------------------------------------------------- edits of files


def edit_table(path, fn):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    body = fn(header, body)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([header] + body)


def shift_column(column, delta, where=lambda i: True):
    def fn(header, body):
        j = header.index(column)
        for i, row in enumerate(body):
            if where(i):
                row[j] = repr(float(row[j]) + delta)
        return body

    return fn


def set_cell(key_column, key, column, value):
    def fn(header, body):
        k, j = header.index(key_column), header.index(column)
        for row in body:
            if row[k] == key:
                row[j] = value
        return body

    return fn


def set_gain(alternative, value):
    def fn(header, body):
        b, a, j = header.index("baseline"), header.index("alternative"), header.index("median_gain_db")
        for row in body:
            if row[b] == "exponential" and row[a] == alternative:
                row[j] = repr(value)
        return body

    return fn


def double_attenuation(out):
    """Outputs of a run whose attenuation constant is twice the resolved one:
    internally consistent, so only the calibration check can object."""
    db = 10.0 * math.log10(2.0)
    for column in ("beta_db", "expected_snr_sim_db", "expected_snr_cf_db"):
        edit_table(out / "drops.csv", shift_column(column, db))

    def summary(header, body):
        for row in body:
            if row[0].startswith("expected_snr_db_"):
                row[1] = repr(float(row[1]) + db)
        return body

    edit_table(out / "summary.csv", summary)
    doc = yaml.safe_load((out / "manifest.yaml").read_text())
    doc["geometry"]["attenuation_constant"] *= 2.0
    (out / "manifest.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))


def mutate(label, name, inputs, out, edit, target, oracle=None):
    """Copy the outputs, apply one edit, and require the target check to fail."""
    copy = out.parent / f"mutant-{label.replace(' ', '-')}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    edit(copy)
    results = run.check_outputs(name, inputs, copy, oracle)
    failed = failing(results)
    expect(f"{name}: {label} fails {target}", target in failed, f"failing checks {failed}")


# --------------------------------------------------------------------- main


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        run.preflight()
        kept = {}
        for name in run.WORKLOADS:
            for seed in SEEDS:
                inputs, out = cli(name, seed, WORK / f"{name}-{seed}" / "out")
                oracle = run.p5_oracle(name, inputs, seed)
                results = run.check_outputs(name, inputs, out, oracle)
                detail = "; ".join(f"{n}: {d}" for n, ok, d in results if not ok or n in ("sim_band", "attenuation_p5", "clerckx_gains"))
                expect(f"{name} seed {seed}: {len(results)} checks pass", not failing(results), detail)
                if seed == run.DEFAULT_SEED:
                    kept[name] = (inputs, out, oracle)

        name = "run-workers2"
        inputs, out, oracle = kept[name]
        drops = "drops.csv"
        mutate("cf + 1e-6 dB", name, inputs, out,
               lambda d: edit_table(d / drops, shift_column("expected_snr_cf_db", 1e-6, lambda i: i == 3)),
               "closed_form", oracle)
        mutate("sim above band", name, inputs, out,
               lambda d: edit_table(d / drops, shift_column("expected_snr_sim_db", 1.0, lambda i: i < 6)),
               "sim_band", oracle)
        mutate("trace_sq above series", name, inputs, out,
               lambda d: edit_table(d / drops, set_cell("drop", "0", "trace_sq", repr(
                   checks.exponential_trace_sq(64, 0.9) * 1.001))),
               "trace_sq", oracle)
        mutate("trace_sq below M", name, inputs, out,
               lambda d: edit_table(d / drops, set_cell("drop", "0", "trace_sq", "63.0")),
               "trace_sq", oracle)
        mutate("wrong 5th percentile", name, inputs, out, double_attenuation, "attenuation_p5", oracle)
        mutate("summary median", name, inputs, out,
               lambda d: edit_table(d / "summary.csv", set_cell("metric", "expected_snr_db_median", "value", "0.0")),
               "summary", oracle)
        mutate("missing row", name, inputs, out,
               lambda d: edit_table(d / drops, lambda h, body: body[:-1]),
               "rows", oracle)
        mutate("manifest seed", name, inputs, out,
               lambda d: (d / "manifest.yaml").write_text(
                   (d / "manifest.yaml").read_text().replace(f"seed: {run.DEFAULT_SEED}", "seed: 1")),
               "manifest", oracle)

        name = "compare-paper"
        inputs, out, oracle = kept[name]
        mutate("negative clerckx gain", name, inputs, out,
               lambda d: edit_table(d / "gains.csv", set_gain("clerckx_delta14", -0.05)), "clerckx_gains")
        mutate("non-monotone clerckx gain", name, inputs, out,
               lambda d: edit_table(d / "gains.csv", set_gain("clerckx_delta38", 0.3)), "clerckx_gains")
        mutate("clerckx gain above ceiling", name, inputs, out,
               lambda d: edit_table(d / "gains.csv", set_gain("clerckx_delta38", 2.3)), "clerckx_gains")
        mutate("unsorted cdf", name, inputs, out,
               lambda d: edit_table(d / "cdf.csv", lambda h, body: [body[1], body[0]] + body[2:]), "cdf")
        mutate("cdf probability", name, inputs, out,
               lambda d: edit_table(d / "cdf.csv", shift_column("cdf_prob", 1e-9, lambda i: i == 5)), "cdf")
        mutate("delta_median", name, inputs, out,
               lambda d: edit_table(d / "gains.csv", shift_column("delta_median_db", 1e-6, lambda i: i == 0)),
               "gains_table")

        name = "large-array"
        inputs, out, oracle = kept[name]
        mutate("sim above closed form", name, inputs, out,
               lambda d: edit_table(d / drops, shift_column("expected_snr_sim_db", 0.5, lambda i: i < 16)),
               "sim_band")
        mutate("sim median below band", name, inputs, out,
               lambda d: edit_table(d / drops, shift_column("expected_snr_sim_db", -1.5)),
               "sim_band")
        mutate("manifest attenuation", name, inputs, out,
               lambda d: (d / "manifest.yaml").write_text(
                   (d / "manifest.yaml").read_text().replace("attenuation_constant: 500.0", "attenuation_constant: 501.0")),
               "manifest")

        # the pool must not change a number
        name = "run-workers2"
        serial_inputs, serial_out = cli(name, run.DEFAULT_SEED, WORK / "serial" / "out", workers=1)
        same = (serial_out / "summary.csv").read_bytes() == (kept[name][1] / "summary.csv").read_bytes()
        expect("run-workers2 summary.csv equals a --workers 1 run", same)

        # identical exponential profiles: Tr[Rbar^2] is the series itself
        doc = yaml.safe_load((run.SCENARIOS / "exponential.yaml").read_text())
        doc["run"] = {"n_drops": 4, "n_fading": 200, "seed": run.DEFAULT_SEED}
        path = WORK / "exponential.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        out = WORK / "exponential"
        args = ["run", "--workers", "1", "--out", str(out), "--scenario", str(path)]
        run.invoke([sys.executable, "-m", "corrdiv.cli"] + args, WORK / "exponential.log")
        results = checks.check_run(out, doc, run.WORKLOADS["run-workers2"]["sim_band_db"])
        trace = [d for n, ok, d in results if n == "trace_sq"]
        expect("exponential trace_sq equals the series", not failing(results), trace[0] if trace else "")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"{len(FAILURES)} failures" if FAILURES else "all self-test steps hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
