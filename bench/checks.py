"""Correctness checks on the files the corrdiv CLI writes.

Everything here uses numpy and PyYAML alone and never imports corrdiv, so a
fault in the package cannot hide in its own oracle. The checks rest on the
paper's closed forms and on properties the method must have; none compares
against a stored copy of an earlier output, and none depends on how the
program splits its random streams.

Each check returns ``(name, ok, detail)``; a workload runs the same list of
checks after every CLI invocation, so each check is one operation.
"""

import csv
import math
from pathlib import Path

import numpy as np
import yaml

# The CSV writer keeps 17 significant digits, so a closed form recomputed from
# those columns agrees with the program to rounding, far inside this bound.
CLOSED_FORM_TOL_DB = 1e-9
# Summary percentiles recomputed from drops.csv: same data, same rule.
SUMMARY_TOL_DB = 1e-9
# Trace identities on values printed with 17 significant digits.
TRACE_REL_TOL = 1e-9
# Oracle fading draws for the calibration check (see attenuation_p5).
P5_ORACLE_TRIALS = 4000
# Standard deviations of Monte Carlo error allowed in attenuation_p5.
P5_SIGMAS = 6.0


# ---------------------------------------------------------------- oracles


def exponential_trace_sq(m, xi):
    """Tr[R_exp^2] = M + 2 * sum_k (M - k) * xi^(2k), k = 1..M-1."""
    k = np.arange(1, m, dtype=np.float64)
    return float(m + 2.0 * np.sum((m - k) * xi ** (2.0 * k)))


def diversity_ceiling_db(m, l, xi):
    """Closed-form gain of Rbar = I over the exponential profile:
    10*log10((M^2 + L*Tr[R_exp^2]) / (M^2 + L*M))."""
    return 10.0 * math.log10((m**2 + l * exponential_trace_sq(m, xi)) / (m**2 + l * m))


def closed_form_snr_db(beta_db, m, l, trace_sq, rho_t_db, sigma2):
    """10*log10(rho_t * beta * M^3 / (sigma2 * (M^2 + L*Tr[Rbar^2])))."""
    beta = 10.0 ** (np.asarray(beta_db) / 10.0)
    rho_t = 10.0 ** (rho_t_db / 10.0)
    return 10.0 * np.log10(rho_t * beta * m**3 / (sigma2 * (m**2 + l * np.asarray(trace_sq))))


def exponential_inv_eta_db(m, l, xi, n_trials, rng):
    """Draws of 10*log10(L / Tr[(H H^H)^-1]) for rows h = w B^H, R = B B^H = R_exp.

    H H^H = W (B^H B) W^H and B^H B has the eigenvalues of R_exp on its
    diagonal for the eigen-factor, so only the spectrum of R_exp enters.
    """
    idx = np.arange(m)
    lam = np.linalg.eigvalsh(xi ** np.abs(idx[:, None] - idx[None, :]))
    z = rng.standard_normal((n_trials, l, 2 * m))
    w = np.sqrt(0.5) * (z[..., :m] + 1j * z[..., m:])
    gram = (w * lam) @ np.conj(np.transpose(w, (0, 2, 1)))
    ev = np.linalg.eigvalsh(gram)
    return 10.0 * np.log10(l / np.sum(1.0 / ev, axis=1))


# ------------------------------------------------------------- file access


def read_table(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _floats(values):
    return np.array([float(v) for v in values], dtype=np.float64)


def _result(name, ok, detail):
    return (name, bool(ok), detail)


def _guard(name, fn):
    """Run one check; a missing or malformed file fails that check only."""
    try:
        return fn()
    except (OSError, KeyError, ValueError, IndexError, TypeError, ZeroDivisionError,
            yaml.YAMLError) as exc:
        return _result(name, False, f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------- `corrdiv run`


def check_run(out_dir, scenario, sim_band_db, p5_oracle=None):
    """Checks on drops.csv, summary.csv and manifest.yaml of `corrdiv run`.

    ``scenario`` is the input document the benchmark wrote. ``sim_band_db``
    bounds sim - cf in dB: ``{"each": (lo, hi), "median": (lo, hi)}`` for
    every (drop, terminal) entry and for their median. ``p5_oracle`` is the
    array of oracle fading draws for a calibrated scenario, else None.
    """
    out_dir = Path(out_dir)
    m, l = scenario["m"], scenario["l"]
    rho_t_db = float(scenario.get("rho_t_db", 0.0))
    sigma2 = float(scenario.get("sigma2", 1.0))
    model = scenario["model"]
    n_drops = scenario["run"]["n_drops"]

    def load():
        t = read_table(out_dir / "drops.csv")
        return {k: _floats(v) for k, v in t.items()}

    def rows():
        t = load()
        s = read_table(out_dir / "summary.csv")
        summary = dict(zip(s["metric"], s["value"]))
        done, failed = int(summary["n_drops_completed"]), int(summary["n_drops_failed"])
        drops = np.unique(t["drop"])
        terminals = t["terminal"].reshape(-1, l) if t["drop"].size % l == 0 else None
        ok = (
            done + failed == n_drops
            and t["drop"].size == done * l
            and drops.size == done
            and terminals is not None
            and np.all(terminals == np.arange(l))
            and all(np.all(np.isfinite(col)) for col in t.values())
        )
        return _result("rows", ok, f"{t['drop'].size} rows, {done} + {failed} of {n_drops} drops")

    def closed_form():
        t = load()
        want = closed_form_snr_db(t["beta_db"], m, l, t["trace_sq"], rho_t_db, sigma2)
        err = float(np.max(np.abs(t["expected_snr_cf_db"] - want)))
        return _result("closed_form", err <= CLOSED_FORM_TOL_DB, f"max |cf - oracle| {err:.3e} dB")

    def sim_band():
        t = load()
        gap = t["expected_snr_sim_db"] - t["expected_snr_cf_db"]
        (lo, hi), (mlo, mhi) = sim_band_db["each"], sim_band_db["median"]
        median = float(np.median(gap))
        ok = bool(np.all((gap >= lo) & (gap <= hi))) and mlo <= median <= mhi
        return _result(
            "sim_band",
            ok,
            f"sim - cf in [{gap.min():.3f}, {gap.max():.3f}] dB (band [{lo}, {hi}]), "
            f"median {median:.3f} dB (band [{mlo}, {mhi}])",
        )

    def trace_sq():
        t = load()
        tr = t["trace_sq"]
        ok = bool(np.all(tr >= m * (1 - TRACE_REL_TOL)) and np.all(tr <= m * m * (1 + TRACE_REL_TOL)))
        detail = f"trace_sq in [{tr.min():.6g}, {tr.max():.6g}], M={m}"
        if model["type"] in ("exponential", "clerckx"):
            series = exponential_trace_sq(m, float(model["xi"]))
            # averaging equal-magnitude profiles cannot raise Tr[Rbar^2]
            # above the common profile's; identical profiles reach it
            ok = ok and bool(np.all(tr <= series * (1 + TRACE_REL_TOL)))
            if model["type"] == "exponential":
                ok = ok and bool(np.all(np.abs(tr - series) <= TRACE_REL_TOL * series))
            detail += f", series {series:.12g}"
        return _result("trace_sq", ok, detail)

    def summary():
        t = load()
        s = read_table(out_dir / "summary.csv")
        got = dict(zip(s["metric"], s["value"]))
        sim = t["expected_snr_sim_db"]
        want = {
            "expected_snr_db_mean": float(np.mean(sim)),
            "expected_snr_db_median": float(np.percentile(sim, 50.0)),
            "expected_snr_db_p5": float(np.percentile(sim, 5.0)),
            "expected_snr_db_p95": float(np.percentile(sim, 95.0)),
        }
        err = max(abs(float(got[k]) - v) for k, v in want.items())
        return _result("summary", err <= SUMMARY_TOL_DB, f"max |summary - recomputed| {err:.3e} dB")

    def manifest():
        doc = yaml.safe_load((out_dir / "manifest.yaml").read_text())
        a = float(doc["geometry"]["attenuation_constant"])
        ok = (
            doc["m"] == m
            and doc["l"] == l
            and doc["run"] == scenario["run"]
            and doc["model"]["type"] == model["type"]
            and math.isfinite(a)
            and a > 0
        )
        fixed = scenario["geometry"].get("attenuation_constant")
        if fixed is not None:
            ok = ok and a == float(fixed)
        return _result("manifest", ok, f"attenuation_constant {a!r}")

    checks = [rows, closed_form, sim_band, trace_sq, summary, manifest]
    results = [_guard(fn.__name__, fn) for fn in checks]
    if p5_oracle is not None:
        results.append(_guard("attenuation_p5", lambda: attenuation_p5(load(), scenario, p5_oracle)))
    return results


def attenuation_p5(table, scenario, inv_eta_db):
    """The resolved attenuation constant puts the 5th percentile of the
    reference configuration's instantaneous ZF SNR at 0 dB.

    Calibration runs the reference configuration (M=64, L=6, exponential
    xi=0.9, rho_t=0 dB) on this scenario's seed, geometry and run sizes, so
    its link gains at the resolved constant are the ``beta_db`` column of
    drops.csv. Its instantaneous SNR is beta * inv_eta / sigma2, with inv_eta
    drawn by the oracle. The share of samples below 0 dB must then be 5%, up
    to the Monte Carlo error of the program's n_fading draws per drop and of
    the oracle's own draws, both computed here from the per-terminal shares.
    """
    sigma2 = float(scenario.get("sigma2", 1.0))
    n_fading = scenario["run"]["n_fading"]
    l = scenario["l"]
    beta_db = table["beta_db"].reshape(-1, l) - 10.0 * math.log10(sigma2)
    x = np.sort(inv_eta_db)
    # per (drop, terminal): probability that beta + inv_eta < 0 dB
    g = np.searchsorted(x, -beta_db, side="left") / x.size
    share = float(np.mean(g))
    n_terms = beta_db.size
    spread = np.sqrt(g * (1.0 - g))
    # terminals of one drop share the program's fading draws, and every
    # terminal shares the oracle's, so those errors add rather than average
    var_program = float(np.sum(np.sum(spread, axis=1) ** 2)) / n_fading / n_terms**2
    var_oracle = float(np.sum(spread)) ** 2 / x.size / n_terms**2
    tol = P5_SIGMAS * math.sqrt(var_program + var_oracle) + 1.0 / (n_terms * n_fading)
    ok = abs(share - 0.05) <= tol
    return _result("attenuation_p5", ok, f"share below 0 dB {share:.5f}, want 0.05 +- {tol:.5f}")


# ----------------------------------------------------- `corrdiv compare`


def check_compare(out_dir, scenarios):
    """Checks on cdf.csv and gains.csv of `corrdiv compare`.

    ``scenarios`` maps each label (the input file's stem) to its document.
    """
    out_dir = Path(out_dir)
    labels = list(scenarios)
    first = scenarios[labels[0]]
    m, l, n_drops = first["m"], first["l"], first["run"]["n_drops"]

    def load_cdf():
        t = read_table(out_dir / "cdf.csv")
        names = np.array(t["scenario"])
        values, probs = _floats(t["expected_snr_db"]), _floats(t["cdf_prob"])
        return {k: (values[names == k], probs[names == k]) for k in np.unique(names)}

    def cdf():
        per = load_cdf()
        n = n_drops * l
        ok = sorted(per) == sorted(labels)
        for values, probs in per.values():
            ok = (
                ok
                and values.size == n
                and bool(np.all(np.isfinite(values)))
                and bool(np.all(np.diff(values) >= 0))
                and bool(np.all(np.abs(probs - np.arange(1, n + 1) / n) <= 1e-15))
            )
        return _result("cdf", ok, f"{len(per)} scenarios, want {len(labels)} x {n} sorted samples at i/n")

    def gains_table():
        per = load_cdf()
        g = read_table(out_dir / "gains.csv")
        pairs = list(zip(g["baseline"], g["alternative"]))
        want_pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
        delta = _floats(g["delta_median_db"])
        recomputed = np.array(
            [np.percentile(per[b][0], 50.0) - np.percentile(per[a][0], 50.0) for a, b in pairs]
        )
        err = float(np.max(np.abs(delta - recomputed)))
        ok = pairs == want_pairs and err <= SUMMARY_TOL_DB
        return _result("gains_table", ok, f"{len(pairs)} pairs, max |delta_median - recomputed| {err:.3e} dB")

    def clerckx_gains():
        g = read_table(out_dir / "gains.csv")
        gain = {(a, b): float(v) for a, b, v in zip(g["baseline"], g["alternative"], g["median_gain_db"])}
        xi = float(scenarios["exponential"]["model"]["xi"])
        ceiling = diversity_ceiling_db(m, l, xi)
        series = [gain[("exponential", f"clerckx_delta{d}")] for d in (14, 28, 38)]
        ok = 0.0 < series[0] < series[1] < series[2] < ceiling
        text = "/".join(f"{v:.3f}" for v in series)
        return _result("clerckx_gains", ok, f"gains {text} dB over exponential, ceiling {ceiling:.3f} dB")

    checks = [cdf, gains_table, clerckx_gains]
    return [_guard(fn.__name__, fn) for fn in checks]
