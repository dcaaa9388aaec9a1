"""Time the Gram-statistics kernel on one batch of fading trials.

Usage:
    python benchmarks/bench_kernels.py [--m 64] [--l 6] [--trials 500] [--reps 5]

A warmup call is excluded from the timing loop; the fastest repetition is
reported, after the number and size of the kernel chunks it runs.
"""

import argparse
import time

import numpy as np

from corrdiv import kernels
from corrdiv.corrmodels import build_exponential, factor
from corrdiv.zfcore import draw_fading


def make_batch(m, l, trials, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    w = draw_fading([rng] * l, [m] * l, trials)
    bh_single = factor(build_exponential(m, 0.9))
    bh = np.ascontiguousarray(np.broadcast_to(bh_single, (l, m, m)))
    return w, bh


def time_kernel(w, bh, reps):
    kernels.gram_eta_stats(w[:2], bh)  # warmup
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernels.gram_eta_stats(w, bh)
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=64, help="antenna count")
    parser.add_argument("--l", type=int, default=6, help="terminal count")
    parser.add_argument("--trials", type=int, default=500, help="fading trials per batch")
    parser.add_argument("--reps", type=int, default=5, help="timing repetitions (min is reported)")
    args = parser.parse_args()

    w, bh = make_batch(args.m, args.l, args.trials)
    step = kernels.chunk_step(args.l, args.m)
    print(f"batch: {args.trials} trials, L={args.l} terminals, M={args.m} antennas")
    print(f"chunks: {-(-args.trials // step)} of up to {step} trials")
    best = time_kernel(w, bh, args.reps)
    per_trial_us = 1e6 * best / args.trials
    print(f"{best * 1e3:8.2f} ms per batch  ({per_trial_us:7.2f} us per trial)")


if __name__ == "__main__":
    main()
