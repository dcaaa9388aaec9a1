"""Time the Gram-statistics kernel on one batch of fading trials.

Usage:
    python benchmarks/bench_kernels.py [--m 64] [--l 6] [--trials 500] [--reps 5]

The batch has the pass's layout: every terminal reads the exponential
profile's cached read-only factor through a broadcast view, and the fading
is a strided view of per-terminal draws. The kernel runs on one BLAS thread,
as a pass does. A warmup call is excluded from the timing loop; the median
repetition is reported, after the BLAS thread count and the number and size
of the kernel chunks it runs, and then the peak memory one call allocates
(``tracemalloc``, which numpy reports its arrays to), traced apart from the
timed calls.
"""

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from corrdiv import kernels, montecarlo
from corrdiv.zfcore import draw_fading


def make_batch(m, l, trials, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    w = draw_fading([rng] * l, [m] * l, trials)
    _, bh_single = montecarlo._exponential_profile(m, 0.9)
    bh = np.broadcast_to(bh_single, (l,) + bh_single.shape)
    return w, bh


def time_kernel(w, bh, reps):
    kernels.gram_eta_stats(w[:2], bh)  # warmup
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernels.gram_eta_stats(w, bh)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_peak(w, bh):
    """Peak bytes one kernel call allocates over what it was given."""
    tracemalloc.start()
    try:
        kernels.gram_eta_stats(w, bh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=64, help="antenna count")
    parser.add_argument("--l", type=int, default=6, help="terminal count")
    parser.add_argument("--trials", type=int, default=500, help="fading trials per batch")
    parser.add_argument(
        "--reps", type=int, default=5, help="timing repetitions (the median is reported)"
    )
    args = parser.parse_args()

    w, bh = make_batch(args.m, args.l, args.trials)
    step = kernels.chunk_step(args.l, args.m)
    capped = montecarlo._set_blas_threads(1) is not None
    print(f"batch: {args.trials} trials, L={args.l} terminals, M={args.m} antennas")
    print(f"BLAS threads: {1 if capped else 'left as they are (not the bundled OpenBLAS)'}")
    print(f"chunks: {-(-args.trials // step)} of up to {step} trials")
    median = time_kernel(w, bh, args.reps)
    per_trial_us = 1e6 * median / args.trials
    print(f"{median * 1e3:8.2f} ms per batch  ({per_trial_us:7.2f} us per trial)")
    print(f"{traced_peak(w, bh) / 2**20:8.2f} MB traced peak allocation per batch")


if __name__ == "__main__":
    main()
