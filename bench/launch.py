"""Run one command and report what it cost.

Usage:
    python3 bench/launch.py RESULT.json -- COMMAND [ARGS...]

Writes ``{"code", "wall_s", "cpu_s", "peak_rss_mb"}`` to RESULT.json: the
exit code, the wall time from start to exit, the user + system CPU of the
command and of every descendant it waited for, and the largest resident set
among them. The command inherits this process's standard streams.

The launcher is a separate, small process because Linux carries a process's
resident-set high-water mark across exec: a command started straight from the
benchmark, which holds numpy arrays, would report at least the benchmark's own
peak as its ``ru_maxrss``.
"""

import json
import os
import sys
import time


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        raise SystemExit("usage: launch.py RESULT.json -- COMMAND [ARGS...]")
    result_path, cmd = argv[0], argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    result = {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
