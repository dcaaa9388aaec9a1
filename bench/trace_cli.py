"""Run one corrdiv CLI command with spans recorded around each layer's calls.

Usage:
    python3 bench/trace_cli.py SPANS.json -- <corrdiv CLI arguments>

The corrdiv package is not changed: each traced function is replaced, for
the duration of this process, in the module namespace its caller looks it
up in (``corrdiv.montecarlo.factor``, ``corrdiv.kernels.gram_eta_stats``,
...). A span records its name, its parent span, start and end. Spans stay
in memory and are written to SPANS.json when the command returns. Pool
workers inherit the wrappers, but their spans stay in the worker and are
never collected.
"""

import functools
import json
import sys
import time

import corrdiv.cli as cli
import corrdiv.kernels as kernels
import corrdiv.montecarlo as montecarlo

# (module whose global the caller reads, function name, span name)
TRACED = [
    (cli, "cmd_run", "cli.cmd"),
    (cli, "cmd_compare", "cli.cmd"),
    (cli, "cmd_calibrate", "cli.cmd"),
    (cli, "load_scenario_file", "cli.parse"),
    (cli, "calibrate_attenuation_constant", "propagation.calibrate"),
    (cli, "run_scenario", "montecarlo.run_scenario"),
    (montecarlo, "run_scenario", "montecarlo.run_scenario"),
    (montecarlo, "run_drop", "montecarlo.run_drop"),
    (montecarlo, "sample_terminal_geometry", "propagation.sample"),
    (montecarlo, "sample_link_gain", "propagation.sample"),
    (montecarlo, "draw_truncated_spread", "propagation.sample"),
    (montecarlo, "build_exponential", "corrmodels.build"),
    (montecarlo, "build_clerckx", "corrmodels.build"),
    (montecarlo, "build_one_ring", "corrmodels.build"),
    (montecarlo, "factor", "corrmodels.factor"),
    (montecarlo, "average_correlation", "corrmodels.average"),
    (montecarlo, "draw_fading", "zfcore.draw_fading"),
    (montecarlo, "expected_zf_snr_closed_form", "zfcore.closed_form"),
    (montecarlo, "expected_sum_se_closed_form", "zfcore.closed_form"),
    (kernels, "gram_eta_stats", "kernels.gram"),
]


class Tracer:
    """In-memory span recorder: rows of [name, parent, start_ns, end_ns, extra]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, parent, time.perf_counter_ns(), None, None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._open.pop()
            span[4] = _extra(name, args, result)
            return result

        return traced

    def install(self):
        for module, attr, name in TRACED:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))


def _extra(name, args, result):
    """Counts taken where the work happens."""
    if name == "kernels.gram":
        return list(args[0].shape)  # n_trials, L, M
    if name == "montecarlo.run_drop":
        return result.rejected_trials
    return None


def main(argv):
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS.json -- <corrdiv arguments>")
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    with open(spans_path, "w") as handle:
        json.dump({"exit_code": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
