"""Byte-identity check of the corrdiv CLI between two source trees.

Usage:
    python tests/byte_identity.py PARENT_SRC CHANGE_SRC

Each argument is a checkout or its ``src`` directory. The script runs 18
invocations against each tree: ``run`` of every file in ``scenarios/`` at
``--seed 5``, ``compare`` of the six paper scenarios and ``calibrate`` of
``baseline_calibrate.yaml``, each at ``--workers`` 1 and 2, full size. Every
invocation writes into its own temporary directory. Exit codes, stdout,
stderr and every written file must match byte for byte, and every
invocation must exit 0; the script prints one line per invocation and exits
1 on any difference.

It uses the standard library only and is not collected by pytest.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PAPER = [
    "exponential",
    "clerckx_delta14",
    "clerckx_delta28",
    "clerckx_delta38",
    "one_ring_fixed",
    "one_ring_measured",
]


def invocations():
    """(label, CLI arguments) of every invocation, outputs going to ``out``."""
    commands = [
        (f"run {path.stem}", ["run", "--scenario", str(path), "--seed", "5"])
        for path in sorted(SCENARIOS.glob("*.yaml"))
    ]
    compare = ["compare"]
    for name in PAPER:
        compare += ["--scenario", str(SCENARIOS / f"{name}.yaml")]
    commands.append(("compare paper", compare))
    baseline = SCENARIOS / "baseline_calibrate.yaml"
    commands.append(("calibrate baseline", ["calibrate", "--scenario", str(baseline)]))
    return [
        (f"{label} --workers {w}", args + ["--out", "out", "--workers", str(w)])
        for label, args in commands
        for w in (1, 2)
    ]


def source_dir(arg) -> Path:
    path = Path(arg).resolve()
    for candidate in (path, path / "src"):
        if (candidate / "corrdiv" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"no corrdiv package in {path} or {path / 'src'}")


def outcome(src: Path, args) -> dict:
    """Exit code, stdout, stderr and written files of one invocation, run in
    a fresh directory so the printed output paths agree between trees."""
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "corrdiv.cli", *args],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
        )
        out = Path(cwd) / "out"
        files = {
            str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files}


def differences(a: dict, b: dict) -> list:
    found = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            found.append(name)
    return found


def main(argv) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = (source_dir(arg) for arg in argv)
    runs, failed = invocations(), 0
    for label, args in runs:
        a, b = outcome(parent, args), outcome(change, args)
        diff = differences(a, b)
        if diff or a["exit"] or b["exit"]:
            failed += 1
            detail = f"differ in {', '.join(diff)}" if diff else "match"
            print(f"FAIL {label}: exit {a['exit']} / {b['exit']}, {detail}")
            sys.stdout.write(b["stderr"].decode(errors="replace")[-2000:])
        else:
            print(f"ok   {label}: exit 0; {len(a['files'])} files, stdout and stderr match")
        sys.stdout.flush()
    print(f"{len(runs) - failed} of {len(runs)} invocations exit 0 and match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
