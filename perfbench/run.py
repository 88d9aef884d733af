#!/usr/bin/env python3
"""Builds the isop CLI and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload optimize-cnn --seed 1 --seconds 25 --trace 0

Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); each run gets a private scratch directory under
.bench_scratch that is removed when the run ends. The last line of stdout
is the benchmark's JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

# The timed part of one run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build(root, env, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    # Cargo reports progress on stderr; keep stdout for the result line.
    return subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode == 0


def main():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)

    if not build(root, env, ["-p", "isop", "--bin", "isop"]):
        print("perfbench: building the isop CLI failed", file=sys.stderr)
        return 1
    if not build(root, env, ["--manifest-path", str(root / "perfbench" / "Cargo.toml")]):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1

    scratch = root / ".bench_scratch" / f"run-{os.getpid()}-{time.time_ns()}"
    cmd = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--isop",
        str(target / "release" / "isop"),
        "--scratch",
        str(scratch),
    ]
    # Its own process group, so a timeout also stops any daemon it spawned.
    bench = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
