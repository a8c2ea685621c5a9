#!/usr/bin/env python3
"""Build the host-time benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload box_meta --seed 1 --seconds 10 --trace 0

The build goes to the directory named by CARGO_TARGET_DIR, or to
.bench_build, inside the checkout; dune's shared cache is off, so nothing
is read or written outside the checkout.  The benchmark's own output is
passed through: its last line is one JSON object.  The exit code is the
benchmark's, or 2 when the build fails and 3 when the run overruns.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def build(build_dir):
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + [
        "build",
        "--root", ROOT,
        "--build-dir", build_dir,
        "--cache=disabled",
        "--display=quiet",
        "./perfbench/main.exe",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return False
    return done.returncode == 0


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    proc = subprocess.Popen([exe] + argv, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
