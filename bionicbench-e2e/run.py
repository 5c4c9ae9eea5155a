#!/usr/bin/env python3
"""Build and run the bionicdb end-to-end benchmark.

Usage, from the root of a bionicdb checkout:

    python3 bionicbench-e2e/run.py --workload paper-1s [--seed 42] [--seconds 10] [--trace 0|1]

The script builds the Go benchmark program in this directory against the
checkout's sources, runs it once and passes its output through. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Everything the build and the run write stays under the build directory
(CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
benchmark binary, result files with provenance, CPU profiles and traces.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-1s", "scaleout-8s", "htap-2s", "failover-2s")
RUN_TIMEOUT_S = 170


def git(*args):
    """Returns git's output for the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             env=env, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal", "core"))):
        print("error: bionicdb sources (go.mod, internal/) not found next to the benchmark",
              file=sys.stderr)
        return 2

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    out = os.path.join(build, "bionicbench-e2e")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOMODCACHE=os.path.join(build, "gomodcache"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="-mod=mod",
               CGO_ENABLED="0")
    binary = os.path.join(out, "bionicbench-e2e")
    b = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env)
    if b.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    commit = git("rev-parse", "HEAD") or "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("true" if status else "false")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--commit", commit, "--dirty", dirty]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
