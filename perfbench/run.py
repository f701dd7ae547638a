#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload physics_pipeline --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library sources plus the benchmark (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs find the build up to date.
The workload itself runs in its own process; its standard output is passed
through, and its last line is the JSON result.  Exit status is non-zero,
with no result printed, when the build or the workload fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKLOADS = ("physics_pipeline", "ingest_fanin", "dtm_chaos")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def build_root():
    """$CARGO_TARGET_DIR (relative to the checkout) or .bench_build."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(CHECKOUT, root)


def build(target="tsvpt_perfbench"):
    """Configure (once) and build `target`; returns the build directory."""
    build_dir = os.path.join(build_root(), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "-j", jobs,
                 "--target", target]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir


def run_workload(args):
    build_dir = build()
    work_dir = os.path.join(build_root(), "perfbench-work")
    cmd = [os.path.join(build_dir, "tsvpt_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.smoke:
        cmd += ["--smoke", "1"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("workload timed out")
    if proc.returncode != 0:
        raise RuntimeError("workload exited with %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise RuntimeError("malformed result line")
    sys.stdout.write(out)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short mode for the benchmark's own tests")
    args = parser.parse_args()
    try:
        run_workload(args)
    except (RuntimeError, OSError, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
