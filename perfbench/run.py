#!/usr/bin/env python3
"""Build and run the route-service benchmark from a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (the staleflow library from ../src plus the benchmark) as a
Release build under $CARGO_TARGET_DIR/perfbench (default .bench_build);
later calls rebuild only what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code is
the benchmark's: 0 only when every correctness check passed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170  # a run must end well inside 180 s


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(jobs):
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", out, "-j", str(jobs)]):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(command))
    return out


def git_describe():
    root = os.path.dirname(HERE)
    # A checkout that is not a repository must not report an enclosing one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    text = done.stdout.strip()
    return text if done.returncode == 0 and text else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the statistics self-test")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    jobs = max(1, min(4, os.cpu_count() or 1))
    out = build(jobs)
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]
                              ).returncode

    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(out, "run"),
               "--git", git_describe()]
    with subprocess.Popen(command) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
