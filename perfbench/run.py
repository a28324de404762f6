#!/usr/bin/env python3
"""Builds and runs the LegoDB benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus the legobench program) into
.bench_build/ as a Release build; later runs rebuild only what changed.
Every run then executes the arithmetic self-test and the workload. The
workload's own lines are echoed, with the run's provenance added as
"config" lines, and the last line printed is the result JSON. Exit status is
non-zero, with no result printed, when the build, the self-test or the
workload fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("design-search", "serve-mixed", "load-publish-paged")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_to_stderr(cmd):
    """Runs a build step with its output on stderr (stdout stays clean)."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no LegoDB sources under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_to_stderr(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"])
    run_to_stderr(["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target",
                   "legobench", "legobench_selftest"])


def source_digest():
    """A digest of the sources the benchmark was built from (the checkout
    the benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_revision():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    selftest = subprocess.run([os.path.join(BUILD, "legobench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("arithmetic self-test failed")

    # The paged backend's anonymous page files go under TMPDIR; keep them
    # inside the build directory.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [os.path.join(BUILD, "legobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("workload exited with status %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        listed = spec["per_layer" if args.trace == "1" else "end_to_end"]
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail("metrics differ from BENCHMARK.json: %s" %
                 sorted(set(got.items()) ^ set(want.items())))

    for line in lines[:-1]:
        print(line)
    print("config build_type=Release")
    print("config source_digest=" + source_digest())
    print("config git=" + git_revision())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
