#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ and the odenet library
from src/ into .bench_build/perfbench, then runs one workload with both
thread pools pinned to one worker. The last line of stdout is the result
JSON; with --trace 1 the spans go to .bench_build/traces/ as Chrome
trace-event JSON. The result's metric names are checked against
BENCHMARK.json before it is printed.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the repository root: CMakeLists.txt or src/ is missing")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    # Compiler scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def expected_names(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    exe = build()
    trace = flag(args, "--trace")
    if trace == "1" and "--trace-out" not in args:
        out_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(out_dir, exist_ok=True)
        name = "%s-seed%s.json" % (flag(args, "--workload"), flag(args, "--seed"))
        args += ["--trace-out", os.path.join(out_dir, name)]
    env = dict(os.environ, ODENET_THREADS="1")
    try:
        done = subprocess.run([exe] + args, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("timed out after %d s" % RUN_TIMEOUT_S, 3)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or "--self-test" in args:
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)

    result = json.loads(lines[-1])
    got = set(result["metrics"])
    want = expected_names(trace)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - got), sorted(got - want)), 4)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
