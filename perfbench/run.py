#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator and the benchmark (Release) under .bench_build/ (or under
$CARGO_TARGET_DIR when set); later calls rebuild incrementally. Build output
goes to stderr. The benchmark's stdout is passed through; its last line is
the JSON result, checked here against the metric names and units that
BENCHMARK.json declares. The exit status is the benchmark's, or non-zero
when the build fails or the result does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to the benchmark")
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)], stdout=sys.stderr, env=env, check=True)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    declared = declared_metrics(args.trace)
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    env = dict(os.environ, ECNSIM_BUNDLE_DIR=out)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 and not lines[-1].startswith("{"):
        sys.exit(proc.returncode)

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != declared:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(got))}, "
              f"undeclared {sorted(set(got) - set(declared))}, "
              f"unit mismatch {sorted(n for n in got if n in declared and got[n] != declared[n])}",
              file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        sys.exit(1)
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
