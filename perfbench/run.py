#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload detail|sampled-long|figure \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds the benchmark
(perfbench/CMakeLists.txt, which compiles the simulator from src/)
under .bench_build/; later runs rebuild incrementally.  The
benchmark binary prints progress on stderr and, as the last stdout
line, one JSON object with "correct", "attempted", "failed" and
"metrics".  With --trace 1 the last traced pass is also written as a
Chrome trace to .bench_build/trace-<workload>-<seed>.json.

DMT_* environment knobs are removed before the binary starts, so the
simulator always runs in its default configuration.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configure and build the benchmark; build logs go to stderr.
    Configuring an up-to-date tree is a no-op, so it runs every time and
    a configure step that failed half-way is retried."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def check_names(result, trace):
    """The result must carry exactly BENCHMARK.json's metrics and units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        units = sorted(k for k in want if k in got and want[k] != got[k])
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {units}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build",
            f"trace-{args.workload}-{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("DMT_")}
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    check_names(json.loads(lines[-1]), args.trace)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
