#!/usr/bin/env python3
"""Build and run the SpMV stack benchmark.

One run:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

builds the `perfbench` package (release) from the checkout's sources,
runs one workload and passes its output through; the last line is the
JSON result. Run it from the root of the repository. Cargo's target
directory is `$CARGO_TARGET_DIR`, or `.bench_build` when that is unset.

A/A report:

    python3 perfbench/run.py --workload serve --seconds 20 --aa 10

runs the workload N times, seeds `--seed` .. `--seed + N - 1`, and prints
for every metric its median, quartiles (as `statistics.quantiles(n=4)`
gives them), the interquartile range and (max - min) as shares of the
median. Bounds in `BENCHMARK.json` are set from this spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def revision():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(binary, workload, seed, seconds, trace, rev):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--rev", rev,
           "--trace-dir", os.path.join(target_dir(), "perfbench-trace")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: run failed with code {done.returncode}")
    return done.stdout


def aa_report(binary, args, rev):
    values = {}
    units = {}
    failed = 0
    for i in range(args.aa):
        out = run_once(binary, args.workload, args.seed + i, args.seconds,
                       args.trace, rev)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        steal = next((l.split()[2] for l in lines if l.startswith("# host steal_pct=")), "?")
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"# run {i + 1}/{args.aa} seed {args.seed + i}: failed {result['failed']}, "
              f"host {steal}", flush=True)
    print(f"# A/A {args.workload}: {args.aa} runs of {args.seconds} s, "
          f"seeds {args.seed}..{args.seed + args.aa - 1}, failed ops {failed}")
    print(f"{'metric':<34} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        scale = abs(med) if med else float("nan")
        print(f"{name:<34} {units[name]:<8} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{(q3 - q1) / scale:>8.3f} {(max(v) - min(v)) / scale:>9.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", type=int, default=0,
                   help="run the workload this many times and report the spread")
    args = p.parse_args()
    binary = build()
    rev = revision()
    if args.aa > 0:
        aa_report(binary, args, rev)
    else:
        sys.stdout.write(run_once(binary, args.workload, args.seed, args.seconds,
                                  args.trace, rev))


if __name__ == "__main__":
    main()
