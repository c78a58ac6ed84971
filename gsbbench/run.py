#!/usr/bin/env python3
"""Builds gsb and the benchmark from source, then runs one workload.

    python3 gsbbench/run.py --workload serve-hit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR
(default: .bench_build in the checkout), offline. The last line of
standard output is the benchmark's JSON result.

Steadiness mode runs each named workload once per seed and prints the
median and quartiles of every end-to-end metric:

    python3 gsbbench/run.py --steady 10 --workload serve-hit --workload solve-cold \
        --seconds 10 [--first-seed 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve-hit", "serve-fill", "solve-cold"]


def build():
    """Builds the gsb binary and the benchmark; returns both paths."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "gsb-universe", "--bin", "gsb"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "gsbbench", "Cargo.toml")],
    ]
    for step in steps:
        # Cargo's own output goes to stderr: stdout carries only results.
        done = subprocess.run(step, env=env, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(step)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "gsb"), os.path.join(release, "gsb-e2e-bench")


def run_once(bench, gsb, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, last stdout line)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--gsb", gsb]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, done.stdout, (lines[-1] if lines else "")


def steady(bench, gsb, args):
    """Runs each workload on `args.steady` seeds; prints the spread."""
    for workload in args.workload or WORKLOADS:
        values, shares = {}, []
        for seed in range(args.first_seed, args.first_seed + args.steady):
            code, _, last = run_once(bench, gsb, workload, seed, args.seconds, 0)
            if code != 0:
                sys.exit(f"{workload} seed {seed}: exit code {code}")
            result = json.loads(last)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: failed share per run {sorted(set(shares))}")
        print(f"{'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>11}")
        for name, xs in values.items():
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            print(f"{name:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {(q3 - q1) / med:>11.4f}")
        sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, help="runs per workload, one seed each")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if not args.steady and (not args.workload or len(args.workload) != 1 or args.seed is None):
        parser.error("name one --workload and a --seed, or use --steady")
    gsb, bench = build()
    if args.steady:
        steady(bench, gsb, args)
        return
    code, out, _ = run_once(bench, gsb, args.workload[0], args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
