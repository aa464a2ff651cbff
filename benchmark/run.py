#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]

With --workload, one run of that workload; without, every workload in
turn, each in its own child process.  The last line of standard output is
the result object.  Every metric the run reports must be exactly the set
BENCHMARK.json declares for the mode (end_to_end for --trace 0, per_layer
for --trace 1), with the declared units; the exit code is non-zero when
the build fails, a check of the program's outputs fails, or the metrics
do not match.  Run from anywhere; it works in the repository root.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "benchmark", "main.exe")
TIMEOUT_S = 170


def fail(msg, code=2):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    # dune's shared cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./benchmark/main.exe", "./bin/ncg_serve.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def run_one(workload, seed, seconds, trace, extra):
    """One workload in its own process group; returns (exit code, stdout)."""
    argv = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + extra
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s: no result within %d s" % (workload, TIMEOUT_S))
    return proc.returncode, out


def declared(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(result, expected, workload):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in got if k in expected and got[k] != expected[k])
        fail("%s: metrics differ from BENCHMARK.json (missing %s, extra %s, unit %s)"
             % (workload, missing, extra, units), 3)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=2013)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", help="write the traced run's spans here (one workload)")
    args = ap.parse_args()
    if args.spans and not args.workload:
        fail("--spans needs --workload")
    extra = ["--spans", os.path.abspath(args.spans)] if args.spans else []
    expected = declared(spec, args.trace)
    build()

    results = {}
    for workload in ([args.workload] if args.workload else names):
        code, out = run_one(workload, args.seed, args.seconds, args.trace, extra)
        lines = out.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            fail("%s: no result line (exit %d)" % (workload, code))
        check_metrics(result, expected, workload)
        if args.workload:
            sys.stdout.write(out)
            sys.exit(code)
        print("== %s" % workload)
        print("\n".join(lines[:-1]))
        results[workload] = result

    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (w, k): v
                    for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] and combined["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
