#!/usr/bin/env python3
"""Builds and runs the selgen repository benchmark (see README.md here).

One workload, one seed:

    python3 perfbench/run.py --workload serve --seed 7 --seconds 45 --trace 0

prints every metric by name with its unit and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1. Exits non-zero when an oracle disagreed or set-up failed.

The benchmark's own checks:

    python3 perfbench/run.py --smoke          # all workloads, both modes
    python3 perfbench/run.py --steadiness 5   # spread of each metric vs bound

The program is built from this checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); a built
tree is reused. Run from anywhere; paths resolve against the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
REQUIRED = ["src/CMakeLists.txt", "tools/selgen-served.cpp",
            "artifacts/rule-library-full-w8.dat"]
# Workloads the harness runs that BENCHMARK.json leaves out, and why.
# --smoke still runs them, so their oracles keep showing.
HELD_OUT = {"compile": "its oracle finds miscompiled functions "
                       "(README.md, Findings, 2)"}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness and selgen-served."""
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail("not a selgen checkout (missing " + ", ".join(missing) + ")")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "selgen-perfbench"


def run(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--root", str(ROOT),
            "--work-dir", str(build_dir().parent / "perfbench-run")]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(binary, seconds):
    """Every workload, both modes: oracles pass and names match the spec.

    A held-out workload must print the spec's names and may add its
    own; it fails like any other when its oracle disagrees."""
    spec = benchmark_spec()
    ok = True
    for workload in [w["name"] for w in spec["workloads"]] + list(HELD_OUT):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(binary, workload, 1, seconds, trace, echo=False)
            want = {m["name"] for m in spec[key]}
            got = set(result["metrics"]) if result else set()
            extra = set() if workload in HELD_OUT else got - want
            good = code == 0 and result and result["correct"] and \
                want <= got and not extra
            ok = ok and bool(good)
            detail = "" if good else f" (exit {code}, missing " \
                f"{sorted(want - got)}, extra {sorted(extra)})"
            if workload in HELD_OUT:
                detail += f" [held out of BENCHMARK.json: {HELD_OUT[workload]}]"
            print(f"smoke {workload:8} trace={trace}: "
                  f"{'ok' if good else 'FAILED'}{detail}")
    return 0 if ok else 1


def steadiness(binary, runs, seconds):
    """Spread (IQR / median) of every end-to-end metric over seeds."""
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(1, runs + 1):
            code, result = run(binary, workload, seed, seconds, 0, echo=False)
            if code != 0 or not result:
                print(f"{workload} seed {seed}: exit {code}")
                ok = False
                if not result:
                    continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name in sorted(values):
            vals = values[name]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = "ok" if spread < bound / 3 else \
                "within bound" if spread <= bound else "OVER BOUND"
            if spread > bound:
                ok = False
            print(f"{workload:8} {name:16} median {med:14.6g}  spread "
                  f"{spread:7.2%}  bound {bound:5.0%}  {flag}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    args = parser.parse_args()

    if args.smoke:
        sys.exit(smoke(build(), 2))
    if args.steadiness:
        sys.exit(steadiness(build(), args.steadiness, args.seconds))
    if not args.workload:
        parser.error("--workload, --smoke or --steadiness is required")
    binary = build()
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
