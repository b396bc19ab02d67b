#!/usr/bin/env python3
"""The repository benchmark: one command per workload, run from the root
of a checkout.

    python3 perfbench/run.py --workload road-diameter --seed 1 \
        --seconds 15 --trace 0

It builds the measuring program from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), generates the workload's input from
the seed SETUP_REPS times (the median is setup_s), then repeats the
pipeline for --seconds (the median rep is pipeline_s), checks every
output, and prints each metric by name with its unit.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from the traced run (see trace_report.py).  Any failed check makes
the command exit 1; so does a missing source tree or a failed build,
without printing a result.

Workloads, their inputs and why they were chosen: workloads.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import trace_report  # noqa: E402

SETUP_REPS = 5
THREADS = max(1, min(os.cpu_count() or 1, 4))
END_TO_END = [("pipeline_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(out_dir):
    """Configures (once) and builds the measuring program; returns its path
    or None on failure."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", str(THREADS)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed")
            return None
    return out_dir / "perfbench"


def run_tool(cmd, timeout):
    env = dict(os.environ, GCLUS_THREADS=str(THREADS))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        log(f"perfbench: timed out: {' '.join(cmd)}")
        return None
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log(f"perfbench: exit {proc.returncode}: {' '.join(cmd)}")
        return None
    return proc.stdout


def main():
    records = json.loads((HERE / "workloads.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(records["workloads"]))
    ap.add_argument("--seed", type=int, default=records["default_seed"])
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's smoke sizes")
    args = ap.parse_args()

    if not (ROOT / "src").is_dir():
        log("perfbench: no src/ tree next to perfbench/; run from a checkout")
        return 1
    out_dir = build_root() / "perfbench"
    tool = build(out_dir)
    if tool is None:
        return 1

    work = (build_root() / "work" /
            f"{args.workload}-{args.seed}-{args.trace}-{args.scale}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", str(work), "--scale", args.scale]
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            out = run_tool([str(tool), "setup", *common], timeout=60)
            if out is None:
                return 1
            setup_s.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        out = run_tool([str(tool), "measure", *common,
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], timeout=150)
        if out is None:
            return 1
        sys.stdout.write(out)
        result = json.loads((work / "result.json").read_text())
        layer_metrics, layer_lines = None, []
        if args.trace:
            layer_metrics, layer_lines = trace_report.report(
                work / "spans.jsonl", work / "result.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rec = records["workloads"][args.workload]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {rec['why']}")
    print(f"  input: {rec['input']}")
    if "serving_loop" in rec:
        print(f"  serving loop: {rec['serving_loop']}")
    print(f"  heavy: {', '.join(rec['heavy'])}; light: {', '.join(rec['light'])}; "
          f"bypassed: {', '.join(rec['bypassed'])}")
    for note in result["notes"]:
        print(f"  measured: {note}")
    values = {"pipeline_s": statistics.median(result["untraced_s"]),
              "peak_rss_mb": result["peak_rss_mb"],
              "setup_s": statistics.median(setup_s)}
    print(f"  {'setup_s':<26}{values['setup_s']:>16.6g} s "
          f"(median of {SETUP_REPS})")
    print(f"  {'pipeline_s':<26}{values['pipeline_s']:>16.6g} s "
          f"(median of {len(result['untraced_s'])} reps)")
    for name, value, unit in result["table"]:
        print(f"  {name:<26}{value:>16.6g} {unit}")
    print(f"  {'peak_rss_mb':<26}{result['peak_rss_mb']:>16.6g} MB")
    print(f"  {'failed_frac':<26}{failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} checked outputs)")

    if args.trace:
        for line in layer_lines:
            print(f"  {line}")
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in trace_report.PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
