#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. Smoke: every workload at the tiny scale, with --trace 0 and 1; the last
   output line must follow the result schema, with exactly the metrics
   BENCHMARK.json lists for that mode, and report no failed check.
2. Gates: the measuring program's gate-test feeds each output check one
   correct and one deliberately wrong answer (an invalid clustering, a Δ″
   below the double-sweep bound, a wrong k-center radius, a duplicate
   center, a wrong wire answer, an oracle answer below the BFS distance)
   and must count exactly the wrong ones as failed.
3. Stand-alone: a directory holding only BENCHMARK.json and perfbench/
   must make run.py exit non-zero without printing a result.

Exits 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402


def check_result(line, names, units):
    r = json.loads(line)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, r.keys()
    assert r["correct"] is True and r["failed"] == 0, r
    assert isinstance(r["attempted"], int) and r["attempted"] >= 1, r
    assert sorted(r["metrics"]) == sorted(names), (list(r["metrics"]), names)
    for name, m in r["metrics"].items():
        assert set(m) == {"value", "unit"}, m
        assert isinstance(m["value"], (int, float)), (name, m)
        assert m["unit"] == units[name], (name, m, units[name])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = [m["name"] for m in bench[key]]
        units = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
                   "--scale", "tiny"]
            p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = p.stdout.strip().splitlines()
            try:
                assert p.returncode == 0, p.stderr[-2000:]
                check_result(lines[-1], names, units)
                print(f"ok    smoke {w['name']} trace={trace}")
            except (AssertionError, IndexError, ValueError) as e:
                failures += 1
                print(f"FAIL  smoke {w['name']} trace={trace}: {e}")

    tool = run.build_root() / "perfbench" / "perfbench"
    p = subprocess.run([str(tool), "gate-test"], capture_output=True, text=True)
    print(p.stdout.strip())
    if p.returncode == 0:
        print("ok    gate-test: every injected wrong answer counted as failed")
    else:
        failures += 1
        print("FAIL  gate-test")

    with tempfile.TemporaryDirectory(dir=run.build_root()) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / ".bench_build"))
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, env=env, timeout=170)
        if p.returncode != 0 and '"metrics"' not in p.stdout:
            print("ok    stand-alone directory exits non-zero without a result")
        else:
            failures += 1
            print("FAIL  stand-alone directory printed a result or exited 0")

    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
