#!/usr/bin/env python3
"""Checks of the benchmark itself, in about two minutes.

    python3 perfbench/smoke.py

From the root of the repository:
1. every workload in its `--smoke` setting, untraced and traced, must pass
   its correctness gates and print exactly the metrics BENCHMARK.json
   names (end-to-end untraced, per-layer traced);
2. in a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must fail without printing a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            p = run(ROOT, w, trace)
            label = f"{w} --trace {trace}"
            if p.returncode != 0:
                problems.append(f"{label}: exit {p.returncode}\n{p.stderr[-2000:]}")
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: {result['attempted']} attempted, {result['failed']} failed")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ expected[trace])}")
            print(f"ok  {label}", flush=True)

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = run(bare, spec["workloads"][0]["name"], 0)
    if p.returncode == 0 or p.stdout.strip():
        problems.append(f"without the program's sources: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    else:
        print("ok  fails without the program's sources", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
