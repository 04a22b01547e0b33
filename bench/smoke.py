"""Smoke run of the benchmark on tiny items.

    python3 bench/smoke.py

Runs every workload once untraced and twice traced with 4 KiB items and
one second each, and checks that:

* the last line of output is the result object, with exactly the
  metric names and units that BENCHMARK.json declares;
* every operation succeeded and every value is a finite number;
* two traced runs with one seed report identical counts;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when all checks pass.  Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--item-bytes", "4096"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int, proc) -> tuple[list, dict]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']!r}")
    return problems, result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        workload = w["name"]
        found, _ = check_result(spec, workload, 0, run(ROOT, workload, 0))
        problems += found
        traced = [check_result(spec, workload, 1, run(ROOT, workload, 1)) for _ in range(2)]
        for found, _ in traced:
            problems += found
        counts = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bits", "bytes")}
        first, second = traced[0][1], traced[1][1]
        for name in sorted(counts):
            if first and second and first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: count {name} differs between traced runs: "
                                f"{first[name]['value']} vs {second[name]['value']}")
        print(f"smoke {workload}: done", flush=True)

    bare = BENCH_DIR / "results" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "text", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        problems.append(f"without src/: exit {proc.returncode}, last line {last[0]!r}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
