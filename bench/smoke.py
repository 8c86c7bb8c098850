"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at reduced size, untraced and traced,
and fails unless each run is correct, emits exactly the metrics
BENCHMARK.json names for it with their units, and, when traced, has self
times that sum to no more than the traced wall.  It also checks that the
runner refuses, without a result line, a directory holding only the
benchmark and no program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_line(out: str) -> dict | None:
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    res = result_line(proc.stdout)
    if proc.returncode != 0 or res is None:
        return [f"{where}: exit code {proc.returncode}, no result line\n{proc.stderr[-2000:]}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={res.get('correct')} failed={res.get('failed')} "
                        f"attempted={res.get('attempted')}\n{proc.stdout[-2000:]}")
    metrics = res.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, unit in wanted.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{where}: metric {name} missing")
        elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} is {got}, want unit {unit}")
    for name in sorted(set(metrics) - set(wanted)):
        problems.append(f"{where}: metric {name} is not in BENCHMARK.json")
    if trace and not problems:
        self_sum = metrics["trace.self_s_sum"]["value"]
        wall = metrics["trace.wall_s"]["value"]
        if not 0.0 < self_sum <= wall:
            problems.append(f"{where}: traced self times sum to {self_sum} s, traced wall {wall} s")
    return problems


def check_bare_directory() -> list[str]:
    """The runner must fail, printing no result, where the program is absent."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "report", 0)
        if proc.returncode == 0 or result_line(proc.stdout) is not None:
            return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
