"""Smoke run: every workload briefly, untraced and traced, plus the bare-directory case.

    python3 bench/smoke.py

Checks that each run exits 0 with a correct result, that every metric
named in BENCHMARK.json is printed with its unit (in the result line and
in the lines for people above it), and that a directory holding only
BENCHMARK.json and bench/ exits nonzero without a result.  Takes about
four minutes on a 2-core box.  Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"metrics {sorted(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{metric['name']}: {got}")
        printed = [line.split() for line in lines[:-1]]
        if not any(len(p) >= 3 and p[0] == metric["name"] and p[2] == metric["unit"]
                   for p in printed):
            problems.append(f"{metric['name']} not printed with unit {metric['unit']}")
    if not trace and not any(line.startswith("fail_frac") for line in lines):
        problems.append("fail_frac not printed")
    if not trace and workload == "oracle-verify" and not any(
            line.startswith("verify_s") for line in lines):
        problems.append("verify_s not printed")
    return [f"{workload} trace {trace}: {p}" for p in problems]


def check_bare(spec: dict) -> list[str]:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare(spec)
    print(f"bare directory: {'ok' if not problems else 'FAILED'}", flush=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            if problems:
                break
            problems = check_run(spec, workload, trace)
            print(f"{workload} trace {trace}: {'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
