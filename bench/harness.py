"""Shared plumbing: paths, child environment, set-up timing, import
profiles, latency statistics and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3


class SetupError(RuntimeError):
    """The program under test could not be found or started."""


def pin_threads(env: dict) -> dict:
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env() -> dict:
    """Environment of every process the benchmark starts: checkout sources, one BLAS thread."""
    env = pin_threads(dict(os.environ))
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def require_program() -> None:
    if not (SRC / "fluxring" / "__init__.py").is_file():
        raise SetupError(f"no fluxring sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def measure_setup(runs: int = SETUP_RUNS) -> list[float]:
    """Wall seconds of fresh interpreters that exit once `import fluxring` returns."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import fluxring"], cwd=ROOT,
                              env=child_env(), capture_output=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stderr:
            raise SetupError("import fluxring failed: "
                             + proc.stderr.decode(errors="replace").strip())
    return times


def import_profile(runs: int = IMPORTTIME_RUNS) -> dict[str, float]:
    """Median cumulative import ms of fluxring, scipy and numpy from -X importtime."""
    samples: dict[str, list[float]] = {"fluxring": [], "scipy": [], "numpy": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fluxring"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise SetupError("import fluxring failed under -X importtime")
        totals = _outermost_import_us(proc.stderr)
        for family in samples:
            samples[family].append(totals.get(family, 0) / 1e3)
    return {family: statistics.median(values) for family, values in samples.items()}


def _outermost_import_us(report: str) -> dict[str, int]:
    """Sum cumulative us over each package's outermost entries.

    -X importtime prints a module after the modules it imported, two
    spaces deeper per level; read backwards, every entry follows its
    ancestors, so a stack of (depth, package) gives them.
    """
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        stripped = name.lstrip()
        entries.append(((len(name) - len(stripped)) // 2, stripped.split(".")[0],
                        int(cumulative)))
    totals: dict[str, int] = {}
    stack: list[tuple[int, str]] = []
    for depth, package, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if all(ancestor != package for _, ancestor in stack):
            totals[package] = totals.get(package, 0) + cumulative
        stack.append((depth, package))
    return totals


def latency_summary(latencies_s: list[float]) -> dict:
    """Median and the latency with ten samples beyond it, in ms."""
    xs = sorted(1e3 * t for t in latencies_s)
    n = len(xs)
    if n > 10:
        tail, percentile = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, percentile = xs[-1], 100.0  # too few samples: the maximum
    return {"p50_ms": statistics.median(xs), "tail_ms": tail,
            "tail_percentile": percentile, "samples": n}


def peak_rss_mb(who: int) -> float:
    import resource

    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
