"""fluxring benchmark: one workload, checked outputs, end-to-end or per-layer metrics.

    python3 bench/run.py --workload cli-mix|oracle-verify|superpose-grid \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is src/fluxring.
The inputs come from --seed alone.  Each workload is a fixed pass of
operations; the run repeats it as many times as fit --seconds at the
workload's nominal pass length.  Every output is checked, and a failed
check counts its operation as failed.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1
alternates untraced and traced passes and reports per-layer metrics
from the traced ones, plus the tracing overhead.  The last line of
stdout is the result as one JSON object; the lines above it are the
same numbers for people, and .bench_work/results/ keeps a full record.
"""

from __future__ import annotations

import os

from harness import pin_threads

pin_threads(os.environ)  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import harness  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "import.fluxring_ms": "ms", "import.scipy_ms": "ms", "import.numpy_ms": "ms",
    "cli.calls": "count", "cli.parse_ms": "ms", "cli.self_ms": "ms",
    "cli.bytes_out": "bytes", "cli.rows_out": "count",
    "ring.calls": "count", "ring.busy_ms": "ms",
    "harmonic.calls": "count", "harmonic.busy_ms": "ms",
    "params.calls": "count", "params.busy_ms": "ms",
    "darkstate.calls": "count", "darkstate.busy_ms": "ms",
    "superposition.calls": "count", "superposition.busy_ms": "ms",
    "superposition.self_ms": "ms",
    "superposition.gen_eig_2x2.us_per_call": "us",
    "superposition.superpose.us_per_call": "us",
    "superposition.feasibility_sweep.ms_per_call": "ms",
    "superposition.feasibility_boundary.ms_per_call": "ms",
    "superposition.errors": "count",
    "oracle.block_scan.us_per_call": "us", "oracle.block_scan.attempts": "count",
    "oracle.block_scan.certified_ratio": "ratio",
    "oracle.hermitian_eigs.ms": "ms", "oracle.radial_fd_spectrum.ms": "ms",
    "oracle.ring_fd_spectrum.ms": "ms", "oracle.quadrature.ms": "ms",
    "oracle.run_verification.ms": "ms", "oracle.self_ms": "ms",
    "oracle.checks_passed": "count",
    "trace.overhead_frac": "ratio",
}

COUNTER_METRICS = {"bytes_out": "cli.bytes_out", "rows_out": "cli.rows_out",
                   "checks_passed": "oracle.checks_passed"}


def _workloads() -> dict:
    import cli_mix
    import oracle_verify
    import superpose_grid

    return {m.NAME: m for m in (cli_mix, oracle_verify, superpose_grid)}


class Tally:
    """Attempted and failed operations, with the first few problems kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems_by_op: dict[int, list[str]], attempted: int) -> None:
        self.attempted += attempted
        self.failed += len(problems_by_op)
        for index, problems in problems_by_op.items():
            if len(self.problems) < 10:
                self.problems.append(f"op {index}: {problems[0]}")


def run_ops(workload, tally: Tally, indices, tracer=None, deferred: bool = True):
    """Run operations in order and tally them; returns (op index, latency s) pairs.

    deferred=False leaves the checks that need a whole pass (superpose-grid
    boundaries) to the next pass, as for the warm-up.
    """
    timings, problems_by_op = [], {}
    for index in indices:
        latency, problems = workload.run(index, tracer)
        timings.append((index, latency))
        if problems:
            problems_by_op[index] = problems
    if deferred:
        for index, problems in workload.end_pass().items():
            problems_by_op.setdefault(index, problems)
    tally.add(problems_by_op, len(timings))
    return timings


def run_pass(workload, tally: Tally, tracer=None) -> list[tuple[int, float]]:
    return run_ops(workload, tally, range(len(workload.inputs)), tracer)


def pass_count(module, seconds: float, passes_per_round: int = 1) -> int:
    """Rounds whose nominal length comes nearest --seconds, at least one.

    The count follows from --seconds and the workload's nominal pass
    length on the reference box, never from the clock: a run that landed
    in a slow stretch would otherwise take fewer best-of repetitions.
    """
    return max(1, round(seconds / (passes_per_round * module.PASS_SECONDS)))


def measure(module, workload, tally: Tally,
            seconds: float) -> tuple[list[tuple[int, float]], int]:
    """Repeat the pass; each operation's latency is its best over the passes.

    The box is shared, and other tenants slow it for stretches of about ten
    seconds.  Taking each operation's fastest repetition, with the repetitions
    a pass apart, keeps those stretches out of the figures.
    """
    best: dict[int, float] = {}
    passes = pass_count(module, seconds)
    for _ in range(passes):
        for index, latency in run_pass(workload, tally):
            best[index] = min(latency, best.get(index, latency))
    return sorted(best.items()), passes


def measure_traced(module, workload, tally: Tally, seconds: float, spans_path) -> dict:
    """Alternate untraced and traced passes; per-layer figures are medians over the traced ones.

    The overhead compares each operation's best untraced and best traced
    latency, as the end-to-end figures do.
    """
    import spans

    samples: list[dict] = []
    best_untraced: dict[int, float] = {}
    best_traced: dict[int, float] = {}
    for _ in range(pass_count(module, seconds, passes_per_round=2)):
        for index, latency in run_pass(workload, tally):
            best_untraced[index] = min(latency, best_untraced.get(index, latency))
        tracer = spans.Tracer()
        for key in workload.counters:
            workload.counters[key] = 0
        if module.IN_PROCESS:
            tracer.install()
        try:
            traced = run_pass(workload, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        for index, latency in traced:
            best_traced[index] = min(latency, best_traced.get(index, latency))
        sample = spans.layer_metrics(tracer.names, tracer.spans)
        for key, value in workload.counters.items():
            sample[COUNTER_METRICS[key]] = value
        if not samples:
            tracer.dump(spans_path)
        samples.append(sample)
    metrics = {name: statistics.median_low(s.get(name, 0) for s in samples)
               for name in PER_LAYER_UNITS
               if not name.startswith(("import.", "trace."))}
    untraced = sum(best_untraced.values())
    metrics["trace.overhead_frac"] = (sum(best_traced.values()) - untraced) / untraced
    imports = harness.import_profile()
    for family in ("fluxring", "scipy", "numpy"):
        metrics[f"import.{family}_ms"] = imports[family]
    metrics["traced_passes"] = len(samples)
    return metrics


def main(argv=None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.require_program()
        setup_times = harness.measure_setup()
    except harness.SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    module = workloads[args.workload]
    inputs = module.make_inputs(args.seed)
    workload = module.Workload(inputs)
    if module.IN_PROCESS:
        warnings.simplefilter("error")  # a warning fails its operation, as stderr does in cli-mix
    env = harness.environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": harness.digest(inputs),
              "ops_per_pass": len(inputs), "op_unit": module.OP_UNIT, "environment": env,
              "setup_s_samples": setup_times}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256:{record['inputs_sha256'][:16]}  ({len(inputs)} ops per pass; "
          f"op = {module.OP_UNIT})")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items() if k != "threads")
          + "  " + "  ".join(f"{k}={v}" for k, v in env["threads"].items()))

    tally = Tally()
    run_ops(workload, tally, workload.warmup_indices(), deferred=False)
    harness.WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = harness.WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        layer = measure_traced(module, workload, tally, args.seconds, spans_path)
        record["traced_passes"] = layer.pop("traced_passes")
        record["spans"] = str(spans_path.relative_to(harness.ROOT))
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        for name, (value, unit) in metrics.items():
            print(f"{name:48s} {value:14.6g} {unit}")
    else:
        measured, passes = measure(module, workload, tally, args.seconds)
        lat = harness.latency_summary([t for _, t in measured])
        record["passes"] = passes
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(measured) / sum(t for _, t in measured),
            "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        record["latency"] = lat
        record.update(workload.extra(measured))
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh `import fluxring` interpreters",
            "ops_per_s": f"op = {module.OP_UNIT}; {lat['samples']} ops over their own time",
            "op_p50_ms": f"median of {lat['samples']} ops, each its best of {passes} passes",
            "op_tail_ms": f"p{lat['tail_percentile']:.1f} of {lat['samples']} ops "
                          "(ten samples beyond it)",
            "peak_rss_mb": ("largest child process" if not module.IN_PROCESS
                            else "benchmark process, workload in process"),
        }
        for name, (value, unit) in metrics.items():
            print(f"{name:12s} {value:14.6g} {unit:4s}  {notes[name]}")
        if "verify_s" in record:
            print(f"{'verify_s':12s} {record['verify_s']:14.6g} s     run_verification() at "
                  f"default grids, best of {passes} passes")
    fail_frac = tally.failed / tally.attempted
    print(f"{'fail_frac':12s} {fail_frac:14.6g} 1     {tally.failed} of {tally.attempted} "
          "operations failed")
    for problem in tally.problems:
        print(f"  failed {problem}")
    record.update({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "attempted": tally.attempted, "failed": tally.failed,
                   "fail_frac": fail_frac, "problems": tally.problems})
    results = harness.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(harness.result_line(tally.failed == 0, tally.attempted, tally.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
