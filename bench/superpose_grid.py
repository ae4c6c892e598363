"""superpose-grid: the superposition layer in process, after a warm-up of each call kind.

The 2x2 pencils and the block scan dominate.  The layer is used two
ways: batched sweeps (feasibility_sweep, feasibility_boundary) that
discard eigenvectors, and single points that need them (to_dict), so a
vectorized engine that slows single points shows here.
"""

from __future__ import annotations

import math
import resource
import time

import numpy as np

import checks
from harness import peak_rss_mb

NAME = "superpose-grid"
IN_PROCESS = True
PASS_SECONDS = 1.3  # one pass (452 operations) on a 2-core x86 box in a quiet spell
OP_UNIT = "one sampled point or one sweep call"

POINTS = 300          # criterion-06 points: closed form, pencil and block scan
SINGLES = 100         # single points solved with eigenvectors and to_dict()
SWEEP_SIGMAS = 12
SWEEP_DELTAS = 351


def _sample_point(rng) -> dict:
    """Criterion 06's sampling domain: integer and generic sigma_ell, eps < 0.5."""
    case = "i" if rng.random() < 0.5 else "ii"
    geometry = "ring" if rng.random() < 0.5 else "harmonic"
    ell = int(rng.integers(1, 9))
    int_lo = 0 if case == "i" else 1
    int_hi = ell if geometry == "harmonic" else ell + 1  # harmonic blocks need |sigma_ell| < ell
    if int_hi > int_lo and rng.random() < 0.5:
        sigma_ell = float(rng.integers(int_lo, int_hi))
    else:
        while True:
            sigma_ell = float(rng.uniform(0.05, ell - 0.049))
            if abs(2.0 * sigma_ell - round(2.0 * sigma_ell)) >= 0.1:
                break
    if case == "i" and rng.random() < 0.5:
        sigma_ell = -sigma_ell
    return {"case": case, "geometry": geometry, "ell": ell, "sigma_ell": sigma_ell,
            "epsilon": float(rng.uniform(0.0, 0.5))}


def make_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    ops = [dict(_sample_point(rng), kind="point") for _ in range(POINTS)]
    ops += [dict(_sample_point(rng), kind="single", theta=float(rng.uniform(0.0, 2.0 * math.pi)))
            for _ in range(SINGLES)]
    for sweep, (geometry, case) in enumerate((("ring", "i"), ("ring", "ii"),
                                              ("harmonic", "i"), ("harmonic", "ii"))):
        ell = int(rng.integers(13, 21))
        sign = -1.0 if case == "i" and rng.random() < 0.5 else 1.0
        sigmas = [sign * s for s in range(1, SWEEP_SIGMAS + 1)]
        lo, hi = float(rng.uniform(0.2, 0.8)), float(rng.uniform(3.5, 4.5))
        ops.append({"kind": "sweep", "sweep": sweep, "case": case, "geometry": geometry,
                    "ell": ell, "sigma_ells": sigmas, "delta_alpha": [lo, hi, SWEEP_DELTAS]})
        ops += [{"kind": "boundary", "sweep": sweep, "case": case, "geometry": geometry,
                 "ell": ell, "sigma_ell": s} for s in sigmas]
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


class Workload:
    def __init__(self, inputs: list[dict]) -> None:
        import fluxring

        self.fx = fluxring
        self.inputs = inputs
        self.counters: dict[str, int] = {}
        self.grids = {op["sweep"]: np.linspace(*op["delta_alpha"][:2], op["delta_alpha"][2])
                      for op in inputs if op["kind"] == "sweep"}
        self.sweep_results: dict[int, list] = {}     # op index -> verified sweep output
        self.flags: dict[tuple[int, float], list[bool]] = {}
        self.boundaries: dict[int, float] = {}       # op index -> boundary of this pass

    def warmup_indices(self) -> list[int]:
        """The first operation of each kind."""
        first = {}
        for index, op in enumerate(self.inputs):
            first.setdefault(op["kind"], index)
        return sorted(first.values())

    def _call(self, op: dict):
        fx = self.fx
        kind = op["kind"]
        if kind == "sweep":
            return fx.feasibility_sweep(op["case"], op["geometry"], op["ell"],
                                        op["sigma_ells"], self.grids[op["sweep"]])
        if kind == "boundary":
            return fx.feasibility_boundary(op["case"], op["geometry"], op["ell"],
                                           op["sigma_ell"])
        solve = fx.superpose_ring if op["geometry"] == "ring" else fx.superpose_harmonic
        args = (op["case"], op["ell"], op["sigma_ell"], op["epsilon"])
        if kind == "single":
            return solve(*args, op["theta"]).to_dict()
        result = solve(*args)
        values, _ = fx.gen_eig_2x2(fx.build_block(op["case"], op["geometry"], *args[1:]))
        try:
            scan = fx.superposition_block_scan(op["case"], op["geometry"], *args[1:])
        except fx.VerificationError as exc:
            scan = exc  # ansatz breakdown is an outcome, not a failure
        return result, values, scan

    def run(self, index: int, tracer=None) -> tuple[float, list[str]]:
        op = self.inputs[index]
        if tracer is not None:
            tracer.op_id = index
        start = time.perf_counter()
        try:
            out = self._call(op)
        except Exception as exc:  # any other raise is a failed operation
            return time.perf_counter() - start, [f"{op['kind']} raised {exc!r}"]
        latency = time.perf_counter() - start
        return latency, self._check(index, op, out)

    def _check(self, index: int, op: dict, out) -> list[str]:
        kind = op["kind"]
        if kind == "single":
            return checks.check_superposition_dict(out)
        if kind == "boundary":
            self.boundaries[index] = out  # judged against its sweep in end_pass
            return []
        if kind == "sweep":
            return self._check_sweep(index, op, out)
        result, values, scan = out
        where = f"{op}"
        problems = [] if result.delta_e <= 0.0 else [f"delta_e {result.delta_e} > 0 at {where}"]
        scale = max(1.0, abs(values[0]), abs(values[1]))
        if (abs(result.e_plus - values[0]) > checks.PENCIL_REL * scale
                or abs(result.e_minus - values[1]) > checks.PENCIL_REL * scale):
            problems.append(f"closed form != pencil at {where}")
        if not isinstance(scan, Exception):
            _, m_star, report = scan
            if abs(m_star) != abs(result.m_check) or report.max_rel_dev > 1e-12:
                problems.append(f"certified scan m*={m_star}, m_check={result.m_check}, "
                                f"rel dev {report.max_rel_dev} at {where}")
        return problems

    def _check_sweep(self, index: int, op: dict, points) -> list[str]:
        grid = self.grids[op["sweep"]]
        rows = [(p.sigma_ell, p.delta_alpha, p.epsilon, p.delta_e, p.gap, p.feasible)
                for p in points]
        known = self.sweep_results.get(index)
        if known is not None:
            return [] if rows == known else ["sweep output differs from the verified pass"]
        if len(rows) != len(op["sigma_ells"]) * len(grid):
            return [f"{len(rows)} sweep points, expected {len(op['sigma_ells']) * len(grid)}"]
        problems = []
        it = iter(rows)
        for s in op["sigma_ells"]:
            flags = []
            for da in grid:
                sigma_ell, delta_alpha, eps, delta_e, gap, feasible = next(it)
                if (sigma_ell, delta_alpha) != (s, float(da)):
                    return [f"sweep point out of order at sigma_ell={s} delta_alpha={da}"]
                problems += checks.check_shift(op["case"], op["geometry"], op["ell"], s, eps,
                                               delta_e, gap, feasible)
                flags.append(feasible)
            if flags != sorted(flags):
                problems.append(f"feasibility not monotone in delta_alpha at sigma_ell={s}")
            self.flags[(op["sweep"], s)] = flags
        if not problems:
            self.sweep_results[index] = rows
        return problems[:20]

    def end_pass(self) -> dict[int, list[str]]:
        """Each boundary must fall within one cell of its sweep's edge (criterion 09)."""
        problems = {}
        for index, boundary in self.boundaries.items():
            op = self.inputs[index]
            grid = self.grids[op["sweep"]]
            flags = self.flags.get((op["sweep"], op["sigma_ell"]))
            if flags is None:
                problems[index] = ["its sweep produced no verified flags"]
                continue
            first = flags.index(True) if True in flags else len(flags)
            lo = float(grid[first - 1]) if first > 0 else -math.inf
            hi = float(grid[first]) if first < len(flags) else math.inf
            if not lo - 1e-12 <= boundary <= hi + 1e-12:
                problems[index] = [f"boundary {boundary} outside cell [{lo}, {hi}] at {op}"]
        self.boundaries.clear()
        return problems

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_SELF)

    def extra(self, measured: list[tuple[int, float]]) -> dict:
        return {}
