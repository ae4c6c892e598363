"""oracle-verify: the numerical oracle in process, after a warm-up of each call kind.

The Jacobi, Sturm-bisection, Thomas and quad kernels take nearly all of
the time here; closed forms, the CLI and import hardly run, so a change
to the oracle kernels shows on this workload and on no other.
"""

from __future__ import annotations

import math
import resource
import time

import numpy as np

import checks
from harness import peak_rss_mb

NAME = "oracle-verify"
IN_PROCESS = True
PASS_SECONDS = 7.0  # one pass (49 calls) on a 2-core x86 box in a quiet spell
OP_UNIT = "one oracle call"

# Counts per pass.  About three passes fit in --seconds 20, so each call's
# best of three is reported.  The 32 quadratures are the cheapest calls and
# hold op_p50_ms; the 14 random-matrix Jacobi calls sit above them and hold
# op_tail_ms near their own median, since exactly three calls (verify,
# radial, dense ring) cost more.
VERIFY_CALLS = 1
RADIAL_CALLS = 1        # radial_fd_spectrum at the default N = 4000
NORM_PAIRS = 8          # (ell, sigma_ell, m) profiles, each normed for n = 0..3
RANDOM_HERMITIAN = 14
RANDOM_HERMITIAN_SIZE = 24
DENSE_RING_CALLS = 1
DENSE_RING_GRID = 64
ELLS = range(3, 9)      # radial and norm cost grow with ell, so ell is stratified


def _triples(rng, count: int) -> list[tuple[int, float, int]]:
    """(ell, sigma_ell, m) with every ell of ELLS used before any repeats."""
    ells = []
    while len(ells) < count:
        ells += [int(e) for e in rng.permutation(list(ELLS))]
    return [(ell, float(rng.choice([0.5, 1.0, 1.5, 2.0])), int(rng.integers(-2, 3)))
            for ell in ells[:count]]


def make_inputs(seed: int) -> list[dict]:
    """One pass: fixed counts per call kind, parameters and order from the seed."""
    rng = np.random.default_rng(seed)
    ops: list[dict] = [{"kind": "run_verification"} for _ in range(VERIFY_CALLS)]
    ops += [{"kind": "radial_fd_spectrum", "ell": ell, "sigma_ell": s, "m": m}
            for ell, s, m in _triples(rng, RADIAL_CALLS)]
    ops += [{"kind": "quadrature_norm", "ell": ell, "sigma_ell": s, "n": n, "m": m}
            for ell, s, m in _triples(rng, NORM_PAIRS) for n in range(4)]
    ops += [{"kind": "hermitian_random", "n": RANDOM_HERMITIAN_SIZE,
             "seed": int(rng.integers(2**31))} for _ in range(RANDOM_HERMITIAN)]
    # |sigma_ell| >= 1 keeps the matrix genuinely complex: at sigma_ell = 0 it is
    # real and Jacobi needs half the rotations, which would make cost a seed lottery
    ops += [{"kind": "hermitian_ring", "ell": int(rng.integers(1, 9)),
             "sigma_ell": float(round(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0), 4))}
            for _ in range(DENSE_RING_CALLS)]
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


def _random_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def _dense_ring(ell: int, sigma_ell: float, n_grid: int) -> np.ndarray:
    """Periodic central-difference ring Hamiltonian, assembled independently."""
    h = 2.0 * math.pi / n_grid
    mat = np.zeros((n_grid, n_grid), dtype=complex)
    for j in range(n_grid):
        mat[j, j] = 2.0 / (h * h) + ell * ell
        mat[j, (j + 1) % n_grid] += -1.0 / (h * h) - 1j * sigma_ell / h
        mat[j, (j - 1) % n_grid] += -1.0 / (h * h) + 1j * sigma_ell / h
    return mat


def _ring_symbol(ell: int, sigma_ell: float, n_grid: int) -> np.ndarray:
    h = 2.0 * math.pi / n_grid
    k = np.arange(n_grid) - n_grid // 2
    return np.sort((2.0 - 2.0 * np.cos(k * h)) / (h * h) + ell * ell
                   + 2.0 * sigma_ell * np.sin(k * h) / h)


class Workload:
    def __init__(self, inputs: list[dict]) -> None:
        import fluxring

        self.fx = fluxring
        self.inputs = inputs
        self.counters = {"checks_passed": 0}
        # matrices are inputs, built before the clock starts
        self.matrices = {}
        for index, op in enumerate(inputs):
            if op["kind"] == "hermitian_random":
                self.matrices[index] = _random_hermitian(op["n"], op["seed"])
            elif op["kind"] == "hermitian_ring":
                self.matrices[index] = _dense_ring(op["ell"], op["sigma_ell"], DENSE_RING_GRID)

    def warmup_indices(self) -> list[int]:
        """The first operation of each kind."""
        first = {}
        for index, op in enumerate(self.inputs):
            first.setdefault(op["kind"], index)
        return sorted(first.values())

    def _call(self, index: int, op: dict):
        fx = self.fx
        kind = op["kind"]
        if kind == "run_verification":
            return fx.run_verification()
        if kind == "radial_fd_spectrum":
            return fx.radial_fd_spectrum(op["ell"], op["sigma_ell"], op["m"], k_lowest=4)
        if kind == "quadrature_norm":
            return fx.quadrature_norm(
                fx.radial_wavefunction(op["ell"], op["sigma_ell"], op["n"], op["m"]))
        return fx.hermitian_eigs(self.matrices[index])

    def run(self, index: int, tracer=None) -> tuple[float, list[str]]:
        op = self.inputs[index]
        if tracer is not None:
            tracer.op_id = index
        start = time.perf_counter()
        try:
            out = self._call(index, op)
        except Exception as exc:  # any raise is a failed operation
            return time.perf_counter() - start, [f"{op['kind']} raised {exc!r}"]
        latency = time.perf_counter() - start
        return latency, self._check(index, op, out)

    def _check(self, index: int, op: dict, out) -> list[str]:
        kind = op["kind"]
        if kind == "run_verification":
            passed = sum(c["passed"] for c in out["checks"])
            self.counters["checks_passed"] += passed
            if not out["all_passed"] or len(out["checks"]) != 12:
                failing = [c["name"] for c in out["checks"] if not c["passed"]]
                return [f"verification: all_passed={out['all_passed']}, failing {failing}"]
            return []
        if kind == "radial_fd_spectrum":
            mu = checks.trap_mu(op["ell"], op["sigma_ell"], op["m"])
            reference = 2.0 * np.arange(4) + mu + 1.0
            deviation = float(np.abs(np.asarray(out.computed) - reference).max())
            if deviation > 1e-3 or out.max_abs_dev > 1e-3:
                return [f"radial deviation {deviation} > 1e-3 at {op}"]
            return []
        if kind == "quadrature_norm":
            return [] if abs(out - 1.0) <= 1e-8 else [f"norm {out} at {op}"]
        matrix = self.matrices[index]
        values = np.asarray(out)
        reference = (np.linalg.eigvalsh(matrix) if kind == "hermitian_random"
                     else _ring_symbol(op["ell"], op["sigma_ell"], DENSE_RING_GRID))
        scale = max(1.0, float(np.abs(reference).max()))
        deviation = float(np.abs(values - reference).max()) if values.shape == reference.shape \
            else math.inf
        return [] if deviation <= 1e-10 * scale else [f"{kind} deviation {deviation} at {op}"]

    def end_pass(self) -> dict[int, list[str]]:
        return {}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_SELF)

    def extra(self, measured: list[tuple[int, float]]) -> dict:
        """verify_s: wall time of run_verification() at default grids."""
        seconds = [latency for index, latency in measured
                   if self.inputs[index]["kind"] == "run_verification"]
        return {"verify_s": float(np.median(seconds))}
