"""cli-mix: one fresh `python -m fluxring` process per request, closed loop, one client.

Users pay interpreter start-up and `import fluxring` on every call, so
each request is a new process.  The pass mixes small tables (gap, one
superposed point) with 0.5-1.6 MB CSV and JSON tables, so a serializer
change that helps one kind and hurts the other shows in the median or
the tail.  `verify` is left to oracle-verify.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import resource
import subprocess
import sys
import time

import numpy as np

import checks
from harness import ROOT, WORK, child_env, peak_rss_mb

NAME = "cli-mix"
IN_PROCESS = False
PASS_SECONDS = 20.0  # one pass (26 requests) on a 2-core x86 box in a quiet spell
OP_UNIT = "one `python -m fluxring` process"


def make_inputs(seed: int) -> list[dict]:
    """One pass of requests: fixed counts per kind, parameters, formats and order from the seed.

    The counts per kind (and the split of ell into strata for the
    harmonic tables, whose size grows as ell^2) keep the amount of work
    nearly the same from seed to seed.
    """
    rng = np.random.default_rng(seed)

    def pick(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    def formats(count: int) -> list[list[str]]:
        half = [[]] * (count // 2) + [["--format", "json"]] * (count - count // 2)
        return [half[k] for k in rng.permutation(count)]

    def round3(x: float) -> float:
        return float(round(x, 3))

    requests = []
    for fmt in ([], [], ["--format", "json"], ["--format", "json"]):
        requests.append(["spectrum", "--geometry", "ring", "--ell", str(pick(1, 8))] + fmt)
    for (lo, hi), fmt in zip(((2, 4), (5, 7), (8, 10), (11, 12)), formats(4)):
        requests.append(["spectrum", "--geometry", "harmonic", "--ell", str(pick(lo, hi))] + fmt)
    for fmt in formats(2):
        span = pick(2, 8)
        requests.append(["gap", "--geometry", "ring", "--ell", str(pick(1, 8)),
                         "--sigma-ell", f"-{span}:{span}:{100 * span + 1}"] + fmt)
    for fmt in formats(2):
        requests.append(["gap", "--geometry", "harmonic", "--ell", str(pick(2, 12))] + fmt)
    combos = (("ring", "i"), ("ring", "ii"), ("harmonic", "i"), ("harmonic", "ii"))
    for size, fmts in (("full", formats(4)), ("small", formats(4))):
        for (geometry, case), fmt in zip(combos, fmts):
            ell = pick(13, 20)
            if size == "full":
                sigmas = "-12:-1:12" if case == "i" and rng.random() < 0.5 else "1:12:12"
                count = 351
            else:
                sigmas = ",".join(str(s) for s in sorted(rng.choice(np.arange(1, 13), 3,
                                                                    replace=False)))
                count = 36
            lo, hi = round3(rng.uniform(0.2, 0.8)), round3(rng.uniform(3.5, 4.5))
            requests.append(["superpose", "--geometry", geometry, "--case", case,
                             "--ell", str(ell), "--sigma-ell", sigmas,
                             "--delta-alpha", f"{lo}:{hi}:{count}",
                             "--theta", repr(round3(rng.uniform(0.0, 2.0 * math.pi)))] + fmt)
    for geometry, case in combos + (("ring", "i"), ("harmonic", "ii")):
        requests.append(_amplitude_point(rng, geometry, case))
    order = rng.permutation(len(requests))
    return [{"argv": requests[k], "to_file": bool(rng.random() < 0.5)} for k in order]


def _amplitude_point(rng, geometry: str, case: str) -> list[str]:
    """Field amplitudes on the case-(i) or case-(ii) surface, away from degenerate sigma_ell."""
    while True:
        ell = int(rng.integers(1 if geometry == "ring" else 2, 9))
        a_plus = float(round(rng.uniform(0.5, 3.0), 4))
        if case == "i":
            a_minus = float(round(rng.uniform(0.2, 2.5), 4))
            beta2 = a_plus * a_minus
        else:
            a_minus = -float(round(rng.uniform(0.2, 0.9) * a_plus, 4))
            beta2 = -a_plus * a_minus
        sigma_ell = ell * (a_plus * a_plus - beta2) / (a_plus * a_plus + beta2)
        if abs(2.0 * sigma_ell - round(2.0 * sigma_ell)) >= 0.1:
            break
    return ["superpose", "--geometry", geometry, "--case", case, "--ell", str(ell),
            "--alpha-plus", repr(a_plus), "--alpha-minus", repr(a_minus),
            "--beta-mag2", repr(beta2),
            "--theta", repr(float(round(rng.uniform(0.0, 2.0 * math.pi), 3)))]


class Workload:
    def __init__(self, inputs: list[dict]) -> None:
        self.inputs = inputs
        self.verified: dict[int, str] = {}   # request index -> sha256 of checked output
        self.rows: dict[int, int] = {}       # request index -> data rows of that output
        self.counters = {"bytes_out": 0, "rows_out": 0}
        self.out_dir = WORK / "cli"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env()

    def warmup_indices(self) -> list[int]:
        return []  # every request is a fresh interpreter, as users run it

    def run(self, index: int, tracer=None) -> tuple[float, list[str]]:
        request = self.inputs[index]
        argv = list(request["argv"])
        out_path = None
        if request["to_file"]:
            out_path = self.out_dir / f"request-{index}.out"
            out_path.unlink(missing_ok=True)
            argv += ["--out", str(out_path)]
        if tracer is None:
            command = [sys.executable, "-m", "fluxring", *argv]
        else:
            spans_path = self.out_dir / f"spans-{index}.json"
            command = [sys.executable, str(ROOT / "bench" / "traced_cli.py"),
                       str(spans_path), str(index), *argv]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True)
        latency = time.perf_counter() - start
        if proc.returncode != 0 or proc.stderr:
            return latency, [f"exit {proc.returncode}, stderr "
                             f"{proc.stderr.decode(errors='replace')[-300:]!r}"]
        data = out_path.read_bytes() if out_path is not None else proc.stdout
        if out_path is not None and proc.stdout:
            return latency, ["--out request also wrote to stdout"]
        if tracer is not None:
            payload = json.loads(spans_path.read_text())
            tracer.absorb(payload["names"], payload["spans"])
        return latency, self._check(index, data)

    def _check(self, index: int, data: bytes) -> list[str]:
        sha = hashlib.sha256(data).hexdigest()
        known = self.verified.get(index)
        if known is not None:
            problems = [] if sha == known else ["output differs from the verified run"]
            rows = self.rows[index]
        else:
            try:
                rows, problems = check_output(self.inputs[index]["argv"], data)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                rows, problems = 0, [f"unparseable output: {exc!r}"]
            if not problems:
                self.verified[index] = sha
                self.rows[index] = rows
        self.counters["bytes_out"] += len(data)
        self.counters["rows_out"] += rows
        return problems

    def end_pass(self) -> dict[int, list[str]]:
        return {}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def extra(self, measured: list[tuple[int, float]]) -> dict:
        return {}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _grid(text: str) -> np.ndarray:
    """The CLI's grid syntax, evaluated with the same numpy calls."""
    if ":" in text:
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    return np.array([float(p) for p in text.split(",")])


def _table(data: bytes, is_json: bool) -> tuple[str, list[str], list[list]]:
    text = data.decode()
    if is_json:
        payload = json.loads(text)
        rows = payload["rows"]
        header = list(rows[0]) if rows else []
        return payload["unit"], header, [[row[k] for k in header] for row in rows]
    lines = text.splitlines()
    if not lines[0].startswith("# unit: "):
        raise ValueError("missing unit line")
    reader = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return lines[0][len("# unit: "):], reader[0], reader[1:]


def _flag_value(value) -> bool:
    return value is True or value == "1"


def _same_point(printed, exact: float, is_json: bool) -> bool:
    return printed == exact if is_json else printed == "%.12e" % exact


def check_output(argv: list[str], data: bytes) -> tuple[int, list[str]]:
    """Parse one request's output and check it; returns (data rows, problems)."""
    command = argv[0]
    geometry = _flag(argv, "--geometry")
    ell = int(_flag(argv, "--ell"))
    is_json = _flag(argv, "--format", "csv") == "json"
    if command == "superpose" and "--alpha-plus" in argv:
        return 1, _check_amplitude_point(argv, json.loads(data.decode()))
    unit, header, rows = _table(data, is_json)
    expected_unit = "hbar^2/2I" if geometry == "ring" else "hbar*Omega"
    problems = [] if unit == expected_unit else [f"unit {unit!r} != {expected_unit!r}"]
    if command == "spectrum":
        problems += _check_spectrum(geometry, ell, header, rows, is_json)
    elif command == "gap":
        problems += _check_gap(geometry, ell, _flag(argv, "--sigma-ell"), header, rows, is_json)
    else:
        problems += _check_sweep(argv, geometry, ell, header, rows, is_json)
    return len(rows), problems


def _default_grid(geometry: str, ell: int) -> np.ndarray:
    if geometry == "ring":
        return np.linspace(-6.0, 6.0, 601)
    return np.linspace(-float(ell), float(ell), 8 * ell + 1)


def _exact_gap_problems(sigma: float, printed_gap, is_json: bool) -> list[str]:
    """Ring gap is exactly 1 at integer and exactly 0 at half-integer sigma_ell."""
    if sigma == round(sigma):
        exact = 1.0
    elif 2.0 * sigma == round(2.0 * sigma):
        exact = 0.0
    else:
        return []
    if _same_point(printed_gap, exact, is_json):
        return []
    return [f"ring gap {printed_gap!r} at sigma_ell={sigma!r}, expected exactly {exact}"]


def _check_spectrum(geometry, ell, header, rows, is_json) -> list[str]:
    grid = _default_grid(geometry, ell)
    window = math.ceil(float(np.max(np.abs(grid)))) + 2
    ms = range(-window, window + 1)
    ns = (0,) if geometry == "ring" else (0, 1, 2)
    want_header = (["sigma_ell", "m", "energy", "is_ground", "gap"] if geometry == "ring"
                   else ["sigma_ell", "n", "m", "mu", "energy", "is_ground", "gap"])
    if header != want_header:
        return [f"header {header} != {want_header}"]
    if len(rows) != len(grid) * len(ns) * len(ms):
        return [f"{len(rows)} rows, expected {len(grid) * len(ns) * len(ms)}"]
    problems = []
    it = iter(rows)
    for s in grid:
        s = float(s)
        mc = checks.ground_m(s)
        if geometry == "ring":
            e_min = checks.ring_energy(ell, s, mc)
            gap = checks.ring_gap(s)
        else:
            e_min = checks.trap_energy(ell, s, 0, mc)
            gap = checks.trap_gap(ell, s)
        for n in ns:
            for m in ms:
                row = next(it)
                if geometry == "ring":
                    sig, m_out, energy, ground, gap_out = row
                    expected = checks.ring_energy(ell, s, m)
                    scale = max(ell * ell, m * m, abs(2.0 * s * m))
                else:
                    sig, n_out, m_out, mu_out, energy, ground, gap_out = row
                    expected = checks.trap_energy(ell, s, n, m)
                    scale = 2.0 * n + 1.0
                    if int(n_out) != n or not checks.close(
                            float(mu_out), checks.trap_mu(ell, s, m)):
                        problems.append(f"n/mu wrong at sigma_ell={s!r} n={n} m={m}")
                if not _same_point(sig, s, is_json) or int(m_out) != m:
                    problems.append(f"row out of order at sigma_ell={s!r} m={m}")
                if not checks.close(float(energy), expected, scale=scale):
                    problems.append(f"energy {energy} != {expected} at sigma_ell={s!r} "
                                    f"n={n} m={m}")
                if _flag_value(ground) != (expected == e_min):
                    problems.append(f"is_ground wrong at sigma_ell={s!r} n={n} m={m}")
                if not checks.close(float(gap_out), gap, scale=scale):
                    problems.append(f"gap {gap_out} != {gap} at sigma_ell={s!r}")
                if geometry == "ring":
                    problems += _exact_gap_problems(s, gap_out, is_json)
                if len(problems) > 20:
                    return problems
    return problems


def _check_gap(geometry, ell, grid_text, header, rows, is_json) -> list[str]:
    grid = _grid(grid_text) if grid_text else _default_grid(geometry, ell)
    if header != ["sigma_ell", "gap"]:
        return [f"header {header} != ['sigma_ell', 'gap']"]
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    problems = []
    for s, (sig, gap_out) in zip(grid, rows):
        s = float(s)
        if not _same_point(sig, s, is_json):
            problems.append(f"sigma_ell {sig!r} != {s!r}")
        if geometry == "ring":
            expected = checks.ring_gap(s)
            problems += _exact_gap_problems(s, gap_out, is_json)
        else:
            expected = checks.trap_gap(ell, s)
        if not checks.close(float(gap_out), expected, scale=ell * ell + 36.0):
            problems.append(f"gap {gap_out} != {expected} at sigma_ell={s!r}")
    return problems


def _check_sweep(argv, geometry, ell, header, rows, is_json) -> list[str]:
    want = ["case", "geometry", "ell", "sigma_ell", "delta_alpha", "epsilon", "delta_e",
            "gap", "mixing_ratio", "feasible"]
    if header != want:
        return [f"header {header} != {want}"]
    case = _flag(argv, "--case")
    theta = float(_flag(argv, "--theta", "0"))
    sig_grid = _grid(_flag(argv, "--sigma-ell"))
    da_grid = _grid(_flag(argv, "--delta-alpha"))
    if len(rows) != len(sig_grid) * len(da_grid):
        return [f"{len(rows)} rows, expected {len(sig_grid) * len(da_grid)}"]
    problems = []
    it = iter(rows)
    for s in sig_grid:
        s = float(s)
        for da in da_grid:
            row = next(it)
            c, g, l, sig, da_out, eps, delta_e, gap, _, feasible = row
            if (c, g, int(l)) != (case, geometry, ell) or not _same_point(sig, s, is_json) \
                    or not _same_point(da_out, float(da), is_json):
                problems.append(f"row out of order at sigma_ell={s!r} delta_alpha={da!r}")
                continue
            expected_eps = math.exp(-float(da) ** 2) * math.sqrt(1.0 - (s / ell) ** 2)
            if not checks.close(float(eps), expected_eps):
                problems.append(f"epsilon {eps} != {expected_eps}")
            problems += checks.check_shift(case, geometry, ell, s, float(eps), float(delta_e),
                                           float(gap), _flag_value(feasible), theta,
                                           printed=not is_json)
            if len(problems) > 20:
                return problems
    return problems


def _check_amplitude_point(argv, d: dict) -> list[str]:
    a_plus = float(_flag(argv, "--alpha-plus"))
    a_minus = float(_flag(argv, "--alpha-minus"))
    beta2 = float(_flag(argv, "--beta-mag2"))
    ell = int(_flag(argv, "--ell"))
    sigma = (a_plus * a_plus - beta2) / (a_plus * a_plus + beta2)
    epsilon = math.exp(-(a_plus - a_minus) ** 2) * math.sqrt(1.0 - sigma * sigma)
    problems = []
    if (d["case"], d["geometry"], d["ell"]) != (_flag(argv, "--case"),
                                                _flag(argv, "--geometry"), ell):
        problems.append("case, geometry or ell not echoed")
    if not checks.close(d["sigma_ell"], sigma * ell) or not checks.close(d["epsilon"], epsilon):
        problems.append(f"sigma_ell {d['sigma_ell']} / epsilon {d['epsilon']} do not follow "
                        "from the amplitudes")
    return problems + checks.check_superposition_dict(d)
