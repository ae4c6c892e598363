"""Output checks shared by the workloads.

Energies are recomputed here from the paper's formulas; the
superposition shift is recomputed through the independent pencil route
gen_eig_2x2(build_block(...)).  Each check returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-12        # closed-form tolerance, relative to the size of the terms
PENCIL_REL = 1e-12  # criterion 06: closed form == pencil within 1e-12 * scale


def ground_m(sigma_ell: float) -> int:
    return -math.floor(sigma_ell + 0.5)


def ring_energy(ell: int, sigma_ell: float, m: int) -> float:
    return ell * ell + m * m + 2.0 * sigma_ell * m


def ring_gap(sigma_ell: float) -> float:
    """E(m_check +- 1) - E(m_check) = 1 +- 2 (m_check + sigma_ell); the smaller one."""
    return 1.0 - 2.0 * abs(ground_m(sigma_ell) + sigma_ell)


def trap_mu(ell: int, sigma_ell: float, m: int) -> float:
    return math.sqrt(ell * ell + m * m + 2.0 * sigma_ell * m)


def trap_energy(ell: int, sigma_ell: float, n: int, m: int) -> float:
    return 2.0 * n + trap_mu(ell, sigma_ell, m) + 1.0


def trap_gap(ell: int, sigma_ell: float) -> float:
    """Brute-force gap over n <= 1 and a window of m around the ground state."""
    mc = ground_m(sigma_ell)
    e0 = trap_energy(ell, sigma_ell, 0, mc)
    best = math.inf
    for n in (0, 1):
        for m in range(mc - 6, mc + 7):
            if (n, m) == (0, mc) or ell * ell + m * m + 2.0 * sigma_ell * m < 0.0:
                continue
            best = min(best, trap_energy(ell, sigma_ell, n, m) - e0)
    return best


def close(value: float, expected: float, rel: float = REL, scale: float = 1.0) -> bool:
    return abs(value - expected) <= rel * max(1.0, abs(expected), scale)


def single_tube_ground(geometry: str, ell: int, sigma_ell: float) -> float:
    mc = ground_m(sigma_ell)
    if geometry == "ring":
        return ring_energy(ell, sigma_ell, mc)
    return trap_energy(ell, sigma_ell, 0, mc)


def pencil_eigs(case: str, geometry: str, ell: int, sigma_ell: float, epsilon: float,
                theta: float = 0.0):
    from fluxring import build_block, gen_eig_2x2

    block = build_block(case, geometry, ell, sigma_ell, epsilon, theta)
    values, vectors = gen_eig_2x2(block)
    return block, values, vectors


def check_shift(case: str, geometry: str, ell: int, sigma_ell: float, epsilon: float,
                delta_e: float, gap: float, feasible: bool, theta: float = 0.0,
                printed: bool = False) -> list[str]:
    """delta_e <= 0, feasible == (|delta_e| < gap), gap law, and the pencil route."""
    where = f"{case}/{geometry} ell={ell} sigma_ell={sigma_ell!r} eps={epsilon!r}"
    problems = []
    if not delta_e <= 0.0:
        problems.append(f"delta_e {delta_e} > 0 at {where}")
    # printed tables round to 13 digits; skip the flag where rounding decides it
    if not (printed and abs(abs(delta_e) - gap) <= 1e-11 * max(gap, 1e-300)):
        if feasible != (abs(delta_e) < gap):
            problems.append(f"feasible={feasible} but |delta_e|={abs(delta_e)} gap={gap} "
                            f"at {where}")
    expected_gap = ring_gap(sigma_ell) if geometry == "ring" else trap_gap(ell, sigma_ell)
    if not close(gap, expected_gap):
        problems.append(f"gap {gap} != {expected_gap} at {where}")
    _, values, _ = pencil_eigs(case, geometry, ell, sigma_ell, epsilon, theta)
    scale = max(1.0, abs(values[0]), abs(values[1]))
    pencil_shift = float(values[0]) - single_tube_ground(geometry, ell, sigma_ell)
    if abs(pencil_shift - delta_e) > PENCIL_REL * scale:
        problems.append(f"delta_e {delta_e} != pencil {pencil_shift} at {where}")
    return problems


def check_superposition_dict(d: dict) -> list[str]:
    """Single-point result (SuperpositionResult.to_dict): shift, levels and eigenvectors."""
    case, geometry, ell = d["case"], d["geometry"], d["ell"]
    sigma_ell, epsilon, theta = d["sigma_ell"], d["epsilon"], d["theta"]
    problems = check_shift(case, geometry, ell, sigma_ell, epsilon, d["delta_e"], d["gap"],
                           d["feasible"], theta)
    block, values, _ = pencil_eigs(case, geometry, ell, sigma_ell, epsilon, theta)
    scale = max(1.0, abs(values[0]), abs(values[1]))
    if d["m_check"] != ground_m(sigma_ell):
        problems.append(f"m_check {d['m_check']} != {ground_m(sigma_ell)}")
    if not close(d["e_zero"], single_tube_ground(geometry, ell, sigma_ell)):
        problems.append(f"e_zero {d['e_zero']} is not the single-tube ground energy")
    for key, level in (("e_plus", 0), ("e_minus", 1)):
        if abs(d[key] - values[level]) > PENCIL_REL * scale:
            problems.append(f"{key} {d[key]} != pencil {values[level]}")
    if d["boundary"] != (abs(d["delta_e"]) == d["gap"]):
        problems.append("boundary flag disagrees with |delta_e| == gap")
    metric = block.a if case == "i" else np.eye(2)
    for key, energy in (("xi", d["e_plus"]), ("zeta", d["e_minus"])):
        vec = np.array([complex(re, im) for re, im in d[key]])
        unit = np.array([complex(re, im) for re, im in d[key + "_unit"]])
        residual = np.abs(block.h @ vec - energy * (block.a @ vec)).max()
        if residual > 1e-10 * scale * max(1.0, np.abs(vec).max()):
            problems.append(f"{key} is not an eigenvector: residual {residual}")
        norm2 = (unit.conj() @ metric @ unit).real
        if abs(norm2 - 1.0) > 1e-12:
            problems.append(f"{key}_unit has metric norm^2 {norm2}")
    return problems
