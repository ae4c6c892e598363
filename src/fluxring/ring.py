"""Single-particle spectrum on a stiff ring threaded by the effective flux.

In units of hbar^2/2I the dark-state atom on a ring sees

    E_m = ell^2 + m^2 + 2 * sigma_ell * m,   m integer,

where sigma_ell is the product of mean spin and winding.  Everything in
this module treats sigma_ell as one real parameter; that product is the
only combination the spectrum depends on, and the finite-difference
oracle scans it freely even when ell itself is 0.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, UsageError

__all__ = [
    "ring_energy",
    "ground_m",
    "ring_gap",
    "ring_spectrum_sweep",
    "RingSweepRow",
    "ring_wavefunction",
]


def ring_energy(ell: int, sigma_ell: float, m: int) -> float:
    """Energy ell^2 + m^2 + 2 sigma_ell m of angular-momentum state m."""
    if ell < 0:
        raise DomainError(f"ell must be >= 0, got {ell}")
    return ell * ell + m * m + 2.0 * sigma_ell * m


def ground_m(sigma_ell: float) -> int:
    """Angular momentum -floor(sigma_ell + 1/2) of the ground state.

    Ties at half-integer sigma_ell resolve to the lower m of the
    degenerate pair, matching a first-occurrence argmin over ascending m.
    """
    if not math.isfinite(sigma_ell):
        raise DomainError(f"sigma_ell must be finite, got {sigma_ell}")
    return -math.floor(sigma_ell + 0.5)


def ring_gap(ell: int, sigma_ell: float) -> float:
    """Excitation gap min_{m != m_check} E_m - E_m_check, in hbar^2/2I.

    Found by direct minimization over the neighbors of the ground state;
    the result is independent of ell, 1-periodic in sigma_ell, and
    vanishes exactly at half-integer sigma_ell.
    """
    mc = ground_m(sigma_ell)
    e0 = ring_energy(ell, sigma_ell, mc)
    return min(ring_energy(ell, sigma_ell, m) - e0
               for m in range(mc - 3, mc + 4) if m != mc)


class RingSweepRow(NamedTuple):
    """One row of the ring spectrum table; the field names are its columns."""

    sigma_ell: float
    m: int
    energy: float
    is_ground: bool
    gap: float


def _sweep_window(sigma_ell_values: Sequence[float] | Iterable[float],
                  m_window: int | None) -> tuple[list[float], int]:
    """The sigma_ell grid as floats and the |m| window every spectrum sweep tabulates.

    The window defaults to ceil(max |sigma_ell|) + 2 and must at least
    contain the ground state plus one neighbor at every grid point.
    """
    grid = [float(s) for s in sigma_ell_values]
    if not grid:
        raise UsageError("sigma_ell grid is empty")
    if m_window is None:
        m_window = math.ceil(max(abs(s) for s in grid)) + 2
    m_window = int(m_window)
    if m_window < 1:
        raise UsageError(f"m_window must be >= 1, got {m_window}")
    worst = max(abs(ground_m(s)) for s in grid)
    if m_window < worst + 1:
        raise UsageError(
            f"m_window {m_window} does not cover the ground state and one neighbor "
            f"(need >= {worst + 1})")
    return grid, m_window


def ring_spectrum_sweep(ell: int, sigma_ell_values: Sequence[float] | Iterable[float],
                        m_window: int | None = None) -> list[RingSweepRow]:
    """Tabulate E_m over a sigma_ell grid for |m| <= m_window.

    Every row carries an is_ground flag (both members of a degenerate
    pair are flagged at half-integer sigma_ell) and the gap at that grid
    point.  The window defaults to ceil(max |sigma_ell|) + 2 and must at
    least contain the ground state plus one neighbor.
    """
    grid, m_window = _sweep_window(sigma_ell_values, m_window)
    rows: list[RingSweepRow] = []
    for s in grid:
        gap = ring_gap(ell, s)
        energies = {m: ring_energy(ell, s, m) for m in range(-m_window, m_window + 1)}
        e_min = energies[ground_m(s)]
        for m in range(-m_window, m_window + 1):
            rows.append(RingSweepRow(s, m, energies[m], energies[m] == e_min, gap))
    return rows


def ring_wavefunction(m: int, phi):
    """Normalized angular eigenfunction exp(i m phi) / sqrt(2 pi).

    Accepts a scalar angle or an array of angles.
    """
    return np.exp(1j * m * phi) / math.sqrt(2.0 * math.pi)
