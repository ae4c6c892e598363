"""Spectrum and radial eigenfunctions of the flux-pierced 2D harmonic trap.

With lengths in r0 = sqrt(hbar / 2 M Omega) and energies in hbar*Omega the
dark-state atom in a harmonic trap has

    E_{n,m} = 2 n + mu_m + 1,   mu_m = sqrt(ell^2 + m^2 + 2 sigma_ell m),

with radial profile

    f_{n,m}(r) = C (r^2/2)^(mu/2) exp(-r^2/4) L_n^mu(r^2/2),
    C = sqrt(n! / Gamma(n + mu + 1)),

normalized as integral f^2 r dr = 1.  The n = 0 profile peaks at
r = sqrt(2 mu), which is how the effective flux tube carves a hole into
the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import DomainError
from .ring import _square_sum, _sweep_window, ground_m

if TYPE_CHECKING:  # the array functions import numpy, so spectra and gaps load without it
    import numpy as np

__all__ = [
    "mu",
    "harmonic_energy",
    "ground_quantum_numbers",
    "harmonic_gap",
    "harmonic_spectrum_sweep",
    "HarmonicSweepRow",
    "laguerre_gen",
    "log_gamma",
    "RadialFunction",
    "radial_wavefunction",
    "radial_profile",
]


def mu(ell: int, sigma_ell: float, m: int) -> float:
    """Radial exponent mu_m = sqrt(ell^2 + m^2 + 2 sigma_ell m).

    The radicand is nonnegative whenever |sigma_ell| <= ell; anything
    negative means the requested state does not exist.  A radicand beyond
    the float range raises DomainError, as ring_energy does.
    """
    if ell < 0:
        raise DomainError(f"ell must be >= 0, got {ell}")
    radicand = _square_sum(ell, sigma_ell, m) + 2.0 * sigma_ell * m
    if not 0.0 <= radicand < math.inf:
        if -math.inf < radicand < 0.0:
            raise DomainError(
                f"mu^2 = {radicand} < 0 for ell={ell}, sigma_ell={sigma_ell}, m={m}")
        raise DomainError(f"ell^2 + m^2 + 2 sigma_ell m exceeds the float range at "
                          f"ell={ell}, sigma_ell={sigma_ell}")
    return math.sqrt(radicand)


def harmonic_energy(ell: int, sigma_ell: float, n: int, m: int) -> float:
    """Trap level E_{n,m} = 2 n + mu_m + 1 in units of hbar*Omega."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return 2.0 * n + mu(ell, sigma_ell, m) + 1.0


def ground_quantum_numbers(sigma_ell: float) -> tuple[int, int]:
    """(n, m) of the trap ground state: n = 0 and the same m as on a ring."""
    return 0, ground_m(sigma_ell)


def harmonic_gap(ell: int, sigma_ell: float) -> float:
    """Gap above E_{0, m_check}, minimized over nearby (n, m) candidates.

    Candidates are (0, m_check +- 1..3) and (1, m_check).  At sigma_ell = 0
    this reduces to sqrt(ell^2 + 1) - ell, which closes slowly with ell,
    and it vanishes exactly at half-integer sigma_ell.
    """
    mc = ground_m(sigma_ell)
    e0 = harmonic_energy(ell, sigma_ell, 0, mc)
    candidates = [(0, mc + k) for k in (-3, -2, -1, 1, 2, 3)] + [(1, mc)]
    best = math.inf
    for n, m in candidates:
        try:
            e = harmonic_energy(ell, sigma_ell, n, m)
        except DomainError:
            continue  # |m| beyond the physical window for this sigma_ell
        best = min(best, e - e0)
    return best


class HarmonicSweepRow(NamedTuple):
    """One row of the trap spectrum table; the field names are its columns."""

    sigma_ell: float
    n: int
    m: int
    mu: float
    energy: float
    is_ground: bool
    gap: float


def harmonic_spectrum_sweep(ell: int, sigma_ell_values: Sequence[float] | Iterable[float],
                            m_window: int | None = None) -> list[HarmonicSweepRow]:
    """Tabulate E_{n,m} over a sigma_ell grid for n = 0, 1, 2 and |m| <= m_window.

    Rows carry mu_m, an is_ground flag (energy equal to E_{0, m_check})
    and the gap at that grid point.  The window follows the same rule as
    ring_spectrum_sweep: it defaults to ceil(max |sigma_ell|) + 2 and
    must at least contain the ground state plus one neighbor.
    """
    grid, m_window = _sweep_window(ell, sigma_ell_values, m_window, levels=3)
    rows: list[HarmonicSweepRow] = []
    for s in grid:
        gap = harmonic_gap(ell, s)
        e_min = harmonic_energy(ell, s, *ground_quantum_numbers(s))
        for n in range(3):
            for m in range(-m_window, m_window + 1):
                energy = harmonic_energy(ell, s, n, m)
                rows.append(HarmonicSweepRow(s, n, m, mu(ell, s, m), energy,
                                             energy == e_min, gap))
    return rows


def laguerre_gen(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^a(x) by the three-term recurrence.

    (k+1) L_{k+1} = (2k + 1 + a - x) L_k - (k + a) L_{k-1}

    Exact for the small orders used here; accepts scalar or array x >= 0.

    Examples
    --------
    >>> laguerre_gen(2, 1.0, 2.0)
    -1.0
    """
    if n != int(n) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    if a <= -1.0:
        raise DomainError(f"a must be > -1, got {a}")
    import numpy as np

    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise DomainError("x must be >= 0")
    prev = np.zeros_like(xs)
    cur = np.ones_like(xs)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + a - xs) * cur - (k + a) * prev) / (k + 1)
    return float(cur) if np.isscalar(x) else cur


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0; a thin domain guard over math.lgamma."""
    if x <= 0.0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(x)


@dataclass(frozen=True)
class RadialFunction:
    """Evaluator for the normalized radial profile f_{n,m}(r).

    Calling it with r (scalar or array, in units of r0) assembles the
    prefactor in the log domain, so large mu never overflows.
    """

    ell: int
    sigma_ell: float
    n: int
    m: int
    mu: float
    log_norm: float = field(repr=False)

    def __call__(self, r):
        import numpy as np

        rs = np.asarray(r, dtype=float)
        if np.any(rs < 0.0):
            raise DomainError("r must be >= 0")
        x = 0.5 * rs * rs
        logx = np.log(np.where(x > 0.0, x, 1.0))
        axis = -np.inf if self.mu > 0.0 else 0.0  # limit of mu log x at the axis
        logpre = (self.log_norm - 0.5 * x
                  + np.where(x > 0.0, 0.5 * self.mu * logx, axis))
        value = np.exp(logpre) * laguerre_gen(self.n, self.mu, x)
        return float(value) if np.isscalar(r) else value

    def peak_radius(self) -> float:
        """Density maximum sqrt(2 mu) of the n = 0 profile."""
        if self.n != 0:
            raise DomainError("peak_radius is defined for n = 0 profiles")
        return math.sqrt(2.0 * self.mu)


def radial_wavefunction(ell: int, sigma_ell: float, n: int, m: int) -> RadialFunction:
    """Build the normalized radial eigenfunction f_{n,m}.

    The normalization C = sqrt(n! / Gamma(n + mu + 1)) is evaluated as
    exp(0.5 (log n! - log Gamma(n + mu + 1))); if that prefactor cannot be
    represented the state is outside the supported range.
    """
    if n != int(n) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    mu_nm = mu(ell, sigma_ell, m)
    log_norm = 0.5 * (log_gamma(n + 1.0) - log_gamma(n + mu_nm + 1.0))
    if not math.isfinite(log_norm) or abs(log_norm) > 700.0:
        raise DomainError(
            f"normalization prefactor out of representable range for mu={mu_nm}")
    return RadialFunction(ell, sigma_ell, n, m, mu_nm, log_norm)


def radial_profile(f: RadialFunction, r_max: float, n_points: int = 512) -> np.ndarray:
    """Tabulated (r, f(r)) pairs on a uniform grid, ready for dumping."""
    if r_max <= 0.0:
        raise DomainError(f"r_max must be > 0, got {r_max}")
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    import numpy as np

    r = np.linspace(0.0, r_max, n_points)
    return np.column_stack([r, f(r)])
