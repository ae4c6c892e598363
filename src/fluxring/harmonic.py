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
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError
from .ring import (_check, _number_array, _Record, _shown, _square_sum, _sweep_window,
                   ground_m)

# Energy unit of every trap table.
_UNIT_LABEL = "hbar*Omega"
# laguerre_gen runs n Python steps: 5 ms at this n for a scalar x, 31 ms on 2048 points
_MAX_ORDER = 10_000
_R_MAX = 1.8961503816218352e154  # the largest radius whose r^2/2 is finite

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
]


def mu(ell: int, sigma_ell: float, m: int) -> float:
    """Radial exponent mu_m = sqrt(ell^2 + m^2 + 2 sigma_ell m).

    The radicand is nonnegative whenever |sigma_ell| <= ell; anything
    negative means the requested state does not exist.  A radicand beyond
    the float range or a parameter outside its rule raises DomainError,
    as in ring_energy.
    """
    if type(ell) is not int or ell < 0:  # 4.5, "4" and -1 are no winding; 4.0 is 4
        ell = _check("ell", ell)
    if type(m) is not int:  # nor are 0.5 and "x" a state
        m = _check("m", m)
    if type(sigma_ell) is not float:  # a NaN or infinite float is caught below
        _check("sigma_ell", sigma_ell)
    radicand = _square_sum(ell, sigma_ell, m) + 2.0 * sigma_ell * m
    if not 0.0 <= radicand < math.inf:
        _check("sigma_ell", sigma_ell)
        if -math.inf < radicand < 0.0:
            raise DomainError(
                f"mu^2 = {radicand} < 0 for ell={ell}, sigma_ell={sigma_ell}, m={m}")
        raise DomainError(f"ell^2 + m^2 + 2 sigma_ell m exceeds the float range at "
                          f"ell={ell}, sigma_ell={sigma_ell}")
    return math.sqrt(radicand)


def harmonic_energy(ell: int, sigma_ell: float, n: int, m: int) -> float:
    """Trap level E_{n,m} = 2 n + mu_m + 1 in units of hbar*Omega; a level
    beyond the float range raises DomainError, as in ring_energy."""
    if type(n) is not int or n < 0:
        n = _check("n", n)
    mu_m = mu(ell, sigma_ell, m)
    try:
        energy = 2.0 * n + mu_m + 1.0
    except OverflowError:  # an n with no float
        energy = math.inf
    if energy == math.inf:
        raise DomainError(f"2 n + mu_m + 1 exceeds the float range at n={_shown(n)}")
    return energy


def ground_quantum_numbers(sigma_ell: float) -> tuple[int, int]:
    """(n, m) of the trap ground state: n = 0 and the same m as on a ring."""
    return 0, ground_m(sigma_ell)


def harmonic_gap(ell: int, sigma_ell: float) -> float:
    """Gap above E_{0, m_check}: the lower of the levels (0, m_check +- 1).

    With x = sigma_ell + m_check in [-1/2, 1/2], mu at m_check + k is
    sqrt((x + k)^2 + ell^2 - sigma_ell^2), which grows as x + k moves
    away from 0, so k = +1 and k = -1 are the lowest levels on each side.
    Both exist whenever mu at m_check does, since (x +- 1)^2 >= 1/4 >= x^2,
    and each lies at most sqrt(2) above it (at most 1 when
    |sigma_ell| <= ell), so the radial level (1, m_check), 2 above, never
    wins.  At sigma_ell = 0 the gap is sqrt(ell^2 + 1) - ell, which closes
    slowly with ell, and it vanishes exactly at half-integer sigma_ell.
    """
    if type(ell) is not int or ell < 0:
        ell = _check("ell", ell)
    mc = ground_m(sigma_ell)
    e0 = harmonic_energy(ell, sigma_ell, 0, mc)
    return min(harmonic_energy(ell, sigma_ell, 0, mc - 1),
               harmonic_energy(ell, sigma_ell, 0, mc + 1)) - e0


class HarmonicSweepRow(NamedTuple):
    """One row of the trap spectrum table.

    The field names are its columns and the annotations their types,
    which the CLI's table templates format by.
    """

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
    ms = range(-m_window, m_window + 1)
    rows: list[HarmonicSweepRow] = []
    new_row = tuple.__new__  # HarmonicSweepRow(...) without its __new__ frame
    for s in grid:
        gap = harmonic_gap(ell, s)
        e_min = harmonic_energy(ell, s, *ground_quantum_numbers(s))
        mus = [mu(ell, s, m) for m in ms]  # mu_m is the same at every n
        for n in range(3):
            level = 2.0 * n  # harmonic_energy's 2 n + mu + 1, summed in its order
            for m, mu_m in zip(ms, mus):
                energy = level + mu_m + 1.0
                rows.append(new_row(HarmonicSweepRow,
                                    (s, n, m, mu_m, energy, energy == e_min, gap)))
    return rows


def laguerre_gen(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^a(x) by the three-term recurrence.

    (k+1) L_{k+1} = (2k + 1 + a - x) L_k - (k + a) L_{k-1}

    from L_0 = 1 and L_1 = 1 + a - x (its k = 0 step, bit for bit).  x >= 0 is a
    scalar, which gives a float, or an array of bool, int or float dtype (text is
    no number), which gives an ndarray.  n <= 10000 and a finite > -1, or DomainError.

    Examples
    --------
    >>> laguerre_gen(2, 1.0, 2.0)
    -1.0
    """
    if type(n) is not int or n < 0:
        n = _check("n", n)
    if n > _MAX_ORDER:
        raise DomainError(f"n exceeds the {_MAX_ORDER}-step recurrence limit")
    if type(a) is not float or not -1.0 < a < math.inf:  # a profile's mu passes at once
        a = _check("a", a)
    import numpy as np

    xs = _number_array(x, "x")
    if not (xs >= 0.0).all():  # NaN fails it; .all() skips np.all's frame
        raise DomainError("x must be >= 0")
    prev, cur = 1.0, ((1.0 + a) - xs if n else np.ones(xs.shape))
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - xs) * cur - (k + a) * prev) / (k + 1)
    return float(cur) if np.isscalar(x) else cur


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0; a thin domain guard over math.lgamma."""
    if type(x) is not float or not x > 0.0:
        x = _check("x", x)
    return math.lgamma(x)


class RadialFunction(_Record):
    """Evaluator for the normalized radial profile f_{n,m}(r).

    Calling it with r in [0, _R_MAX], where r^2/2 is finite (scalar or array of
    bool, int or float dtype, in units of r0), builds the prefactor in the log
    domain, so large mu never overflows.  A frozen record of (ell, sigma_ell,
    n, m, mu, log_norm); repr leaves log_norm out.
    """

    __slots__ = ("ell", "sigma_ell", "n", "m", "mu", "log_norm")
    _HIDDEN = ("log_norm",)

    def __call__(self, r):
        import numpy as np

        rs = _number_array(r, "r")
        if not ((rs >= 0.0) & (rs <= _R_MAX)).all():  # NaN fails it; .all() skips np.all's frame
            raise DomainError(f"r must be in [0, {_R_MAX}]")
        x = 0.5 * rs * rs
        off_axis = x > 0.0
        logx = np.log(np.where(off_axis, x, 1.0))
        axis = -np.inf if self.mu > 0.0 else 0.0  # limit of mu log x at the axis
        logpre = self.log_norm - 0.5 * x + np.where(off_axis, 0.5 * self.mu * logx, axis)
        value = np.exp(logpre) * laguerre_gen(self.n, self.mu, x)
        return float(value) if np.isscalar(r) else value


def radial_wavefunction(ell: int, sigma_ell: float, n: int, m: int) -> RadialFunction:
    """Build the normalized radial eigenfunction f_{n,m}.

    The normalization C = sqrt(n! / Gamma(n + mu + 1)) is evaluated as
    exp(0.5 (log n! - log Gamma(n + mu + 1))); if that prefactor cannot be
    represented the state is outside the supported range.  n takes
    laguerre_gen's bound: an integer in [0, 10000], or DomainError.
    """
    if type(n) is not int or n < 0:
        n = _check("n", n)
    if n > _MAX_ORDER:
        raise DomainError(f"n exceeds the {_MAX_ORDER}-step recurrence limit")
    mu_nm = mu(ell, sigma_ell, m)
    log_norm = 0.5 * (log_gamma(n + 1.0) - log_gamma(n + mu_nm + 1.0))
    if not math.isfinite(log_norm) or abs(log_norm) > 700.0:
        raise DomainError(
            f"normalization prefactor out of representable range for mu={mu_nm}")
    return RadialFunction(ell, sigma_ell, n, m, mu_nm, log_norm)
