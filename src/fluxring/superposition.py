"""Ground-state superpositions of the two counter-fluxed dark states.

Superposing the dark states of case (i) or case (ii) couples, at fixed
angular momentum m, the sector threaded by +sigma_ell with the sector
threaded by -sigma_ell.  The coupled problem is a 2x2 pencil
H v = E A v.  Writing s = sqrt(1 - eps^2) and R = sqrt(sigma^2 + eps^2):

* case (i): A has off-diagonal eps e^{i theta} and H = c A + d sigma_z,
  so E(+-) = c -+ |d| / s.  On a ring c = ell^2 + m^2 and d = 2 sigma_ell m;
  in a trap c = eta_m = mu* + 1 - sigma_ell m / mu* and d = sigma_ell m / mu*.
* case (ii): A = 1 and H has off-diagonal -q eps e^{i theta} with
  q = 2 ell m (ring) or ell m / mu* (trap), so E(+-) = c -+ |q| R.

The physical level E_plus follows the unperturbed ground state E_0 by
continuity in eps, its shift delta_e = E_plus - E_0 is never positive,
and the superposition is worthwhile when |delta_e| stays below the
excitation gap.  All closed forms below are evaluated through the
cancellation-free identities 1 - s = eps^2 / (1 + s) and
R - sigma = eps^2 / (R + sigma).

Single points, sweep rows and boundary searches share one engine: the
checks and the block parameters depend on sigma_ell alone and are
computed once per row (_row), and so is the single-state gap g where a
verdict reads it (_gap); one kernel loop (_closed_forms) then
evaluates a row's epsilons, a whole sweep row per call.

The feasibility boundary is not searched for: |delta_e| = g inverts
exactly, at eps*^2 = u (2 - u) with u = g / (|d| + g) (that is,
g (2|d| + g) / (|d| + g)^2) in case (i) and at eps*^2 = t (2 sigma + t)
with t = g / |q| in case (ii).  As eps = exp(-delta_alpha^2 / k)
sqrt(1 - sigma^2), with k = 1 under the paper convention and 2 under the
standard one, delta_alpha* = sqrt(k ln(sqrt(1 - sigma^2) / eps*)), or 0
when eps* >= sqrt(1 - sigma^2).  Two floats beyond the inverses at
eps* (1 -+ 2^-50) bracket the first float whose kernel shift fits under
g, and bisecting the float bits (integers in the floats' order) finds
it: 4 to 7 kernel calls where g > 0.  A bracket that misses costs at
most 64 calls, never the result: a gap that rounds to 0, from ell ~ 7e7,
leaves eps* = 0, and only a shift that underflows to 0 fits.  The cap
20.0 only bounds the result: a boundary above it raises DomainError.
At sigma_ell = 0, m_check = 0 makes d = q = 0, and one explicit branch
returns 0.0.

Everything here is plain math, eigenvectors included (tuples of complex),
without numpy; the explicit pencil and its LAPACK solve live in the oracle.
"""

from __future__ import annotations

import math
import struct
import warnings
from collections.abc import Iterable, Sequence
from itertools import repeat
from typing import NamedTuple

from .darkstate import (FluxCase, _damping, _damping_scale, _delta_alpha_at, _spin_root,
                        case_of)
from .errors import CaseError, DegeneracyError, DomainError, ExpansionWarning, UsageError
from .harmonic import harmonic_gap
from .params import GeometryKind, as_geometry_kind
from .ring import (_check, _check_table_rows, _Record, _square_sum, _square_sum_error,
                   ground_m, ring_gap)

__all__ = [
    "SuperpositionResult",
    "superpose_ring",
    "superpose_harmonic",
    "small_eps_delta_e",
    "FeasibilityPoint",
    "feasibility_sweep",
    "feasibility_boundary",
]


class SuperpositionResult(_Record):
    """Closed-form solution of the coupled ground-state pair.

    xi and zeta are the E_plus and E_minus eigenvectors in the bare
    two-component form, as (upper, lower) tuples of complex; xi_unit and
    zeta_unit are normalized copies (A metric in case (i), Euclidean in
    case (ii)).  Tuples keep the result hashable and comparable with ==,
    and repr leaves all four out.  feasible compares |delta_e| strictly
    against the single-state gap; exact equality is reported as boundary
    instead.
    """

    __slots__ = ("case", "geometry", "ell", "sigma_ell", "epsilon", "theta", "m_check",
                 "e_zero", "e_plus", "e_minus", "delta_e", "gap", "mixing_ratio", "feasible",
                 "boundary", "xi", "zeta", "xi_unit", "zeta_unit")
    _HIDDEN = ("xi", "zeta", "xi_unit", "zeta_unit")

    def to_dict(self) -> dict:
        """JSON-ready mirror of the fields (complex vectors as [re, im] pairs)."""
        def cvec(v: tuple[complex, complex]) -> list[list[float]]:
            return [[float(z.real), float(z.imag)] for z in v]

        return {
            "case": self.case.value,
            "geometry": self.geometry.value,
            "ell": self.ell,
            "sigma_ell": self.sigma_ell,
            "epsilon": self.epsilon,
            "theta": self.theta,
            "m_check": self.m_check,
            "e_zero": self.e_zero,
            "e_plus": self.e_plus,
            "e_minus": self.e_minus,
            "delta_e": self.delta_e,
            "gap": self.gap,
            "mixing_ratio": self.mixing_ratio,
            "feasible": self.feasible,
            "boundary": self.boundary,
            "xi": cvec(self.xi),
            "zeta": cvec(self.zeta),
            "xi_unit": cvec(self.xi_unit),
            "zeta_unit": cvec(self.zeta_unit),
        }


def _is_half_integer(sigma_ell: float) -> bool:
    doubled = 2.0 * sigma_ell
    return doubled == round(doubled) and int(round(doubled)) % 2 != 0


def _block_parameters(geometry: GeometryKind, ell: int, sigma_ell: float,
                      m: int) -> tuple[float, float, float]:
    """Center c, diagonal split d, and coupling scale q of the block at m.

    The block couples the +sigma_ell and -sigma_ell sectors at fixed m:
    H = [[c + d, .], [., c - d]] with off-diagonal q_eff e^{i theta},
    where q_eff = eps * c in case (i) and q_eff = -q * eps in case (ii).
    """
    squares = _square_sum(ell, sigma_ell, m)
    if geometry is GeometryKind.RING:
        center = squares
        d = 2.0 * sigma_ell * m
        q = 2.0 * ell * m
    else:
        radicand = squares - 2.0 * abs(sigma_ell * m)
        if radicand < 0.0:
            raise DomainError(
                f"radial exponent undefined for ell={ell}, sigma_ell={sigma_ell}, m={m}")
        mu_star = math.sqrt(radicand)
        if mu_star == 0.0:
            raise DomainError(
                f"radial exponent vanishes for ell={ell}, sigma_ell={sigma_ell}, m={m}")
        center = mu_star + 1.0 + abs(sigma_ell * m) / mu_star
        d = sigma_ell * m / mu_star
        q = ell * m / mu_star
    return center, d, q


class _Row(NamedTuple):
    """Everything a superposition depends on except epsilon and the gap.

    One value serves a whole sweep row or boundary search at fixed
    sigma_ell; sigma is 0 in case (i), where no closed form reads it.
    """

    case_i: bool  # not the FluxCase: a member lookup costs ~0.1 us per point
    ell: int
    sigma_ell: float
    m_check: int
    center: float
    d: float
    q: float
    sigma: float


def _spin(ell: int, sigma_ell: float) -> float:
    """The mean spin sigma = sigma_ell / ell.  An ell with no float has no
    float ell^2 either, so it raises the DomainError of ell^2 + m^2."""
    try:
        return sigma_ell / ell
    except OverflowError:
        raise _square_sum_error(ell, sigma_ell) from None


def _degenerate(sigma_ell: float) -> str:
    return f"sigma_ell = {sigma_ell} makes the single-state ground level degenerate"


def _row(kind: FluxCase, geo: GeometryKind, ell: int, sigma_ell: float, epsilon: float,
         theta: float, stacklevel: int) -> _Row:
    """Run every check of a superposition at (sigma_ell, epsilon), in order,
    and return the invariants of its row.

    Later points of the row need only the epsilon rule, which
    _closed_forms runs.  The case (ii) sigma = 0 warning points stacklevel
    frames up.
    """
    if kind is FluxCase.NEITHER:
        raise CaseError("superpositions exist only for case (i) or case (ii)")
    if type(theta) is not float or theta - theta != 0.0:  # NaN for inf and NaN
        _check("theta", theta)
    if type(ell) is not int or ell < 0:
        ell = _check("ell", ell)
    if type(epsilon) is not float or not 0.0 <= epsilon < 1.0:
        _check("epsilon", epsilon)
    mc = ground_m(sigma_ell)  # the sigma_ell rule, which _is_half_integer needs passed
    if abs(sigma_ell) > ell:
        raise DomainError(f"|sigma_ell| = {abs(sigma_ell)} exceeds ell = {ell} (|sigma| > 1)")
    if _is_half_integer(sigma_ell):
        raise DegeneracyError(_degenerate(sigma_ell))
    sigma = 0.0
    if kind is FluxCase.CASE_II:
        if ell == 0:
            raise DomainError("case (ii) needs ell >= 1 to define the mean spin")
        sigma = _spin(ell, sigma_ell)
        if sigma < 0.0:
            raise DomainError(f"case (ii) requires sigma > 0, got {sigma}")
        if sigma == 0.0:
            warnings.warn("case (ii) with sigma = 0: the small-eps expansion is "
                          "singular, exact forms remain valid", ExpansionWarning,
                          stacklevel=stacklevel)
    center, d, q = _block_parameters(geo, ell, sigma_ell, mc)
    # _Row(...) without its __new__ frame
    return tuple.__new__(_Row, (kind is FluxCase.CASE_I, ell, float(sigma_ell), mc,
                                center, d, q, sigma))


def _gap(geo: GeometryKind, ell: int, sigma_ell: float) -> float:
    """The single-state gap a verdict compares |delta_e| with.

    Callers take it right after _row, so its errors (an energy beyond
    the float range) come before any later check; the block scan, which
    judges nothing, never computes it.
    """
    return ring_gap(ell, sigma_ell) if geo is GeometryKind.RING else harmonic_gap(ell, sigma_ell)


def _closed_forms(row: _Row, epsilons: Iterable[float]) -> list[float]:
    """delta_e, mixing ratio, xi[1] and zeta[1] of the row's block at each
    epsilon: four floats per epsilon, in order, in one flat list.

    The kernel behind every single point, sweep row and boundary step:
    plain math on floats, one loop per call, so a sweep row reproduces
    the single point bit for bit.  Each epsilon is checked in turn.
    xi[1] and zeta[1] are the lower components of the bare E_plus and
    E_minus eigenvectors.
    """
    out: list[float] = []
    if row.case_i:
        d = row.d
        sqrt = math.sqrt
        for eps in epsilons:
            if not 0.0 <= eps < 1.0:
                _check("epsilon", eps)
            s = sqrt(1.0 - eps * eps)
            one_plus_s = 1.0 + s
            one_minus_s = eps * eps / one_plus_s
            out += (d * one_minus_s / s, (eps / one_plus_s) ** 2, one_minus_s, one_plus_s)
        return out
    sigma = row.sigma
    coupling = -abs(row.q)
    hypot = math.hypot
    for eps in epsilons:
        if not 0.0 <= eps < 1.0:
            _check("epsilon", eps)
        r_plus_sigma = hypot(sigma, eps) + sigma
        if r_plus_sigma > 0.0:
            r_minus_sigma = eps * eps / r_plus_sigma
            mixing = (eps / r_plus_sigma) ** 2
        else:
            r_minus_sigma = mixing = 0.0
        out += (coupling * r_minus_sigma, mixing, -r_minus_sigma, r_plus_sigma)
    return out


def _superpose(case, geometry, ell: int, sigma_ell: float, epsilon: float,
               theta: float) -> SuperpositionResult:
    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    row = _row(kind, geo, ell, sigma_ell, epsilon, theta, stacklevel=4)
    gap = _gap(geo, row.ell, sigma_ell)
    delta_e, mixing, xi_low, zeta_low = _closed_forms(row, (epsilon,))
    center, d = row.center, row.d
    e_zero = center + d  # sgn(sigma_ell * m_check) <= 0 keeps d <= 0 here
    phase = complex(math.cos(theta), math.sin(theta))
    upper = (-epsilon if row.case_i else epsilon) * phase
    xi = (upper, xi_low + 0.0j)
    zeta = (upper, zeta_low + 0.0j)
    shift = abs(delta_e)
    kappa = epsilon * phase if row.case_i else 0.0j  # off-diagonal of the metric

    def unit(v: tuple[complex, complex],
             fallback: tuple[complex, complex]) -> tuple[complex, complex]:
        v0, v1 = v
        cross = v0.conjugate() * kappa * v1
        norm2 = ((v0.real * v0.real + v0.imag * v0.imag)
                 + (v1.real * v1.real + v1.imag * v1.imag)) + 2.0 * cross.real
        if norm2 <= 0.0:
            return fallback
        scale = 1.0 / math.sqrt(norm2)
        # complex-by-real division as numpy rounds it: times the reciprocal,
        # with the divisor's zero imaginary part kept in both sums
        return (complex((v0.real + v0.imag * 0.0) * scale, (v0.imag - v0.real * 0.0) * scale),
                complex((v1.real + v1.imag * 0.0) * scale, (v1.imag - v1.real * 0.0) * scale))

    # positional, in field order: the record's fast path
    return SuperpositionResult(
        kind, geo, row.ell, row.sigma_ell, float(epsilon), float(theta), row.m_check,
        e_zero, e_zero + delta_e, (center - d) - delta_e, delta_e, gap, mixing,
        shift < gap, shift == gap, xi, zeta,
        unit(xi, (1.0 + 0.0j, 0.0j)), unit(zeta, (0.0j, 1.0 + 0.0j)))


def superpose_ring(case, ell: int, sigma_ell: float, epsilon: float,
                   theta: float = 0.0) -> SuperpositionResult:
    """Coupled ground-state pair on a ring.

    Case (i): E(+-) = (ell^2 + m^2) -+ |2 sigma_ell m| / sqrt(1 - eps^2) at
    m = m_check, with eigenvectors [-eps e^{i theta}, 1 -+ sqrt(1 - eps^2)].
    Case (ii): E(+-) = (ell^2 + m^2) -+ 2 |ell m| sqrt(sigma^2 + eps^2), with
    eigenvectors [eps e^{i theta}, sigma -+ sqrt(sigma^2 + eps^2)].

    delta_e = e_plus - e_zero is <= 0 and the mixing ratio equals
    eps^2 / (1 + sqrt(1 - eps^2))^2 in case (i) and
    eps^2 / (sigma + sqrt(sigma^2 + eps^2))^2 in case (ii).
    """
    return _superpose(case, GeometryKind.RING, ell, sigma_ell, epsilon, theta)


def superpose_harmonic(case, ell: int, sigma_ell: float, epsilon: float,
                       theta: float = 0.0) -> SuperpositionResult:
    """Coupled ground-state pair in the harmonic trap.

    Same structure as the ring with center eta = mu + 1 - sigma_ell m / mu
    and splitting sigma_ell m / mu at m = m_check, where mu is the radial
    exponent of the favored sector.  delta_e reduces to
    (sigma_ell m / mu) (1/sqrt(1 - eps^2) - 1) in case (i) and
    (ell m / mu) (sqrt(sigma^2 + eps^2) - sigma) in case (ii).
    """
    return _superpose(case, GeometryKind.HARMONIC, ell, sigma_ell, epsilon, theta)


def small_eps_delta_e(case, geometry, ell: int, sigma_ell: float,
                      epsilon: float) -> float:
    """Leading small-eps energy shift of the superposed ground state.

    ring, case (i):  -|sigma_ell * m_check| eps^2
    ring, case (ii):  (ell * m_check / sigma) eps^2
    trap, case (i):  -|sigma_ell * m_check| eps^2 / (2 mu)
    trap, case (ii):  (ell * m_check / (2 sigma mu)) eps^2

    ell, epsilon and sigma_ell face the checks of superpose_*, in the
    same order, except that a degenerate ground level (half-integer
    sigma_ell) warns and is evaluated at the lower m_check.  Trusted for
    eps <= 0.3; larger values warn and are still evaluated.  The case
    (ii) forms are singular at sigma = 0, where only the exact
    expressions in superpose_* apply.
    """
    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    if kind is FluxCase.NEITHER:
        raise CaseError("expansion exists only for case (i) or case (ii)")
    if type(ell) is not int or ell < 0:
        ell = _check("ell", ell)
    _check("epsilon", epsilon)
    mc = ground_m(sigma_ell)
    if abs(sigma_ell) > ell:
        raise DomainError(f"|sigma_ell| = {abs(sigma_ell)} exceeds ell = {ell} (|sigma| > 1)")
    if kind is FluxCase.CASE_II:
        if ell == 0:
            raise DomainError("case (ii) needs ell >= 1 to define the mean spin")
        sigma = _spin(ell, sigma_ell)
        if sigma <= 0.0:
            raise DomainError("case (ii) expansion is singular at sigma <= 0")
    if _is_half_integer(sigma_ell):
        warnings.warn(_degenerate(sigma_ell) + "; the expansion takes the lower m",
                      ExpansionWarning, stacklevel=2)
    if epsilon > 0.3:
        warnings.warn(f"small-eps expansion evaluated at eps = {epsilon} > 0.3",
                      ExpansionWarning, stacklevel=2)
    eps2 = epsilon * epsilon
    # d = 2 sigma_ell m, q = 2 ell m on a ring; sigma_ell m / mu, ell m / mu in
    # a trap.  Halving d first is exact, so a subnormal shift is rounded once
    _, d, q = _block_parameters(geo, ell, sigma_ell, mc)
    if kind is FluxCase.CASE_I:
        return -abs(d) / 2.0 * eps2
    return q * eps2 / (2.0 * sigma)


class FeasibilityPoint(NamedTuple):
    """One grid point of a feasibility sweep; the field names are its columns."""

    sigma_ell: float
    delta_alpha: float
    epsilon: float
    delta_e: float
    gap: float
    mixing_ratio: float
    feasible: bool


def _check_sweep_sigma_ell(ell: int, sigma_ell: float) -> None:
    """Sweeps and boundary searches take integer sigma_ell with |sigma_ell| < ell."""
    if not float(sigma_ell).is_integer():
        raise UsageError(f"sigma_ell grid must be integers, got {sigma_ell}")
    if abs(sigma_ell) >= ell:
        raise UsageError(f"|sigma_ell| = {abs(sigma_ell)} must stay below ell = {ell}")


def feasibility_sweep(case, geometry, ell: int,
                      sigma_ell_values: Sequence[float] | Iterable[float],
                      delta_alpha_values: Sequence[float] | Iterable[float],
                      theta: float = 0.0,
                      convention: str = "paper") -> list[FeasibilityPoint]:
    """Grid of shift-versus-gap verdicts over integer sigma_ell and delta_alpha.

    sigma_ell entries must be integers with |sigma_ell| < ell (they come
    from integer windings at fixed mean spin); delta_alpha sets epsilon
    through the coherent-state overlap.  Every grid point is emitted with
    its mixing ratio and feasible flag so the infeasible region stays
    visible in the output.  ell and each grid entry face their rules
    first; a delta_alpha that is a float faces its rule in its point's turn.
    """
    if type(ell) is not int or ell < 0:
        ell = _check("ell", ell)
    sig_grid = [_check("sigma_ell", s) for s in sigma_ell_values]
    da_grid = [float(d) if isinstance(d, float) else _check("delta_alpha", d)
               for d in delta_alpha_values]
    if not sig_grid or not da_grid:
        raise UsageError("feasibility grid is empty")
    _check_table_rows(len(sig_grid) * len(da_grid),
                      "the sigma_ell grid times the delta_alpha grid")
    for s in sig_grid:
        _check_sweep_sigma_ell(ell, s)
    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    points: list[FeasibilityPoint] = []
    new_point = tuple.__new__  # FeasibilityPoint(...) without its __new__ frame
    # epsilon_param(da, s / ell) is damps[column] * root, each factor computed once
    damps: list[float] = []
    for s in sig_grid:
        root = _spin_root(_spin(ell, s))
        if damps:
            row = _row(kind, geo, ell, s, damps[0] * root, theta, stacklevel=3)
            gap = _gap(geo, row.ell, s)
        else:
            # the first row checks each delta_alpha in its point's turn, so the
            # errors come in the order of a point-by-point sweep
            row = None
            for da in da_grid:
                damp = _damping(da, convention)
                if row is None:
                    row = _row(kind, geo, ell, s, damp * root, theta, stacklevel=3)
                    gap = _gap(geo, row.ell, s)
                elif not 0.0 <= damp * root < 1.0:
                    _check("epsilon", damp * root)
                damps.append(damp)
        epsilons = [damp * root for damp in damps]
        forms = _closed_forms(row, epsilons)
        delta_e, mixing = forms[0::4], forms[1::4]
        points += map(new_point, repeat(FeasibilityPoint),
                      zip(repeat(s), da_grid, epsilons, delta_e, repeat(gap), mixing,
                          [abs(shift) < gap for shift in delta_e]))
    return points


def _bits(x: float) -> int:
    """The IEEE bits of a float >= 0: integers in the same order as the floats."""
    return int.from_bytes(struct.pack("<d", x), "little")


def _float(n: int) -> float:
    return struct.unpack("<d", n.to_bytes(8, "little"))[0]


def feasibility_boundary(case, geometry, ell: int, sigma_ell: float,
                         theta: float = 0.0, convention: str = "paper") -> float:
    """Smallest delta_alpha with |delta_e| <= gap, by bisecting the float bits
    from the closed-form bracket (module docstring): at most 64 kernel calls.
    sigma_ell = 0 gives 0.0; a result above 20.0, or none, raises DomainError.
    ell and sigma_ell face their rules before they are compared."""
    if type(ell) is not int or ell < 0:
        ell = _check("ell", ell)
    _check_sweep_sigma_ell(ell, _check("sigma_ell", sigma_ell))
    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    root = _spin_root(_spin(ell, sigma_ell))
    scale = _damping_scale(convention)
    # any epsilon below 1 runs the same checks; the warning skips _row and this frame
    row = _row(kind, geo, ell, sigma_ell, 0.0, theta, stacklevel=3)
    gap = _gap(geo, row.ell, sigma_ell)
    if row.m_check == 0:  # d = q = 0: nothing shifts
        return 0.0
    g = max(gap, 0.0)  # eps* = 0 under a gap <= 0, as rounding makes it from ell ~ 7e7
    u = g / (abs(row.d) + g) if row.case_i else g / abs(row.q)
    eps = math.sqrt(u * (2.0 - u) if row.case_i else u * (2.0 * row.sigma + u))
    # lo's float does not fit (-1: not even 0.0 is known to), up's does; the first two
    # probes, two floats beyond the inverses at eps* (1 -+ 2^-50), narrow that to a few
    probes = [_bits(_delta_alpha_at(eps * (1.0 + 2.0**-50), root, scale)) - 2,
              _bits(_delta_alpha_at(eps * (1.0 - 2.0**-50), root, scale)) + 2]
    lo, up = -1, _bits(math.inf)
    while up - lo > 1:
        mid = probes.pop() if probes else (lo + up) // 2
        if lo < mid < up:  # a probe outside the bracket is skipped
            fits = abs(_closed_forms(row, (_damping(_float(mid), convention) * root,))[0]) <= gap
            lo, up = (lo, mid) if fits else (mid, up)
    da = _float(up)
    if not da <= 20.0:  # the cap on the result, inf included
        raise DomainError("no feasible delta_alpha below 20.0")
    return da
