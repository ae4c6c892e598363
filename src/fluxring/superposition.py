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
checks, the block parameters and the gap depend on sigma_ell alone and
are computed once per row (_row); each epsilon then costs one scalar
kernel call (_closed_form).  A pencil, one 2x2 block or a (k, 2, 2)
stack sharing one overlap, is built by build_block, checked (finite,
Hermitian, |eps| < 1) by GenEig2 and solved by gen_eig_2x2; the
oracle's block scan is the stacked case of the same calls.

Points, sweeps and boundaries are plain math, eigenvectors included
(tuples of complex), so they run without numpy; only the pencil code
(GenEig2, gen_eig_2x2, build_block) imports it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .darkstate import FluxCase, case_of, epsilon_param
from .errors import (CaseError, DegeneracyError, DomainError, ExpansionWarning,
                     SingularOverlapError, UsageError, VerificationError)
from .harmonic import harmonic_gap
from .params import GeometryKind, as_geometry_kind
from .ring import _check_table_rows, ground_m, ring_gap

if TYPE_CHECKING:  # the pencil code imports numpy, so points and sweeps load without it
    import numpy as np

__all__ = [
    "GenEig2",
    "gen_eig_2x2",
    "SuperpositionResult",
    "build_block",
    "superpose_ring",
    "superpose_harmonic",
    "small_eps_delta_e",
    "FeasibilityPoint",
    "feasibility_sweep",
    "feasibility_boundary",
]

_RESIDUAL_TOL = 1e-12
_HERMITICITY_TOL = 1e-13


@dataclass(frozen=True)
class GenEig2:
    """A 2x2 generalized eigenproblem H v = E A v, or a stack of them.

    h is one 2x2 block or a (k, 2, 2) stack of blocks; every block must
    be Hermitian.  a is the one overlap they share, the unit-diagonal
    [[1, eps e^{i theta}], [conj, 1]] with eps < 1.  Every entry of h
    and a must be finite, and so must its magnitude.  The checks run on
    construction, before any arithmetic that could warn, and raise
    DomainError (SingularOverlapError for eps >= 1).
    """

    h: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        import cmath

        import numpy as np

        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 3 or h.shape[1:] != (2, 2):
            h = h.reshape(2, 2)
        a = np.asarray(self.a, dtype=complex).reshape(2, 2)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "a", a)
        # every comparison below is written so that NaN fails it
        scale = np.abs(h).max(axis=(-2, -1), initial=1.0)
        if not (scale < math.inf).all():
            raise DomainError("h must be finite")
        a00, a01, a10, a11 = a.ravel().tolist()
        if not all(map(cmath.isfinite, (a00, a01, a10, a11))):
            raise DomainError("a must be finite")
        skew = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        if not (skew <= _HERMITICITY_TOL * scale).all():
            raise DomainError("h is not Hermitian")
        try:
            if not (abs(a00 - 1.0) <= _HERMITICITY_TOL and abs(a11 - 1.0) <= _HERMITICITY_TOL):
                raise DomainError("a must have unit diagonal")
            if not abs(a10 - a01.conjugate()) <= _HERMITICITY_TOL:
                raise DomainError("a is not Hermitian")
            magnitude = abs(a01)
        except OverflowError:  # the abs of a complex with finite parts can overflow
            raise DomainError("a has an entry beyond the float range") from None
        if not magnitude < 1.0:
            raise SingularOverlapError(
                f"overlap magnitude {magnitude} >= 1 leaves the metric indefinite")
        object.__setattr__(self, "_scale", scale)  # the residual check reuses it


def gen_eig_2x2(problem: GenEig2 | tuple) -> tuple[np.ndarray, np.ndarray]:
    """Solve the 2x2 pencil H v = E A v by congruence with A^(-1/2).

    Returns (eigenvalues ascending, eigenvectors as columns, normalized
    in the A metric), shaped (2,) and (2, 2) for one block and (k, 2) and
    (k, 2, 2) for a (k, 2, 2) stack; a bare (h, a) tuple is checked as a
    GenEig2 first.  The overlap's eigenbasis is analytic, so A^(-1/2) is
    closed form; all blocks go to LAPACK in one np.linalg.eigh call, and
    each block's residual must stay within 1e-12 of its largest entry
    (VerificationError).  A block gives the same bits alone or stacked.

    Examples
    --------
    >>> vals, _ = gen_eig_2x2(GenEig2([[15, 1.7], [1.7, 19]],
    ...                               [[1, 0.1], [0.1, 1]]))
    >>> round(float(vals[0]), 7)
    14.9899244
    """
    import numpy as np

    if not isinstance(problem, GenEig2):
        problem = GenEig2(*problem)
    h, a = problem.h, problem.a
    c = a[0, 1]
    eps = abs(c)
    # componentwise division: complex c / eps overflows internally when
    # eps is subnormal, the real quotients never do
    phase = complex(c.real / eps, c.imag / eps) if eps > 0.0 else 1.0 + 0.0j
    # A = I + eps K has eigenvectors (1, +-e^{-i theta})/sqrt(2), values 1 +- eps
    ip = 1.0 / math.sqrt(1.0 + eps)
    im = 1.0 / math.sqrt(1.0 - eps)
    p_half = 0.5 * (ip + im)
    q_half = 0.5 * (ip - im) * phase
    a_inv_half = np.array([[p_half, q_half], [q_half.conjugate(), p_half]])
    b = a_inv_half @ h @ a_inv_half
    # scrub rounding skew before the Hermitian solve
    b = 0.5 * (b + b.conj().swapaxes(-1, -2))
    vals, w = np.linalg.eigh(b)
    vecs = a_inv_half @ w
    scale = problem._scale
    residual = np.abs(h @ vecs - (a @ vecs) * vals[..., None, :]).max(axis=(-2, -1))
    ok = residual <= _RESIDUAL_TOL * scale  # a NaN residual fails too
    if not ok.all():
        first = np.argmin(ok)  # flat index of the first failing block
        raise VerificationError(f"pencil residual {residual.flat[first]} exceeds "
                                f"{_RESIDUAL_TOL * scale.flat[first]}")
    return vals, vecs


@dataclass(frozen=True)
class SuperpositionResult:
    """Closed-form solution of the coupled ground-state pair.

    xi and zeta are the E_plus and E_minus eigenvectors in the bare
    two-component form, as (upper, lower) tuples of complex; xi_unit and
    zeta_unit are normalized copies (A metric in case (i), Euclidean in
    case (ii)).  Tuples keep the result hashable and comparable with ==.  feasible compares
    |delta_e| strictly against the single-state gap; exact equality is
    reported as boundary instead.
    """

    case: FluxCase
    geometry: GeometryKind
    ell: int
    sigma_ell: float
    epsilon: float
    theta: float
    m_check: int
    e_zero: float
    e_plus: float
    e_minus: float
    delta_e: float
    gap: float
    mixing_ratio: float
    feasible: bool
    boundary: bool
    xi: tuple[complex, complex] = field(repr=False)
    zeta: tuple[complex, complex] = field(repr=False)
    xi_unit: tuple[complex, complex] = field(repr=False)
    zeta_unit: tuple[complex, complex] = field(repr=False)

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
    if geometry is GeometryKind.RING:
        center = float(ell * ell + m * m)
        d = 2.0 * sigma_ell * m
        q = 2.0 * ell * m
    else:
        radicand = ell * ell + m * m - 2.0 * abs(sigma_ell * m)
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


def _check_theta(theta: float) -> None:
    """Every route into a block rejects a non-finite relative phase."""
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")


def build_block(case, geometry, ell: int, sigma_ell: float, epsilon: float,
                theta: float = 0.0, m: int | Iterable[int] | None = None) -> GenEig2:
    """Explicit (H, A) pencil of the two-sector block at angular momentum m.

    m defaults to the ground-state value.  A sequence of integers for m
    (a range, say) gives a (len(m), 2, 2) stack of H, one block per m in
    order, against the one overlap A they share.  This is the matrix the
    closed forms in superpose_ring / superpose_harmonic diagonalize;
    feeding it to gen_eig_2x2 provides the independent numerical route,
    and superposition_block_scan solves its stacked form.  epsilon and
    theta face the checks of superpose_*: 0 <= epsilon < 1 and a finite
    theta.
    """
    import numpy as np

    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    _check_theta(theta)
    _check_epsilon(epsilon)
    stacked = isinstance(m, Iterable)
    ms = m if stacked else (ground_m(sigma_ell) if m is None else m,)
    params = [_block_parameters(geo, ell, sigma_ell, mm) for mm in ms]
    phase = complex(math.cos(theta), math.sin(theta))
    case_i = kind is FluxCase.CASE_I
    if case_i:
        a01 = epsilon * phase
    elif kind is FluxCase.CASE_II:
        a01 = 0.0 + 0.0j
    else:
        raise CaseError("blocks exist only for case (i) or case (ii)")
    entries: list[complex] = []  # row-major, four per block
    for center, d, q in params:
        off = epsilon * center * phase if case_i else -q * epsilon * phase
        entries += (center + d, off, off.conjugate(), center - d)
    h = np.array(entries, dtype=complex).reshape((-1, 2, 2) if stacked else (2, 2))
    return GenEig2(h, np.array([[1.0, a01], [a01.conjugate(), 1.0]]))


class _Row(NamedTuple):
    """Everything a superposition depends on except epsilon.

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
    gap: float


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon >= 1.0:
        raise SingularOverlapError(f"epsilon = {epsilon} >= 1")


def _row(kind: FluxCase, geo: GeometryKind, ell: int, sigma_ell: float, epsilon: float,
         theta: float, stacklevel: int) -> _Row:
    """Run every check of a superposition at (sigma_ell, epsilon), in order,
    and return the invariants of its row.

    Later points of the row need only _check_epsilon, which _closed_form
    runs.  The case (ii) sigma = 0 warning points stacklevel frames up.
    """
    if kind is FluxCase.NEITHER:
        raise CaseError("superpositions exist only for case (i) or case (ii)")
    _check_theta(theta)
    if ell != int(ell) or ell < 0:
        raise DomainError(f"ell must be a nonnegative integer, got {ell}")
    ell = int(ell)
    _check_epsilon(epsilon)
    if abs(sigma_ell) > ell:
        raise DomainError(
            f"|sigma_ell| = {abs(sigma_ell)} exceeds ell = {ell} (|sigma| > 1)")
    if _is_half_integer(sigma_ell):
        raise DegeneracyError(
            f"sigma_ell = {sigma_ell} makes the single-state ground level degenerate")
    sigma = 0.0
    if kind is FluxCase.CASE_II:
        if ell == 0:
            raise DomainError("case (ii) needs ell >= 1 to define the mean spin")
        sigma = sigma_ell / ell
        if sigma < 0.0:
            raise DomainError(f"case (ii) requires sigma > 0, got {sigma}")
        if sigma == 0.0:
            warnings.warn("case (ii) with sigma = 0: the small-eps expansion is "
                          "singular, exact forms remain valid", ExpansionWarning,
                          stacklevel=stacklevel)
    mc = ground_m(sigma_ell)
    center, d, q = _block_parameters(geo, ell, sigma_ell, mc)
    gap = (ring_gap(ell, sigma_ell) if geo is GeometryKind.RING
           else harmonic_gap(ell, sigma_ell))
    return _Row(kind is FluxCase.CASE_I, ell, float(sigma_ell), mc, center, d, q, sigma, gap)


def _closed_form(row: _Row, epsilon: float) -> tuple[float, float, float, float]:
    """(delta_e, mixing ratio, xi[1], zeta[1]) of the row's block at epsilon.

    The scalar kernel behind every single point, sweep and boundary
    search: plain math on floats, so a sweep row reproduces the single
    point bit for bit.  xi[1] and zeta[1] are the lower components of
    the bare E_plus and E_minus eigenvectors.
    """
    if not 0.0 <= epsilon < 1.0:
        _check_epsilon(epsilon)
    if row.case_i:
        s = math.sqrt(1.0 - epsilon * epsilon)
        one_minus_s = epsilon * epsilon / (1.0 + s)
        return (row.d * one_minus_s / s, (epsilon / (1.0 + s)) ** 2,
                one_minus_s, 1.0 + s)
    sigma = row.sigma
    radius = math.hypot(sigma, epsilon)
    if radius + sigma > 0.0:
        r_minus_sigma = epsilon * epsilon / (radius + sigma)
        mixing = (epsilon / (radius + sigma)) ** 2
    else:
        r_minus_sigma = mixing = 0.0
    return -abs(row.q) * r_minus_sigma, mixing, -r_minus_sigma, sigma + radius


def _superpose(case, geometry, ell: int, sigma_ell: float, epsilon: float,
               theta: float) -> SuperpositionResult:
    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    row = _row(kind, geo, ell, sigma_ell, epsilon, theta, stacklevel=4)
    delta_e, mixing, xi_low, zeta_low = _closed_form(row, epsilon)
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
        return tuple(complex((z.real + z.imag * 0.0) * scale,
                             (z.imag - z.real * 0.0) * scale) for z in v)

    return SuperpositionResult(
        case=kind, geometry=geo, ell=row.ell, sigma_ell=row.sigma_ell,
        epsilon=float(epsilon), theta=float(theta), m_check=row.m_check,
        e_zero=e_zero, e_plus=e_zero + delta_e, e_minus=(center - d) - delta_e,
        delta_e=delta_e, gap=row.gap, mixing_ratio=mixing, feasible=shift < row.gap,
        boundary=shift == row.gap, xi=xi, zeta=zeta,
        xi_unit=unit(xi, (1.0 + 0.0j, 0.0j)), zeta_unit=unit(zeta, (0.0j, 1.0 + 0.0j)))


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

    Trusted for eps <= 0.3; larger values warn and are still evaluated.
    The case (ii) forms are singular at sigma = 0, where only the exact
    expressions in superpose_* apply.
    """
    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    if kind is FluxCase.NEITHER:
        raise CaseError("expansion exists only for case (i) or case (ii)")
    if epsilon < 0.0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon > 0.3:
        warnings.warn(f"small-eps expansion evaluated at eps = {epsilon} > 0.3",
                      ExpansionWarning, stacklevel=2)
    mc = ground_m(sigma_ell)
    eps2 = epsilon * epsilon
    if kind is FluxCase.CASE_II:
        if ell == 0:
            raise DomainError("case (ii) needs ell >= 1 to define the mean spin")
        sigma = sigma_ell / ell
        if sigma <= 0.0:
            raise DomainError("case (ii) expansion is singular at sigma <= 0")
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
    visible in the output.
    """
    sig_grid = [float(s) for s in sigma_ell_values]
    da_grid = [float(d) for d in delta_alpha_values]
    if not sig_grid or not da_grid:
        raise UsageError("feasibility grid is empty")
    _check_table_rows(len(sig_grid) * len(da_grid),
                      "the sigma_ell grid times the delta_alpha grid")
    for s in sig_grid:
        _check_sweep_sigma_ell(ell, s)
    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    points: list[FeasibilityPoint] = []
    for s in sig_grid:
        sigma = s / ell
        row = None
        for da in da_grid:
            eps = epsilon_param(da, sigma, convention)
            if row is None:
                row = _row(kind, geo, ell, s, eps, theta, stacklevel=3)
            delta_e, mixing, _, _ = _closed_form(row, eps)
            points.append(FeasibilityPoint(s, da, eps, delta_e, row.gap, mixing,
                                           abs(delta_e) < row.gap))
    return points


def feasibility_boundary(case, geometry, ell: int, sigma_ell: float,
                         theta: float = 0.0, convention: str = "paper",
                         hi: float = 20.0) -> float:
    """Smallest delta_alpha with |delta_e| <= gap, found by bisection.

    Returns 0.0 when even delta_alpha = 0 is feasible.  |delta_e| is
    monotone decreasing in delta_alpha, so the root is unique.  At
    sigma_ell = 0 the delta_alpha = 0 point itself is singular (the two
    coherent states coincide), so the edge is decided by its one-sided
    limit instead.
    """
    _check_sweep_sigma_ell(ell, sigma_ell)
    kind = case_of(case)
    geo = as_geometry_kind(geometry)
    sigma = sigma_ell / ell

    row = None

    def excess(da: float) -> float:
        nonlocal row
        eps = epsilon_param(da, sigma, convention)
        if row is None:
            # the warning skips _row, this closure and feasibility_boundary
            row = _row(kind, geo, ell, sigma_ell, eps, theta, stacklevel=4)
        return abs(_closed_form(row, eps)[0]) - row.gap

    lo = 0.0
    try:
        if excess(lo) <= 0.0:
            return 0.0
    except SingularOverlapError:
        lo = 1e-6  # small enough that exp(-da^2) still rounds below 1
        if excess(lo) <= 0.0:
            return 0.0
    if excess(hi) > 0.0:
        raise DomainError(f"no feasible delta_alpha below {hi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi
