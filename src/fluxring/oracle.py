"""Independent numerical routes for every closed form in the package.

Nothing here reuses the analytic spectra: eigenvalues come from LAPACK
on an assembled finite-difference matrix, from the exact Fourier
diagonalization of the ring finite-difference circulant, or, on the
radial tridiagonal, from Rayleigh-quotient iteration (LAPACK ?gtsv) started
at a coarser copy's levels and certified by a Sturm count (LAPACK ?stebz).
Radial norms and overlaps come from graded Gauss-Legendre rules that
refine until two orders agree.  The routes are independent of the
closed forms, not of LAPACK.  Agreement between these routes and the
closed forms is what the verify suite and the acceptance tests certify.
scipy.linalg is imported only by the radial route, so importing this
module loads numpy alone, and no route needs scipy.integrate.

The 2x2 two-sector pencil that the superposition closed forms solve is
built explicitly by build_block (one block or a stack over m), checked by
GenEig2 and solved by gen_eig_2x2 with LAPACK; the block scan and the
random-pencil check are stacked cases of the same calls.  The pencil is
float64 at theta = 0 and complex128 otherwise.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .darkstate import FluxCase, case_of
from .errors import (CaseError, ConvergenceError, DomainError, DomainSizeError,
                     SingularOverlapError, UsageError, ValidationError, VerificationError,
                     WindowError)
from .harmonic import RadialFunction
from .params import as_geometry_kind
from .ring import _check, _check_table_rows, _number_array, _shown, _square_sum, ground_m
from .superposition import _block_parameters, _closed_forms, _row

__all__ = [
    "GenEig2",
    "gen_eig_2x2",
    "build_block",
    "OracleReport",
    "hermitian_eigs",
    "ring_fd_spectrum",
    "radial_fd_spectrum",
    "superposition_block_scan",
    "quadrature_norm",
    "quadrature_overlap",
    "run_verification",
]

_RESIDUAL_TOL = 1e-10   # eigenvector residual, relative to ||H||_F


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Computed-versus-reference record with worst-case deviations.

    Its metadata dict makes it a record compared by identity, not a value.
    """

    computed: np.ndarray
    reference: np.ndarray
    max_abs_dev: float
    max_rel_dev: float
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_arrays(cls, computed, reference, metadata: dict | None = None) -> "OracleReport":
        """Compare computed with reference cell by cell.

        A cell deviates by |computed - reference| absolutely and by that
        over max(|reference|, 1) relatively; the report keeps the largest
        of each, 0.0 for no cells.  A cell where either side is infinite
        or NaN has no meaningful deviation: then both maxima are NaN, and
        NaN fails every tolerance.  No numpy warning is raised.  A report
        holds one to a few cells, so the deviations are plain floats.
        Both sides must hold bool, int or float numbers, the same number
        of them, and metadata must be a mapping or None (ValidationError).
        """
        what = "computed and reference"
        computed = _number_array(computed, what, ValidationError)
        reference = _number_array(reference, what, ValidationError)
        if computed.shape != reference.shape:
            raise ValidationError("computed and reference lists differ in length")
        if not (metadata is None or isinstance(metadata, Mapping)):
            raise ValidationError(
                f"metadata must be a mapping or None, got {_shown(metadata, repr)}")
        got = computed.ravel().tolist()
        want = reference.ravel().tolist()
        if not (all(map(math.isfinite, got)) and all(map(math.isfinite, want))):
            return cls(computed, reference, math.nan, math.nan, dict(metadata or {}))
        abs_dev = [abs(c - r) for c, r in zip(got, want)]  # may overflow to inf, silently
        rel_dev = [d / max(abs(r), 1.0) for d, r in zip(abs_dev, want)]
        return cls(computed, reference, max(abs_dev, default=0.0), max(rel_dev, default=0.0),
                   dict(metadata or {}))


# ---------------------------------------------------------------------------
# dense Hermitian eigensolver (LAPACK, with checked inputs and residuals)
# ---------------------------------------------------------------------------

def hermitian_eigs(h, compute_vectors: bool = False):
    """Eigenvalues (ascending) of a complex Hermitian matrix, from LAPACK.

    The matrix must be square, finite and Hermitian to 1e-12 of its
    largest entry; np.linalg.eigvalsh / eigh (LAPACK ?heevd) then read its
    lower triangle.  With compute_vectors=True the unit-norm eigenvectors
    come back as columns, and their residuals are checked against
    1e-10 ||H||, so a solver failure is raised rather than returned.
    Entries of any other dtype kind than bool, int, float or complex
    (text, say) raise ValidationError.
    """
    h = _number_array(h, "h", ValidationError, complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValidationError("matrix has non-finite entries")
    scale = max(float(np.abs(h).max(initial=0.0)), 1.0)
    if np.abs(h - h.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise ValidationError("matrix is not Hermitian")
    try:
        if not compute_vectors:
            return np.linalg.eigvalsh(h)
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc
    worst = float(np.abs(h @ vectors - vectors * values).max(initial=0.0))
    if worst > _RESIDUAL_TOL * max(float(np.linalg.norm(h)), 1.0):
        raise ConvergenceError(f"eigenvector residual {worst} exceeds budget")
    return values, vectors


# ---------------------------------------------------------------------------
# ring finite differences (periodic circulant)
# ---------------------------------------------------------------------------

def _ring_fd_circulant_eigs(ell: int, sigma_ell: float, n_grid: int) -> np.ndarray:
    """Exact eigenvalues of the periodic FD matrix via its Fourier symbol."""
    h = 2.0 * math.pi / n_grid
    mh = np.arange(-(n_grid // 2), n_grid - n_grid // 2, dtype=float) * h
    # With s2 = sin^2(mh/2): 64 s2 - 4 sin^2(mh) = 16 s2 (3 + s2) and
    # 8 sin(mh) - sin(2mh) = 2 sin(mh) (3 + 2 s2); no cancellation at small mh.
    s2 = np.sin(0.5 * mh) ** 2
    return (4.0 * s2 * (3.0 + s2) / (3.0 * h * h) + float(ell * ell)
            + 2.0 * sigma_ell * np.sin(mh) * (3.0 + 2.0 * s2) / (3.0 * h))


def _ring_fd_dense(ell: int, sigma_ell: float, n_grid: int) -> np.ndarray:
    """The pentadiagonal periodic FD matrix whose symbol is the circulant route's."""
    h = 2.0 * math.pi / n_grid
    mat = np.zeros((n_grid, n_grid), dtype=complex)
    idx = np.arange(n_grid)
    mat[idx, idx] = 30.0 / (12.0 * h * h) + ell * ell
    # -psi'' weights (1, -16, 30, -16, 1)/(12h^2); -2i sigma_ell psi' with
    # psi' weights (1, -8, 0, 8, -1)/(12h), so column j+k gets -2i sigma_ell w_k
    for shift, second, first in ((1, -16.0, 8.0), (2, 1.0, -1.0)):
        flux = 2.0 * sigma_ell * first / (12.0 * h)
        mat[idx, (idx + shift) % n_grid] = second / (12.0 * h * h) - 1j * flux
        mat[idx, (idx - shift) % n_grid] = second / (12.0 * h * h) + 1j * flux
    return mat


def ring_fd_spectrum(ell: int, sigma_ell: float, n_grid: int = 1024,
                     k_lowest: int = 9, method: str = "circulant") -> OracleReport:
    """Lowest eigenvalues of the discretized ring against the closed form.

    The ring operator -psi'' - 2i sigma_ell psi' + ell^2 on n_grid points
    of step h = 2 pi / n_grid is discretized with five-point fourth-order
    central differences: weights (1, -16, 30, -16, 1)/(12 h^2) for -psi''
    and (1, -8, 0, 8, -1)/(12 h) for psi'.  The matrix is circulant, so
    its spectrum is known exactly from the Fourier symbol

        (64 sin^2(mh/2) - 4 sin^2(mh)) / (12 h^2) + ell^2
            + 2 sigma_ell (8 sin(mh) - sin(2mh)) / (6 h),

    which differs from ell^2 + m^2 + 2 sigma_ell m by
    -h^4 (m^6/90 + sigma_ell m^5/15) at leading order; that is the
    default route.  method='dense'
    assembles the same pentadiagonal matrix and runs hermitian_eigs
    instead, which checks the matrix assembly against the symbol on
    small grids.  ell must be an integer >= 0 and sigma_ell a finite
    real, or DomainError.
    """
    n_grid = _check("n_grid", n_grid, lo=64)
    _check_table_rows(n_grid, "n_grid = {}")
    k_lowest = _check("k_lowest", k_lowest, hi=n_grid)
    ell = _check("ell", ell)
    m_check = ground_m(sigma_ell)  # DomainError unless sigma_ell is a finite real
    _square_sum(ell, sigma_ell, 0)  # DomainError unless ell^2 has a float
    if method == "circulant":
        fd = np.sort(_ring_fd_circulant_eigs(ell, sigma_ell, n_grid))[:k_lowest]
    elif method == "dense":
        if n_grid > 128:
            raise UsageError("dense method is meant for grids up to 128 points")
        fd = hermitian_eigs(_ring_fd_dense(ell, sigma_ell, n_grid))[:k_lowest]
    else:
        raise UsageError(f"unknown method {_shown(method, repr)}")
    # the k lowest levels of (m + sigma_ell)^2 lie within k/2 + 1 of -sigma_ell
    ms = m_check + np.arange(-(k_lowest + 4), k_lowest + 5, dtype=float)
    analytic = np.sort(ell * ell + ms * ms + 2.0 * sigma_ell * ms)[:k_lowest]
    return OracleReport.from_arrays(fd, analytic, {
        "ell": ell, "sigma_ell": sigma_ell, "n_grid": n_grid,
        "h": 2.0 * math.pi / n_grid, "k_lowest": k_lowest, "method": method,
    })


# ---------------------------------------------------------------------------
# radial finite differences (Dirichlet tridiagonal: coarse shifts, RQI polish)
# ---------------------------------------------------------------------------

# measured in radial_fd_spectrum's docstring
_SHIFT_TOL = 0.01          # ?stebz absolute tolerance of the coarse-grid starting shifts
_POLISH_WINDOW = 0.5       # a level settles within this of its starting shift
_POLISH_RESIDUAL = 1e-14   # ||T u - lambda u|| budget, relative to max|diag| + 2|off|
_POLISH_STEPS = 5          # Rayleigh-quotient steps a level may take to settle


def _radial_operator(mu2: float, r_max: float, n_grid: int) -> tuple[np.ndarray, float]:
    """Diagonal and off-diagonal of the Dirichlet FD operator on n_grid steps of (0, r_max)."""
    step = r_max / n_grid
    r = step * np.arange(1, n_grid, dtype=float)
    return 2.0 / (step * step) + (mu2 - 0.25) / (r * r) + 0.25 * r * r, -1.0 / (step * step)


def _polish(diag: np.ndarray, off: float, start: float, level: int,
            budget: float) -> tuple[float, np.ndarray]:
    """One level and its unit vector by Rayleigh-quotient iteration from a starting shift.

    From u = ones and shift = start, each step solves (T - shift) x = u
    (LAPACK ?gtsv), normalizes x to the next u and takes its Rayleigh
    quotient rho.  Within _POLISH_WINDOW = 0.5 of the start rho becomes
    the next shift, and is accepted once ||T u - rho u|| <= budget;
    outside it the shift returns to the start.  0.5 plus the worst
    measured miss of a start, 0.13, is under 1, half the level spacing,
    so every admitted shift is nearest the intended level; a level took
    2 to 4 steps (radial_fd_spectrum).  The accepted rho is summed as
    |off| |D u|^2 + sum (diag + 2 off) u^2 (u = 0 past both ends), terms
    >= 0 for mu^2 >= 1/4, so it is accurate relative to the level.  A
    singular shifted matrix, or a level not settled in its window in
    _POLISH_STEPS steps, raises ConvergenceError naming the shift.
    """
    from scipy.linalg.lapack import dgtsv

    offs = np.full(diag.size - 1, off)
    u = np.ones(diag.size)
    shift = start
    for _ in range(_POLISH_STEPS):
        *_, x, info = dgtsv(offs, diag - shift, offs, u, overwrite_d=1)
        if info != 0:
            raise ConvergenceError(f"inverse iteration at shift {shift!r}: the shifted "
                                   f"matrix is singular (dgtsv info {info})")
        u = x / math.sqrt(x @ x)
        tu = diag * u
        tu[1:] += off * u[:-1]
        tu[:-1] += off * u[1:]
        rho = float(u @ tu)
        tu -= rho * u
        residual = math.sqrt(tu @ tu)
        inside = abs(rho - start) <= _POLISH_WINDOW  # NaN fails it
        if inside and residual <= budget:
            du = np.diff(u)
            rho = -off * (du @ du + u[0] * u[0] + u[-1] * u[-1]) + (diag + 2.0 * off) @ (u * u)
            return float(rho), u
        shift = rho if inside else start
    raise ConvergenceError(f"inverse iteration at shift {shift!r}: level {level} did not "
                           f"settle inside its bracket {start!r} +- {_POLISH_WINDOW} in "
                           f"{_POLISH_STEPS} steps (Rayleigh quotient {rho!r}, residual "
                           f"{residual!r} against {budget!r})")


def radial_fd_spectrum(ell: int, sigma_ell: float, m: int, n_grid: int = 4000,
                       k_lowest: int = 4) -> OracleReport:
    """Lowest radial levels of the trap from a Dirichlet FD discretization.

    The substitution u = f sqrt(r) turns the radial problem into
    -u'' + [(mu^2 - 1/4)/r^2 + r^2/4] u = E u on (0, r_max) with u = 0 at
    both ends, where r_max = sqrt(2 mu) + 12 lies 12 trap lengths past
    the peak of the n = 0 profile.  Three-point differences on n_grid
    steps make it a tridiagonal T, and its lowest k_lowest eigenvalues
    are compared against 2n + mu + 1 in three steps (ell must be an
    integer >= 0, m an integer and sigma_ell a finite real, or
    DomainError):

    * Shifts.  One Sturm bisection (LAPACK ?stebz, tolerance _SHIFT_TOL =
      0.01) of the same operator on min(n_grid, max(n_grid // 16,
      ceil(r_max k_lowest))) steps gives each level a starting shift, in
      0.05 ms at N = 4000 (0.87 ms on T).  For mu^2 in [0, 1296], N in
      {2000, 4000, 8000} and up to 20 levels a shift missed by <= 0.13.
    * Polish.  Rayleigh-quotient iteration (_polish) from each shift, top
      level first, until ||T u - lambda u|| <= _POLISH_RESIDUAL
      (max|diag| + 2|off|), lambda within _POLISH_WINDOW = 0.5 of the
      shift.  The budget, 1e-14, is about 45 eps: in 421 seeded draws
      (ell <= 30, |m| <= 6, N in {2000, 4000, 8000}, up to 8 levels, mu
      down to 0) a level took 2, 3 or 4 steps (1028, 970, 17 times) of
      _POLISH_STEPS = 5, and a 1e-16 budget left 24 of 400 unsettled.  The
      levels agree with the relative-accurate LAPACK ?pteqr to 1.4e-12,
      where a full-precision ?stebz misses by 5e-12 to 2e-10.
    * Certificate.  As |lambda - rho| <= ||T u - rho u|| for symmetric T,
      values more than 2 budget apart, with exactly k_lowest eigenvalues
      in (min diag - 2|off|, top value + 2 budget] by one value-range
      ?stebz count (0.07 ms at N = 4000), are the lowest k_lowest levels.

    The polished vector of the top level, the most extended of the
    requested states, must have a boundary tail |u[-1]| / max|u| below
    1e-6, or DomainSizeError reports leakage (k_lowest = 20 at
    (4, 1.0, -1) leaks).  A level that does not settle, leaves its
    window or meets a singular shifted matrix, and a failed certificate,
    raise ConvergenceError; there is no fallback.
    """
    n_grid = _check("n_grid", n_grid, lo=2000)
    _check_table_rows(n_grid, "n_grid = {}")
    k_lowest = _check("k_lowest", k_lowest, hi=n_grid - 1)
    ell = _check("ell", ell)
    ground_m(sigma_ell)  # DomainError unless sigma_ell is a finite real
    m = _check("m", m)
    mu2 = _square_sum(ell, sigma_ell, m) + 2.0 * sigma_ell * m
    if mu2 < 0.0:
        raise DomainError(f"mu^2 = {mu2} < 0; no such radial state")
    mu_m = math.sqrt(mu2)
    r_max = math.sqrt(2.0 * mu_m) + 12.0
    # scipy.linalg adds about 28 MiB resident, so it loads only for this oracle
    from scipy.linalg.lapack import dstebz

    coarse_grid = min(n_grid, max(n_grid // 16, math.ceil(r_max * k_lowest)))
    coarse, coarse_off = _radial_operator(mu2, r_max, coarse_grid)
    found, shifts, _, _, info = dstebz(coarse, np.full(coarse_grid - 2, coarse_off), 2,
                                       0.0, 0.0, 1, k_lowest, _SHIFT_TOL, "E")
    if info != 0 or found != k_lowest:
        raise ConvergenceError(f"Sturm bracketing found {found} of {k_lowest} levels "
                               f"(dstebz info {info})")
    diag, off = _radial_operator(mu2, r_max, n_grid)
    budget = _POLISH_RESIDUAL * (float(np.abs(diag).max()) + 2.0 * abs(off))
    values = np.empty(k_lowest)
    top = k_lowest - 1
    values[top], u = _polish(diag, off, float(shifts[top]), top, budget)
    # boundary-leakage check on the most extended of the requested states
    tail = float(abs(u[-1]) / np.abs(u).max())
    if tail > 1e-6:
        raise DomainSizeError(f"eigenfunction tail {tail} at r_max = {r_max} "
                              "indicates boundary leakage")
    for level in range(top):
        values[level] = _polish(diag, off, float(shifts[level]), level, budget)[0]
    # the certificate (docstring): distinct values, then one Sturm count
    close = np.flatnonzero(np.diff(values) <= 2.0 * budget).tolist()
    if close:
        low, high = values[close[0]:close[0] + 2].tolist()
        raise ConvergenceError(f"levels {close[0]} and {close[0] + 1} polished to {low!r} and "
                               f"{high!r}, not more than 2 budget = {2.0 * budget!r} apart")
    lower, upper = float(diag.min()) - 2.0 * abs(off), float(values[top]) + 2.0 * budget
    count, *_, info = dstebz(diag, np.full(n_grid - 2, off), 1, lower, upper, 0, 0,
                             upper - lower, "E")
    if info != 0 or count != k_lowest:
        raise ConvergenceError(f"Sturm count: {count} levels lie in ({lower!r}, {upper!r}]"
                               f", not the {k_lowest} polished (dstebz info {info})")
    reference = 2.0 * np.arange(k_lowest, dtype=float) + mu_m + 1.0
    return OracleReport.from_arrays(values, reference, {
        "ell": ell, "sigma_ell": sigma_ell, "m": m, "mu": mu_m,
        "r_max": r_max, "n_grid": n_grid, "step": r_max / n_grid, "tail": tail,
        "k_lowest": k_lowest, "method": "coarse shifts, rayleigh-quotient polish, sturm count",
    })


# ---------------------------------------------------------------------------
# the explicit 2x2 two-sector pencil (LAPACK, checked blocks and residuals)
# ---------------------------------------------------------------------------

_PENCIL_RESIDUAL_TOL = 1e-12  # each block's residual, relative to its largest entry
_HERMITICITY_TOL = 1e-13
_H_SHAPES = "one 2x2 block or a (k, 2, 2) stack of blocks"
_A_SHAPES = "one 2x2 overlap shared by the blocks or a (k, 2, 2) stack of them, one per block"


def _shape_error(name: str, value, shapes: str) -> DomainError:
    """The error of an h or a that is not one 2x2 block or a (k, 2, 2) stack."""
    try:
        got = f"shape {np.shape(value)}"
    except ValueError:  # a ragged nesting has no array shape
        got = "a ragged nesting"
    return DomainError(f"{name} must be {shapes}, got {got}")


@dataclass(frozen=True)
class GenEig2:
    """A 2x2 generalized eigenproblem H v = E A v, or a stack of them.

    h is one 2x2 block or a (k, 2, 2) stack of blocks; every block must
    be Hermitian.  a is one overlap A shared by the blocks, or a (k, 2, 2)
    stack of them, one per block of a stacked h.  Every overlap is the
    unit-diagonal [[1, eps e^{i theta}], [conj, 1]] with eps < 1.  Every
    entry of h and a must be a finite number (of bool, int, float or
    complex dtype), and so must its magnitude.  The checks run on
    construction, before any arithmetic that could warn,
    and raise DomainError (SingularOverlapError for eps >= 1); so does
    any other shape, or an a that does not hold one overlap per block.

    The pencil keeps a real dtype: h and a become float64 unless either
    is complex, and then both become complex128.  A real h is Hermitian
    when each block's h01 matches its h10.  A shared overlap is the
    per-block case with one overlap: the loop that checks each overlap
    also builds its A^(-1/2), which gen_eig_2x2 reuses.

    A GenEig2 is a value: h and a are read-only copies of the input, and
    two problems are equal (with equal hashes) when their dtypes, shapes
    and entries are.
    """

    h: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        try:
            h = np.asarray(self.h)
        except ValueError:  # a ragged nesting has no array shape
            raise _shape_error("h", self.h, _H_SHAPES) from None
        try:
            a = np.asarray(self.a)
        except ValueError:
            raise _shape_error("a", self.a, _A_SHAPES) from None
        stacked = h.ndim == 3 and h.shape[1:] == (2, 2)
        if not (stacked or h.shape == (2, 2)):
            raise _shape_error("h", h, _H_SHAPES)
        if a.shape != (2, 2):
            if not (a.ndim == 3 and a.shape[1:] == (2, 2)):
                raise _shape_error("a", a, _A_SHAPES)
            if not (stacked and len(a) == len(h)):
                blocks = f"the {len(h)} blocks of h" if stacked else "the single block h"
                raise DomainError(f"a holds {len(a)} overlaps for {blocks}; give one overlap "
                                  "shared by the blocks or one per block")
        if not (h.dtype.kind in "biufc" and a.dtype.kind in "biufc"):  # numpy parses text
            raise DomainError("h and a must hold numbers")
        dtype = complex if "c" in (h.dtype.kind, a.dtype.kind) else float
        # own read-only copies: a caller's later edit cannot skip the checks
        h = np.array(h, dtype=dtype)
        a = np.array(a, dtype=dtype)
        h.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "a", a)
        # every comparison below is written so that NaN fails it; the maxima
        # call np.maximum.reduce, which ndarray.max wraps in a Python frame
        largest = np.maximum.reduce
        flat = h.reshape(-1, 4)  # one row per block
        scale = largest(np.abs(flat), axis=1, initial=1.0)
        if not largest(scale, initial=1.0) < math.inf:
            raise DomainError("h must be finite")
        limit = _HERMITICITY_TOL * scale
        if dtype is complex:  # |h - h^H| entry by entry
            skew = np.abs(h - h.conj().swapaxes(-1, -2)).reshape(-1, 4)
            limit = limit[:, None]
        else:  # h01 against h10
            skew = np.abs(flat[:, 1] - flat[:, 2])
        if not largest(skew - limit, axis=None, initial=0.0) <= 0.0:
            raise DomainError("h is not Hermitian")
        # one pass over the overlaps: check each, then build its A^(-1/2)
        a_inv_half = []
        for a00, a01, a10, a11 in a.reshape(-1, 4).tolist():
            if not all(map(cmath.isfinite, (a00, a01, a10, a11))):
                raise DomainError("a must be finite")
            try:
                if not (abs(a00 - 1.0) <= _HERMITICITY_TOL
                        and abs(a11 - 1.0) <= _HERMITICITY_TOL):
                    raise DomainError("a must have unit diagonal")
                if not abs(a10 - a01.conjugate()) <= _HERMITICITY_TOL:
                    raise DomainError("a is not Hermitian")
                eps = abs(a01)
            except OverflowError:  # the abs of a complex with finite parts can overflow
                raise DomainError("a has an entry beyond the float range") from None
            if not eps < 1.0:
                raise SingularOverlapError(
                    f"overlap magnitude {eps} >= 1 leaves the metric indefinite")
            if dtype is float:
                phase = a01 / eps if eps > 0.0 else 1.0
            else:
                # componentwise division: complex a01 / eps overflows internally
                # when eps is subnormal, the real quotients never do
                phase = complex(a01.real / eps, a01.imag / eps) if eps > 0.0 else 1.0 + 0.0j
            # A = I + eps K has eigenvectors (1, +-e^{-i theta})/sqrt(2), values 1 +- eps
            ip = 1.0 / math.sqrt(1.0 + eps)
            im = 1.0 / math.sqrt(1.0 - eps)
            p_half = 0.5 * (ip + im)
            q_half = 0.5 * (ip - im) * phase
            a_inv_half += (p_half, q_half, q_half.conjugate(), p_half)
        object.__setattr__(self, "_a_inv_half",
                           np.array(a_inv_half, dtype=dtype).reshape(a.shape))
        object.__setattr__(self, "_scale", scale)  # the residual check reuses it

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenEig2):
            return NotImplemented
        return all(x.dtype == y.dtype and x.shape == y.shape and bool((x == y).all())
                   for x, y in ((self.h, other.h), (self.a, other.a)))

    def __hash__(self) -> int:  # float hashing makes 0.0 and -0.0 agree, as == does
        return hash(tuple((x.dtype.str, x.shape, *x.ravel().tolist()) for x in (self.h, self.a)))


def gen_eig_2x2(problem: GenEig2 | tuple) -> tuple[np.ndarray, np.ndarray]:
    """Solve the 2x2 pencil H v = E A v by congruence with A^(-1/2).

    Returns (eigenvalues ascending, eigenvectors as columns, normalized
    in the A metric), shaped (2,) and (2, 2) for one block and (k, 2) and
    (k, 2, 2) for a (k, 2, 2) stack; a bare (h, a) tuple is checked as a
    GenEig2 first, and any other problem raises DomainError.  Each
    overlap's eigenbasis is analytic, so A^(-1/2) is closed form, built
    by GenEig2 once per overlap: one shared by every
    block, or one per block.  All blocks go to LAPACK in one
    np.linalg.eigh call, and each block's residual must stay within
    1e-12 of its largest entry (VerificationError).  A block gives the
    same bits alone or stacked, against a shared overlap or its own.
    A real pencil stays real, A^(-1/2) included, and returns float64
    eigenvectors; a complex one returns complex128 eigenvectors.

    Examples
    --------
    >>> vals, _ = gen_eig_2x2(GenEig2([[15, 1.7], [1.7, 19]],
    ...                               [[1, 0.1], [0.1, 1]]))
    >>> round(float(vals[0]), 7)
    14.9899244
    """
    if not isinstance(problem, GenEig2):
        if not (isinstance(problem, tuple) and len(problem) == 2):
            raise DomainError(
                f"problem must be a GenEig2 or an (h, a) pair, got {_shown(problem, repr)}")
        problem = GenEig2(*problem)
    h, a = problem.h, problem.a
    a_inv_half = problem._a_inv_half
    b = a_inv_half @ h @ a_inv_half
    # scrub rounding skew before the Hermitian solve
    b = 0.5 * (b + (b if h.dtype.kind == "f" else b.conj()).swapaxes(-1, -2))
    vals, w = np.linalg.eigh(b)
    vecs = a_inv_half @ w
    scale = problem._scale
    residual = np.abs(h @ vecs - (a @ vecs) * vals[..., None, :])
    # one comparison for every entry of every block; a NaN residual fails it
    # (np.maximum.reduce: ndarray.max wraps it in a Python frame)
    if not np.maximum.reduce(residual - (_PENCIL_RESIDUAL_TOL * scale)[:, None, None], axis=None,
                             initial=0.0) <= 0.0:
        worst = residual.reshape(-1, 4).max(axis=1)
        first = np.argmin(worst <= _PENCIL_RESIDUAL_TOL * scale)  # the first failing block
        raise VerificationError(f"pencil residual {worst[first]} exceeds "
                                f"{_PENCIL_RESIDUAL_TOL * scale[first]}")
    return vals, vecs


def _blocks(case_i: bool, geo, ell: int, sigma_ell: float, epsilon: float, theta: float,
            ms: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """(H, A) of checked inputs: a (len(ms), 2, 2) stack of H, one block
    per m of ms from one loop over _block_parameters, and the A they share."""
    sin = math.sin(theta)
    phase = math.cos(theta) if sin == 0.0 else complex(math.cos(theta), sin)
    entries = []  # h00, h01, h10, h11 of each block in turn
    for mm in ms:
        center, d, q = _block_parameters(geo, ell, sigma_ell, mm)
        off = epsilon * center * phase if case_i else -q * epsilon * phase
        entries += (center + d, off, off.conjugate(), center - d)
    h = np.array(entries, dtype=type(phase)).reshape(-1, 2, 2)
    a01 = epsilon * phase if case_i else type(phase)(0.0)  # 0.0 or 0j, as real as the phase
    return h, np.array([[1.0, a01], [a01.conjugate(), 1.0]])


def build_block(case, geometry, ell: int, sigma_ell: float, epsilon: float,
                theta: float = 0.0, m: int | Iterable[int] | None = None) -> GenEig2:
    """Explicit (H, A) pencil of the two-sector block at angular momentum m.

    m defaults to the ground-state value.  A sequence of integers for m
    (a range, say) gives a (len(m), 2, 2) stack of H, one block per m in
    order, against the one overlap A they share.  One loop builds every
    block from the engine's _block_parameters, so a block has the same
    bits alone or in a stack, and the first m without a block (a trap
    radicand <= 0) raises its DomainError.  This is the matrix the closed
    forms in superpose_ring / superpose_harmonic diagonalize; feeding it
    to gen_eig_2x2 provides the independent numerical route, and
    superposition_block_scan solves its stacked form.  The case comes
    first (CaseError unless (i) or (ii)); then ell, epsilon, theta and
    the finiteness of sigma_ell face the checks of superpose_*, given m
    or not, and each m must be an integer (DomainError).  H and A are
    float64 when the phase e^{i theta} is real (sin theta == 0.0, so
    theta = 0) and complex128 otherwise.

    Examples
    --------
    >>> block = build_block("i", "ring", 4, 1.0, 0.1)
    >>> block.h
    array([[15. ,  1.7],
           [ 1.7, 19. ]])
    >>> gen_eig_2x2(block)[1].dtype  # theta = 0: float64 eigenvectors
    dtype('float64')
    >>> gen_eig_2x2(build_block("i", "ring", 4, 1.0, 0.1, theta=1.3))[1].dtype
    dtype('complex128')
    """
    kind = case_of(case)
    if kind is FluxCase.NEITHER:
        raise CaseError("blocks exist only for case (i) or case (ii)")
    geo = as_geometry_kind(geometry)
    _check("theta", theta)
    ell = _check("ell", ell)
    _check("epsilon", epsilon)
    mc = ground_m(sigma_ell)  # rejects NaN, inf and non-numbers, as superpose_* does
    stacked = isinstance(m, Iterable)
    if stacked:
        # a range holds integers already; any other sequence is checked entry by entry
        ms = m if isinstance(m, range) else [_check("m", mm) for mm in m]
    else:
        ms = [mc if m is None else _check("m", m)]
    h, a = _blocks(kind is FluxCase.CASE_I, geo, ell, sigma_ell, epsilon, theta, ms)
    return GenEig2(h if stacked else h[0], a)


# ---------------------------------------------------------------------------
# block scan and quadrature
# ---------------------------------------------------------------------------

def superposition_block_scan(case, geometry, ell: int, sigma_ell: float, epsilon: float,
                             theta: float = 0.0) -> tuple[float, int, OracleReport]:
    """Scan the per-m 2x2 blocks and verify the minimum sits at m_check.

    The 2 m_max + 1 blocks with |m| <= m_max = |m_check| + 8 (harmonic
    blocks fix n = 0) are solved as one stacked pencil (module
    docstring), with the bits of gen_eig_2x2(build_block(..., m=m))
    block by block.  The inputs face the checks of superpose_* once, and
    the stack is built from the checked row.  The global minimum must
    land at |m| = |m_check| and match the closed-form e_plus to 1e-12
    relative; a minimum pressed against the window edge raises
    WindowError instead of being trusted.  A window of more blocks than
    the table cap (ring._MAX_TABLE_ROWS), as |m_check| beyond about
    5e5 gives, raises UsageError before any block is built.
    """
    geo = as_geometry_kind(geometry)
    kind = case_of(case)
    # the reference runs every check of superpose_* and gives its e_plus bits,
    # without the eigenvectors
    row = _row(kind, geo, ell, sigma_ell, epsilon, theta, stacklevel=3)
    e_plus = (row.center + row.d) + _closed_forms(row, (epsilon,))[0]
    mc = row.m_check
    m_max = abs(mc) + 8
    # counted as 2 m_max + 1: len(range(...)) itself overflows past 2^63
    _check_table_rows(2 * m_max + 1, "the block-scan window of 2 m_max + 1 blocks")
    ms = range(-m_max, m_max + 1)
    vals, _ = gen_eig_2x2(_blocks(row.case_i, geo, row.ell, sigma_ell, epsilon, theta, ms))
    lower = vals[:, 0]
    k = int(lower.argmin())  # the first minimum: the lowest m among equal values
    m_star = ms[k]
    minimum = float(lower[k])
    if abs(m_star) >= m_max:
        raise WindowError(f"block-scan minimum sits at the window edge m = {m_star}")
    rel_dev = abs(minimum - e_plus) / max(1.0, abs(e_plus))
    if abs(m_star) != abs(mc):
        raise VerificationError(
            f"block-scan minimum at m = {m_star} disagrees with m_check = {mc}; "
            "the two-state ansatz is not self-consistent at these parameters")
    if rel_dev > 1e-12:
        raise VerificationError(
            f"block-scan minimum deviates from e_plus by {rel_dev} relative")
    report = OracleReport.from_arrays([minimum], [e_plus], {
        "case": kind.value, "geometry": geo.value, "ell": ell,
        "sigma_ell": sigma_ell, "epsilon": epsilon, "theta": theta,
        "m_star": m_star, "m_check": mc, "m_max": m_max,
        "block_minima": dict(zip(map(str, ms), lower.tolist())),
    })
    return minimum, m_star, report


_GAUSS_FIRST_ORDER = 64    # first Gauss-Legendre order; each refinement doubles it
_GAUSS_MAX_ORDER = 2048    # the order past which the rule gives up
_GAUSS_TOL = 1e-12         # |Q_n - Q_2n| that counts as settled
_GAUSS_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GAUSS_PAIRED: list[np.ndarray] = []  # the nodes of the first two orders and 1.0, joined


def _graded_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights c with integral_0^R h(r) r dr ~ R^2 sum c h(R t).

    Gauss-Legendre on u in [0, 1] after r = R u^2, so dr = 2 R u du: the
    nodes crowd towards the axis, where r^mu is not smooth for small mu.
    """
    rule = _GAUSS_RULES.get(order)
    if rule is None:
        x, w = np.polynomial.legendre.leggauss(order)
        u = 0.5 * (x + 1.0)
        rule = _GAUSS_RULES[order] = (u * u, w * u ** 3)
    return rule


def quadrature_overlap(f: RadialFunction, g: RadialFunction) -> float:
    """Radial overlap integral of two profiles, integral f g r dr over [0, r_max].

    r_max = sqrt(2 max mu) + 12, 12 trap lengths past the peak of the
    wider n = 0 profile, as in radial_fd_spectrum; the integrand tail
    2 r_max |f g| at r_max must stay below 1e-8 (DomainSizeError), which
    a profile extending past r_max (n = 20 at ell = 4, say) fails.  The
    integral comes from Gauss-Legendre rules on r = r_max u^2, u in
    [0, 1], with nodes from numpy's leggauss (Golub-Welsch), cached per
    order.  Orders run 64, 128, ... up to 2048; Q_2n is returned once
    |Q_n - Q_2n| <= 1e-12, and a rule that has not settled by then, or
    whose two orders differ by NaN, raises ConvergenceError instead of
    returning a value.  The rule sees only r_max, never mu or the
    normalization.
    Each profile is evaluated on an array: once on the joined nodes of
    orders 64 and 128 and r_max, then once per further order (f alone
    when g is f).  f and g must be profiles, callables with a radial
    exponent mu as a RadialFunction is, or DomainError.
    """
    for name, profile in (("f", f), ("g", g)):
        if not (callable(profile) and hasattr(profile, "mu")):
            raise DomainError(f"{name} must be a RadialFunction, got {_shown(profile, repr)}")
    r_max = math.sqrt(2.0 * max(f.mu, g.mu)) + 12.0
    order = _GAUSS_FIRST_ORDER
    first, second = _graded_rule(order), _graded_rule(2 * order)
    if not _GAUSS_PAIRED:  # the node 1.0 puts r_max at the end for the tail check
        _GAUSS_PAIRED.append(np.concatenate((first[0], second[0], [1.0])))
    product = _profile_product(f, g, r_max * _GAUSS_PAIRED[0])
    tail = abs(float(product[-1])) * r_max * 2.0
    if tail > 1e-8:
        raise DomainSizeError(f"integrand tail estimate {tail} at r_max = {r_max}")
    previous = float(r_max * r_max * (first[1] @ product[:order]))
    value = float(r_max * r_max * (second[1] @ product[order:-1]))
    order *= 2
    while not abs(value - previous) <= _GAUSS_TOL:  # NaN never settles
        if order >= _GAUSS_MAX_ORDER or math.isnan(value - previous):  # NaN: stop at once
            raise ConvergenceError(
                f"Gauss-Legendre rule unsettled: orders {order // 2} and {order} "
                f"differ by {abs(value - previous)}")
        order, previous = 2 * order, value
        nodes, weights = _graded_rule(order)
        value = float(r_max * r_max * (weights @ _profile_product(f, g, r_max * nodes)))
    return value


def _profile_product(f: RadialFunction, g: RadialFunction, r: np.ndarray) -> np.ndarray:
    """f(r) g(r), with one evaluation when g is f."""
    fr = f(r)
    return fr * fr if g is f else fr * g(r)


def quadrature_norm(f: RadialFunction) -> float:
    """Norm integral f^2 r dr of a radial profile over quadrature_overlap's
    domain; 1 for healthy states."""
    return quadrature_overlap(f, f)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

_RANDOM_PENCILS = 50  # random 2x2 pencils in the gen_eig_residuals check


def _random_hermitian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """A random complex Hermitian matrix, or a stack of them: shape (..., n, n)."""
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def run_verification(ring_grid: int = 1024, radial_grid: int = 4000,
                     tolerance_scale: float = 1.0) -> dict:
    """Deterministic cross-checks between closed forms and numeric routes.

    Returns a JSON-ready report with one entry per check.  Grid sizes are
    adjustable, and each FD convergence tolerance scales with its
    stencil's order as the grid shrinks: h^2 for the radial three-point
    stencil and h^4 for the ring's five-point one, 1e-6 (1024/N)^4.  The
    ring tolerance is floored at 1e-12, where rounding in the symbol
    (about 7e-15 from N = 65536 on) takes over from the h^4 error.  A
    second-order ring stencil fails the ring check at every N >= 256.
    tolerance_scale must be finite and >= 0; 0 fails every inexact check.

    The pencil check draws 50 random Hermitian 2x2 pencils, each with its
    own random overlap, and solves them in one stacked gen_eig_2x2 call;
    its deviation is the worst residual |H v - E A v| over every column
    of every pencil, relative to max(1, largest |H| entry), computed
    entry by entry so that it has the bits of each pencil's own
    matrix-vector products.  The eigensolver self-test's residual covers
    all 40 columns in one expression.
    """
    _check("tolerance_scale", tolerance_scale)
    checks: list[dict] = []

    def record(name: str, deviation: float, tolerance: float) -> None:
        tolerance = tolerance * tolerance_scale
        checks.append({"name": name, "deviation": float(deviation),
                       "tolerance": float(tolerance),
                       "passed": bool(deviation <= tolerance)})

    rng = np.random.default_rng(20240817)

    # eigensolver self-tests
    h40 = _random_hermitian(rng, 40, 40)
    values, vectors = hermitian_eigs(h40, compute_vectors=True)
    trace = float(np.trace(h40).real)
    record("eigensolver_trace_identity",
           abs(values.sum() - trace) / max(1.0, abs(trace)), 1e-10)
    hnorm = math.sqrt(float((np.abs(h40) ** 2).sum()))
    worst = float(np.abs(h40 @ vectors - vectors * values).max())  # every column at once
    record("eigensolver_residuals", worst / hnorm, 1e-10)

    # eigensolver versus the exact circulant symbol on a small ring grid
    dense = ring_fd_spectrum(4, 1.2, n_grid=64, k_lowest=9, method="dense")
    circ = ring_fd_spectrum(4, 1.2, n_grid=64, k_lowest=9, method="circulant")
    record("ring_fd_dense_vs_circulant",
           float(np.abs(dense.computed - circ.computed).max()), 1e-8)

    # FD convergence against the closed-form spectra
    ring_report = ring_fd_spectrum(4, 1.2, n_grid=ring_grid, k_lowest=9)
    record("ring_fd_vs_analytic", ring_report.max_abs_dev,
           max(1e-6 * (1024.0 / ring_grid) ** 4, 1e-12))
    radial_report = radial_fd_spectrum(4, 1.0, m=-1, n_grid=radial_grid)
    record("radial_fd_vs_analytic", radial_report.max_abs_dev,
           1e-3 * (4000.0 / radial_grid) ** 2)

    # quadrature norms and orthogonality of the radial profiles
    from .harmonic import radial_wavefunction  # local import avoids a cycle at module load

    f0 = radial_wavefunction(4, 1.0, 0, -1)
    f1 = radial_wavefunction(4, 1.0, 1, -1)
    record("radial_norms",
           max(abs(quadrature_norm(f0) - 1.0), abs(quadrature_norm(f1) - 1.0)), 1e-8)
    record("radial_orthogonality", abs(quadrature_overlap(f0, f1)), 1e-8)

    # block-scan consistency for both cases and geometries
    for case, geometry in (("i", "ring"), ("ii", "ring"),
                           ("i", "harmonic"), ("ii", "harmonic")):
        _, _, report = superposition_block_scan(case, geometry, 4, 1.0, 0.1)
        record(f"block_scan_case_{case}_{geometry}", report.max_rel_dev, 1e-12)

    # the pencil solve keeps its residual promise on random blocks: one stacked
    # call, each pencil against its own overlap
    eps = rng.uniform(0.0, 0.95, _RANDOM_PENCILS)
    theta = rng.uniform(0.0, 2.0 * math.pi, _RANDOM_PENCILS)
    hmat = _random_hermitian(rng, _RANDOM_PENCILS, 2, 2)
    amat = np.ones((_RANDOM_PENCILS, 2, 2), dtype=complex)
    amat[:, 0, 1] = eps * np.exp(1j * theta)
    amat[:, 1, 0] = amat[:, 0, 1].conj()
    vals, vecs = gen_eig_2x2((hmat, amat))
    # H v - E A v entry by entry, column by column: the bits of each pencil's
    # own matrix-vector products
    hv = hmat[..., 0, None] * vecs[:, None, 0] + hmat[..., 1, None] * vecs[:, None, 1]
    av = amat[..., 0, None] * vecs[:, None, 0] + amat[..., 1, None] * vecs[:, None, 1]
    res = np.abs(hv - vals[:, None, :] * av).max(axis=(1, 2))
    scale = np.maximum(np.abs(hmat).max(axis=(1, 2)), 1.0)
    record("gen_eig_residuals", float((res / scale).max()), 1e-12)

    return {
        "parameters": {"ring_grid": ring_grid, "radial_grid": radial_grid,
                       "tolerance_scale": tolerance_scale},
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
