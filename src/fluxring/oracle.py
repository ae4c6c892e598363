"""Independent numerical routes for every closed form in the package.

Nothing here reuses the analytic spectra: eigenvalues come from LAPACK
on an assembled finite-difference matrix, from the exact Fourier
diagonalization of the ring finite-difference circulant, or from
Sturm-sequence bisection on the radial tridiagonal (LAPACK ?stebz).
Radial norms and overlaps come from graded Gauss-Legendre rules that
refine until two orders agree.  The routes are independent of the
closed forms, not of LAPACK.  Agreement between these routes and the
closed forms is what the verify suite and the acceptance tests certify.
scipy.linalg is imported only inside radial_fd_spectrum, so importing
this module loads numpy alone, and no route needs scipy.integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .darkstate import case_of
from .errors import (ConvergenceError, DomainError, DomainSizeError, UsageError,
                     ValidationError, VerificationError, WindowError)
from .harmonic import RadialFunction
from .params import as_geometry_kind
from .ring import ground_m
from .superposition import _closed_form, _row, build_block, gen_eig_2x2

__all__ = [
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


@dataclass(frozen=True)
class OracleReport:
    """Computed-versus-reference record with worst-case deviations."""

    computed: np.ndarray
    reference: np.ndarray
    max_abs_dev: float
    max_rel_dev: float
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_arrays(cls, computed, reference, metadata: dict | None = None) -> "OracleReport":
        computed = np.asarray(computed, dtype=float)
        reference = np.asarray(reference, dtype=float)
        if computed.shape != reference.shape:
            raise ValidationError("computed and reference lists differ in length")
        abs_dev = np.abs(computed - reference)
        scale = np.maximum(np.abs(reference), 1.0)
        return cls(computed, reference, float(abs_dev.max(initial=0.0)),
                   float((abs_dev / scale).max(initial=0.0)), dict(metadata or {}))


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
    """
    h = np.asarray(h, dtype=complex)
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
    small grids.
    """
    if n_grid < 64:
        raise UsageError(f"n_grid must be >= 64, got {n_grid}")
    if k_lowest < 1 or k_lowest > n_grid:
        raise UsageError(f"k_lowest must be in [1, {n_grid}], got {k_lowest}")
    if method == "circulant":
        fd = np.sort(_ring_fd_circulant_eigs(ell, sigma_ell, n_grid))[:k_lowest]
    elif method == "dense":
        if n_grid > 128:
            raise UsageError("dense method is meant for grids up to 128 points")
        fd = hermitian_eigs(_ring_fd_dense(ell, sigma_ell, n_grid))[:k_lowest]
    else:
        raise UsageError(f"unknown method {method!r}")
    window = k_lowest + math.ceil(abs(sigma_ell)) + 4
    ms = np.arange(-window, window + 1, dtype=float)
    analytic = np.sort(ell * ell + ms * ms + 2.0 * sigma_ell * ms)[:k_lowest]
    return OracleReport.from_arrays(fd, analytic, {
        "ell": ell, "sigma_ell": sigma_ell, "n_grid": n_grid,
        "h": 2.0 * math.pi / n_grid, "k_lowest": k_lowest, "method": method,
    })


# ---------------------------------------------------------------------------
# radial finite differences (Dirichlet tridiagonal, LAPACK bisection)
# ---------------------------------------------------------------------------

def radial_fd_spectrum(ell: int, sigma_ell: float, m: int, r_max: float | None = None,
                       n_grid: int = 4000, k_lowest: int = 4) -> OracleReport:
    """Lowest radial levels of the trap from a Dirichlet FD discretization.

    The substitution u = f sqrt(r) turns the radial problem into
    -u'' + [(mu^2 - 1/4)/r^2 + r^2/4] u = E u on (0, r_max) with u = 0 at
    both ends; the lowest k eigenvalues of the resulting tridiagonal are
    located by Sturm bisection (LAPACK ?stebz through
    scipy.linalg.eigh_tridiagonal) and compared against 2n + mu + 1.  The
    eigenfunction of the highest requested level is recovered by two steps
    of inverse iteration (scipy.linalg.solve_banded) and its boundary tail
    must stay below 1e-6.  A singular shifted matrix raises
    ConvergenceError naming the shift.
    """
    if n_grid < 2000:
        raise UsageError(f"n_grid must be >= 2000, got {n_grid}")
    if k_lowest < 1 or k_lowest > n_grid - 1:
        raise UsageError(f"k_lowest must be in [1, {n_grid - 1}], got {k_lowest}")
    mu2 = ell * ell + m * m + 2.0 * sigma_ell * m
    if mu2 < 0.0:
        raise DomainError(f"mu^2 = {mu2} < 0; no such radial state")
    mu_m = math.sqrt(mu2)
    r_floor = math.sqrt(2.0 * mu_m) + 10.0
    if r_max is None:
        r_max = math.sqrt(2.0 * mu_m) + 12.0
    if not math.isfinite(r_max):
        raise DomainError(f"r_max must be finite, got {r_max}")
    if r_max < r_floor:
        raise DomainSizeError(f"r_max = {r_max} is below the safe floor {r_floor}")
    # scipy.linalg adds about 28 MiB resident, so it loads only for this oracle
    from scipy.linalg import eigh_tridiagonal, solve_banded

    step = r_max / n_grid
    r = step * np.arange(1, n_grid, dtype=float)
    diag = 2.0 / (step * step) + (mu2 - 0.25) / (r * r) + 0.25 * r * r
    off = -1.0 / (step * step)
    values = eigh_tridiagonal(diag, np.full(n_grid - 2, off), eigvals_only=True,
                              select="i", select_range=(0, k_lowest - 1))
    # boundary-leakage check on the most extended of the requested states
    top = float(values[-1])
    shift = top + 1e-7 * max(1.0, abs(top))
    bands = np.array([np.full(n_grid - 1, off), diag - shift, np.full(n_grid - 1, off)])
    u = np.ones(n_grid - 1)
    try:
        for _ in range(2):
            u = solve_banded((1, 1), bands, u)
            u /= np.abs(u).max()
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"inverse iteration at shift {shift!r}: the shifted "
                               f"matrix is singular ({exc})") from exc
    tail = float(abs(u[-1]))
    if tail > 1e-6:
        raise DomainSizeError(f"eigenfunction tail {tail} at r_max = {r_max} "
                              "indicates boundary leakage")
    reference = 2.0 * np.arange(k_lowest, dtype=float) + mu_m + 1.0
    return OracleReport.from_arrays(values, reference, {
        "ell": ell, "sigma_ell": sigma_ell, "m": m, "mu": mu_m,
        "r_max": r_max, "n_grid": n_grid, "step": step, "tail": tail,
        "k_lowest": k_lowest, "method": "sturm bisection",
    })


# ---------------------------------------------------------------------------
# block scan and quadrature
# ---------------------------------------------------------------------------

def superposition_block_scan(case, geometry, ell: int, sigma_ell: float,
                             epsilon: float, theta: float = 0.0,
                             m_max: int | None = None) -> tuple[float, int, OracleReport]:
    """Scan the per-m 2x2 blocks and verify the minimum sits at m_check.

    The 2 m_max + 1 blocks with |m| <= m_max (harmonic blocks fix n = 0)
    come from build_block(..., m=range(-m_max, m_max + 1)) as one
    (2 m_max + 1, 2, 2) stack of H against their shared overlap, checked
    finite and Hermitian by GenEig2 and solved by gen_eig_2x2 in one
    LAPACK eigh call with one 1e-12 residual check per block: the same
    bits as gen_eig_2x2(build_block(..., m=m)) block by block.  The global
    minimum must land at |m| = |m_check| and match the closed-form e_plus
    to 1e-12 relative; a minimum pressed against the window edge raises
    WindowError instead of being trusted.
    """
    geo = as_geometry_kind(geometry)
    kind = case_of(case)
    # the reference runs every check of superpose_* and gives its e_plus bits,
    # without the eigenvectors
    row = _row(kind, geo, ell, sigma_ell, epsilon, theta, stacklevel=3)
    e_plus = (row.center + row.d) + _closed_form(row, epsilon)[0]
    mc = row.m_check
    if m_max is None:
        m_max = abs(mc) + 8
    if m_max < abs(mc) + 5:
        raise UsageError(f"m_max must be >= |m_check| + 5 = {abs(mc) + 5}")
    ms = range(-m_max, m_max + 1)
    vals, _ = gen_eig_2x2(build_block(kind, geo, ell, sigma_ell, epsilon, theta, m=ms))
    minima = dict(zip(ms, vals[:, 0].tolist()))
    m_star = min(minima, key=lambda mm: (minima[mm], mm))
    if abs(m_star) >= m_max:
        raise WindowError(f"block-scan minimum sits at the window edge m = {m_star}")
    rel_dev = abs(minima[m_star] - e_plus) / max(1.0, abs(e_plus))
    if abs(m_star) != abs(mc):
        raise VerificationError(
            f"block-scan minimum at m = {m_star} disagrees with m_check = {mc}; "
            "the two-state ansatz is not self-consistent at these parameters")
    if rel_dev > 1e-12:
        raise VerificationError(
            f"block-scan minimum deviates from e_plus by {rel_dev} relative")
    report = OracleReport.from_arrays([minima[m_star]], [e_plus], {
        "case": kind.value, "geometry": geo.value, "ell": ell,
        "sigma_ell": sigma_ell, "epsilon": epsilon, "theta": theta,
        "m_star": m_star, "m_check": mc, "m_max": m_max,
        "block_minima": {str(m): minima[m] for m in sorted(minima)},
    })
    return minima[m_star], m_star, report


_GAUSS_FIRST_ORDER = 64    # first Gauss-Legendre order; each refinement doubles it
_GAUSS_MAX_ORDER = 2048    # the order past which the rule gives up
_GAUSS_TOL = 1e-12         # |Q_n - Q_2n| that counts as settled
_GAUSS_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


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


def quadrature_overlap(f: RadialFunction, g: RadialFunction,
                       r_max: float | None = None) -> float:
    """Radial overlap integral of two profiles, integral f g r dr over [0, r_max].

    r_max must be finite (DomainError) and defaults to sqrt(2 max mu)
    + 12; the integrand tail 2 r_max |f g| at r_max must stay below 1e-8
    (DomainSizeError).  The integral comes from Gauss-Legendre rules on
    r = r_max u^2, u in [0, 1], with nodes from numpy's leggauss
    (Golub-Welsch), cached per order.  Orders run 64, 128, ... up to
    2048; Q_2n is returned once |Q_n - Q_2n| <= 1e-12, and a rule that
    has not settled by then raises ConvergenceError instead of returning
    a value.  The rule sees only r_max, never mu or the normalization,
    and each profile is evaluated once per order on an array (once in
    all when g is f).
    """
    if r_max is None:
        r_max = math.sqrt(2.0 * max(f.mu, g.mu)) + 12.0
    if not math.isfinite(r_max):
        raise DomainError(f"r_max must be finite, got {r_max}")
    order, previous = _GAUSS_FIRST_ORDER, None
    while True:
        nodes, weights = _graded_rule(order)
        r = r_max * nodes
        if previous is None:  # r_max rides along for the tail check
            r = np.append(r, r_max)
        fr = f(r)
        product = fr * fr if g is f else fr * g(r)
        if previous is None:
            tail = abs(float(product[-1])) * r_max * 2.0
            if tail > 1e-8:
                raise DomainSizeError(f"integrand tail estimate {tail} at r_max = {r_max}")
            product = product[:-1]
        value = float(r_max * r_max * (weights @ product))
        if previous is not None and abs(value - previous) <= _GAUSS_TOL:
            return value
        if order >= _GAUSS_MAX_ORDER:
            raise ConvergenceError(
                f"Gauss-Legendre rule unsettled: orders {order // 2} and {order} "
                f"differ by {abs(value - previous)}")
        order, previous = 2 * order, value


def quadrature_norm(f: RadialFunction, r_max: float | None = None) -> float:
    """Norm integral f^2 r dr of a radial profile; 1 for healthy states."""
    return quadrature_overlap(f, f, r_max=r_max)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


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
    """
    if not (math.isfinite(tolerance_scale) and tolerance_scale >= 0.0):
        raise DomainError(f"tolerance_scale must be finite and >= 0, got {tolerance_scale}")
    checks: list[dict] = []

    def record(name: str, deviation: float, tolerance: float) -> None:
        tolerance = tolerance * tolerance_scale
        checks.append({"name": name, "deviation": float(deviation),
                       "tolerance": float(tolerance),
                       "passed": bool(deviation <= tolerance)})

    rng = np.random.default_rng(20240817)

    # eigensolver self-tests
    h40 = _random_hermitian(40, rng)
    values, vectors = hermitian_eigs(h40, compute_vectors=True)
    trace = float(np.trace(h40).real)
    record("eigensolver_trace_identity",
           abs(values.sum() - trace) / max(1.0, abs(trace)), 1e-10)
    hnorm = math.sqrt(float((np.abs(h40) ** 2).sum()))
    worst = max(float(np.abs(h40 @ vectors[:, k] - values[k] * vectors[:, k]).max())
                for k in range(40))
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

    # the pencil solve keeps its residual promise on random blocks
    worst_pencil = 0.0
    for _ in range(50):
        eps = float(rng.uniform(0.0, 0.95))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        hmat = _random_hermitian(2, rng)
        amat = np.array([[1.0, eps * np.exp(1j * theta)],
                         [eps * np.exp(-1j * theta), 1.0]])
        vals, vecs = gen_eig_2x2((hmat, amat))
        scale = max(float(np.abs(hmat).max()), 1.0)
        for k in range(2):
            res = float(np.abs(hmat @ vecs[:, k] - vals[k] * (amat @ vecs[:, k])).max())
            worst_pencil = max(worst_pencil, res / scale)
    record("gen_eig_residuals", worst_pencil, 1e-12)

    return {
        "parameters": {"ring_grid": ring_grid, "radial_grid": radial_grid,
                       "tolerance_scale": tolerance_scale},
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
