"""Independent numerical routes for every closed form in the package.

Nothing here reuses the analytic spectra: eigenvalues come from a
hand-rolled cyclic Jacobi sweep on the real-doubled matrix, from the
exact Fourier diagonalization of the ring finite-difference circulant,
or from Sturm-sequence bisection on the radial tridiagonal.  Agreement
between these routes and the closed forms is what the verify suite and
the acceptance tests certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConvergenceError, DomainError, DomainSizeError, UsageError,
                     ValidationError, VerificationError, WindowError)
from .harmonic import RadialFunction
from .params import GeometryKind, as_geometry_kind
from .ring import ground_m
from .superposition import build_block, gen_eig_2x2, superpose_harmonic, superpose_ring

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

_JACOBI_TOL = 1e-13     # off-diagonal Frobenius, relative to the matrix norm
_JACOBI_SWEEPS = 40
_PAIR_TOL = 1e-9        # absolute split allowed between doubled eigenvalues
_RESIDUAL_TOL = 1e-10


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
# dense Hermitian eigensolver (real doubling + cyclic Jacobi)
# ---------------------------------------------------------------------------

def _jacobi_symmetric(s: np.ndarray, want_vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic Jacobi on a real symmetric matrix; returns (diag, rotations)."""
    n = s.shape[0]
    s = s.copy()
    v = np.eye(n) if want_vectors else None
    scale = math.sqrt(float((s * s).sum()))
    if scale == 0.0:
        return np.zeros(n), v
    skip = _JACOBI_TOL * scale / (2.0 * n)
    for _ in range(_JACOBI_SWEEPS):
        # (1) convergence test on the strict upper triangle
        off2 = float((np.triu(s, 1) ** 2).sum())
        if math.sqrt(2.0 * off2) <= _JACOBI_TOL * scale:
            return np.diagonal(s).copy(), v
        # (2) one cyclic sweep of (p, q) rotations
        for p in range(n - 1):
            row = s[p]
            for q in range(p + 1, n):
                apq = row[q]
                if abs(apq) <= skip:
                    continue
                tau = (s[q, q] - s[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                sn = t * c
                # (3) two-sided update S <- J^T S J restricted to rows/cols p, q
                rp = s[p, :].copy()
                rq = s[q, :].copy()
                s[p, :] = c * rp - sn * rq
                s[q, :] = sn * rp + c * rq
                cp = s[:, p].copy()
                cq = s[:, q].copy()
                s[:, p] = c * cp - sn * cq
                s[:, q] = sn * cp + c * cq
                s[p, q] = s[q, p] = 0.0
                if want_vectors:
                    vp = v[:, p].copy()
                    vq = v[:, q].copy()
                    v[:, p] = c * vp - sn * vq
                    v[:, q] = sn * vp + c * vq
    raise ConvergenceError(f"Jacobi did not converge in {_JACOBI_SWEEPS} sweeps")


def hermitian_eigs(h, compute_vectors: bool = False):
    """Eigenvalues (ascending) of a complex Hermitian matrix, no LAPACK.

    H = X + iY is embedded as the real symmetric [[X, -Y], [Y, X]], whose
    spectrum is that of H doubled.  After the Jacobi sweeps the doubled
    eigenvalues are paired within 1e-9 absolute; a failed pairing is
    reported rather than merged.  With compute_vectors=True the complex
    eigenvectors are reconstructed from the paired columns and their
    residuals checked against 1e-10 ||H||.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[0]
    scale = max(float(np.abs(h).max(initial=0.0)), 1.0)
    if np.abs(h - h.conj().T).max(initial=0.0) > 1e-12 * scale:
        raise ValidationError("matrix is not Hermitian")
    doubled = np.block([[h.real, -h.imag], [h.imag, h.real]])
    diag, rotations = _jacobi_symmetric(doubled, compute_vectors)
    order = np.argsort(diag, kind="stable")
    lam = diag[order]
    splits = lam[1::2] - lam[0::2]
    if splits.size != n or float(np.abs(splits).max(initial=0.0)) > _PAIR_TOL:
        raise ConvergenceError(
            f"doubled spectrum failed to pair within {_PAIR_TOL} "
            f"(worst split {float(np.abs(splits).max(initial=0.0))})")
    values = 0.5 * (lam[0::2] + lam[1::2])
    if not compute_vectors:
        return values
    cols = rotations[:, order[0::2]]
    vectors = cols[:n, :] + 1j * cols[n:, :]
    hnorm = math.sqrt(float((np.abs(h) ** 2).sum()))
    worst = 0.0
    for k in range(n):
        worst = max(worst, float(np.abs(h @ vectors[:, k] - values[k] * vectors[:, k]).max()))
    if worst > _RESIDUAL_TOL * max(hnorm, 1.0):
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
    assembles the same pentadiagonal matrix and runs the Jacobi solver
    instead, which doubles as the eigensolver's consistency check for
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
# radial finite differences (Dirichlet tridiagonal + Sturm bisection)
# ---------------------------------------------------------------------------

def _sturm_counts(diag: np.ndarray, off2: float, lams: np.ndarray) -> np.ndarray:
    """Number of tridiagonal eigenvalues strictly below each entry of lams."""
    tiny = 1e-280
    q = diag[0] - lams
    counts = (q < 0.0).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in diag[1:]:
            q = np.where(np.abs(q) < tiny, -tiny, q)
            q = (d - lams) - off2 / q
            counts += q < 0.0
    return counts


def _tridiag_lowest(diag: np.ndarray, off: float, k: int) -> np.ndarray:
    """k lowest eigenvalues by bisection on the Sturm counts."""
    bound = float(np.max(np.abs(diag))) + 2.0 * abs(off)
    lo = np.full(k, -bound)
    hi = np.full(k, bound)
    targets = np.arange(1, k + 1)
    off2 = off * off
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        counts = _sturm_counts(diag, off2, mid)
        takes_hi = counts >= targets
        hi = np.where(takes_hi, mid, hi)
        lo = np.where(takes_hi, lo, mid)
        if float((hi - lo).max()) <= 1e-10 * max(1.0, bound * 2 ** -40):
            break
        if float((hi - lo).max()) <= 1e-11 * np.abs(hi).max(initial=1.0):
            break
    return 0.5 * (lo + hi)


def _tridiag_solve(diag: list[float], off: float, rhs: list[float]) -> list[float]:
    """Thomas solve of (tridiag - shift) u = rhs; caller pre-shifts diag."""
    n = len(diag)
    cp = [0.0] * n
    dp = [0.0] * n
    denom = diag[0]
    cp[0] = off / denom
    dp[0] = rhs[0] / denom
    for j in range(1, n):
        denom = diag[j] - off * cp[j - 1]
        if denom == 0.0:
            denom = 1e-300
        cp[j] = off / denom
        dp[j] = (rhs[j] - off * dp[j - 1]) / denom
    u = [0.0] * n
    u[-1] = dp[-1]
    for j in range(n - 2, -1, -1):
        u[j] = dp[j] - cp[j] * u[j + 1]
    return u


def radial_fd_spectrum(ell: int, sigma_ell: float, m: int, r_max: float | None = None,
                       n_grid: int = 4000, k_lowest: int = 4) -> OracleReport:
    """Lowest radial levels of the trap from a Dirichlet FD discretization.

    The substitution u = f sqrt(r) turns the radial problem into
    -u'' + [(mu^2 - 1/4)/r^2 + r^2/4] u = E u on (0, r_max) with u = 0 at
    both ends; the lowest k eigenvalues of the resulting tridiagonal are
    located by Sturm bisection and compared against 2n + mu + 1.  The
    eigenfunction of the highest requested level is recovered by inverse
    iteration and its boundary tail must stay below 1e-6.
    """
    if n_grid < 2000:
        raise UsageError(f"n_grid must be >= 2000, got {n_grid}")
    mu2 = ell * ell + m * m + 2.0 * sigma_ell * m
    if mu2 < 0.0:
        raise DomainError(f"mu^2 = {mu2} < 0; no such radial state")
    mu_m = math.sqrt(mu2)
    r_floor = math.sqrt(2.0 * mu_m) + 10.0
    if r_max is None:
        r_max = math.sqrt(2.0 * mu_m) + 12.0
    if r_max < r_floor:
        raise DomainSizeError(f"r_max = {r_max} is below the safe floor {r_floor}")
    step = r_max / n_grid
    r = step * np.arange(1, n_grid, dtype=float)
    diag = 2.0 / (step * step) + (mu2 - 0.25) / (r * r) + 0.25 * r * r
    off = -1.0 / (step * step)
    values = _tridiag_lowest(diag, off, k_lowest)
    # boundary-leakage check on the most extended of the requested states
    shift = values[-1] + 1e-7 * max(1.0, abs(values[-1]))
    shifted = (diag - shift).tolist()
    u = [1.0] * (n_grid - 1)
    for _ in range(2):
        u = _tridiag_solve(shifted, off, u)
        peak = max(abs(x) for x in u)
        u = [x / peak for x in u]
    tail = abs(u[-1])
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

    Every block with |m| <= m_max is solved through gen_eig_2x2 (harmonic
    blocks fix n = 0).  The global minimum must land at |m| = |m_check|
    and match the closed-form e_plus to 1e-12 relative; a minimum pressed
    against the window edge raises WindowError instead of being trusted.
    """
    geo = as_geometry_kind(geometry)
    analytic = (superpose_ring(case, ell, sigma_ell, epsilon, theta)
                if geo is GeometryKind.RING
                else superpose_harmonic(case, ell, sigma_ell, epsilon, theta))
    mc = analytic.m_check
    if m_max is None:
        m_max = abs(mc) + 8
    if m_max < abs(mc) + 5:
        raise UsageError(f"m_max must be >= |m_check| + 5 = {abs(mc) + 5}")
    minima: dict[int, float] = {}
    for m in range(-m_max, m_max + 1):
        block = build_block(case, geo, ell, sigma_ell, epsilon, theta, m=m)
        vals, _ = gen_eig_2x2(block)
        minima[m] = float(vals[0])
    m_star = min(minima, key=lambda mm: (minima[mm], mm))
    if abs(m_star) >= m_max:
        raise WindowError(f"block-scan minimum sits at the window edge m = {m_star}")
    rel_dev = abs(minima[m_star] - analytic.e_plus) / max(1.0, abs(analytic.e_plus))
    if abs(m_star) != abs(mc):
        raise VerificationError(
            f"block-scan minimum at m = {m_star} disagrees with m_check = {mc}; "
            "the two-state ansatz is not self-consistent at these parameters")
    if rel_dev > 1e-12:
        raise VerificationError(
            f"block-scan minimum deviates from e_plus by {rel_dev} relative")
    report = OracleReport.from_arrays([minima[m_star]], [analytic.e_plus], {
        "case": analytic.case.value, "geometry": geo.value, "ell": ell,
        "sigma_ell": sigma_ell, "epsilon": epsilon, "theta": theta,
        "m_star": m_star, "m_check": mc, "m_max": m_max,
        "block_minima": {str(m): minima[m] for m in sorted(minima)},
    })
    return minima[m_star], m_star, report


def quadrature_overlap(f: RadialFunction, g: RadialFunction,
                       r_max: float | None = None) -> float:
    """Radial overlap integral of two profiles, integral f g r dr."""
    if r_max is None:
        r_max = math.sqrt(2.0 * max(f.mu, g.mu)) + 12.0
    tail = abs(f(r_max) * g(r_max)) * r_max * 2.0
    if tail > 1e-8:
        raise DomainSizeError(f"integrand tail estimate {tail} at r_max = {r_max}")
    from scipy.integrate import quad  # ~0.6 s to import, so only when integrating

    value, _ = quad(lambda rr: f(rr) * g(rr) * rr, 0.0, r_max,
                    limit=200, epsabs=1e-12, epsrel=1e-12)
    return value


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
