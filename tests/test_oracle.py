"""Numerical oracle layer: LAPACK-backed eigensolvers, FD routes, block scans."""

import math

import numpy as np
import pytest

from fluxring import (
    ConvergenceError,
    DomainError,
    DomainSizeError,
    OracleReport,
    UsageError,
    ValidationError,
    VerificationError,
    WindowError,
    harmonic_energy,
    hermitian_eigs,
    quadrature_norm,
    quadrature_overlap,
    radial_fd_spectrum,
    radial_wavefunction,
    ring_energy,
    ring_fd_spectrum,
    run_verification,
    superposition_block_scan,
    superpose_ring,
)
from fluxring import oracle


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


class TestOracleReport:
    def test_deviations(self):
        rep = OracleReport.from_arrays([1.0, 2.0], [1.0, 2.5], {"tag": 1})
        assert rep.max_abs_dev == pytest.approx(0.5, rel=1e-15)
        assert rep.max_rel_dev == pytest.approx(0.2, rel=1e-15)
        assert rep.metadata["tag"] == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            OracleReport.from_arrays([1.0], [1.0, 2.0], {})


class TestHermitianEigs:
    def test_diagonal_matrix(self):
        vals = hermitian_eigs(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(vals, [-1.0, 2.0, 3.0], rtol=0, atol=1e-13)

    def test_two_level_mixer(self):
        """sigma_x has eigenvalues -1 and +1."""
        vals = hermitian_eigs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [-1.0, 1.0], rtol=0, atol=1e-13)

    def test_against_lapack(self):
        """hermitian_eigs wraps LAPACK, so this pins the wrapper, not the solver."""
        h = _random_hermitian(24, seed=5)
        vals = hermitian_eigs(h)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(h), rtol=0, atol=1e-11)

    def test_trace_identity(self):
        h = _random_hermitian(30, seed=9)
        vals = hermitian_eigs(h)
        assert vals.sum() == pytest.approx(np.trace(h).real, abs=1e-10)

    def test_eigenvectors(self):
        h = _random_hermitian(16, seed=2)
        vals, vecs = hermitian_eigs(h, compute_vectors=True)
        for k in range(16):
            resid = h @ vecs[:, k] - vals[k] * vecs[:, k]
            assert np.max(np.abs(resid)) <= 1e-10 * np.linalg.norm(h)
            assert np.linalg.norm(vecs[:, k]) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_spectrum(self):
        """A repeated eigenvalue (2, twice) passes through the wrapper unchanged."""
        h = np.diag([2.0, 2.0, 2.0, -1.0]).astype(complex)
        h[0, 3] = 0.5j
        h[3, 0] = -0.5j
        vals = hermitian_eigs(h)
        np.testing.assert_allclose(
            vals, np.linalg.eigvalsh(h), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("compute_vectors", [False, True])
    def test_spectrum_known_by_construction(self, compute_vectors):
        """U diag(lam) U^H with U unitary from QR: the spectrum is lam, sorted.

        The reference never touches an eigensolver, so this check stays
        independent of LAPACK; the repeated value 1.5 makes it degenerate.
        """
        rng = np.random.default_rng(11)
        n = 12
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        lam = np.array([3.0, -2.0, 1.5, 0.25, 1.5, -7.0, 4.5, 1.5, 0.0, -0.5, 9.0, 2.0])
        h = (u * lam) @ u.conj().T
        h = 0.5 * (h + h.conj().T)
        expected = np.sort(lam)
        out = hermitian_eigs(h, compute_vectors=compute_vectors)
        vals = out[0] if compute_vectors else out
        np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-12)
        assert np.all(np.diff(vals) >= 0.0)
        if compute_vectors:
            vecs = out[1]
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n), rtol=0, atol=1e-12)
            np.testing.assert_allclose(h @ vecs, vecs * vals, rtol=0, atol=1e-11)

    def test_validation(self):
        with pytest.raises(ValidationError):
            hermitian_eigs(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            hermitian_eigs(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        """LAPACK would return a silently wrong spectrum for a NaN entry."""
        with pytest.raises(ValidationError, match="non-finite"):
            hermitian_eigs(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            hermitian_eigs(np.eye(3))


class TestRingFd:
    def test_free_particle_levels(self):
        """ell = 0, sigma_ell = 0: levels 0, 1, 1, 4, 4, ... at large N."""
        rep = ring_fd_spectrum(0, 0.0, n_grid=1024, k_lowest=5)
        assert rep.computed[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rep.computed[1:3], [1.0, 1.0], rtol=0, atol=1e-4)
        np.testing.assert_allclose(rep.reference, [0.0, 1.0, 1.0, 4.0, 4.0],
                                   rtol=0, atol=0)

    def test_flux_shifted_spectrum(self):
        rep = ring_fd_spectrum(4, 1.2, n_grid=1024, k_lowest=9)
        assert rep.max_abs_dev < 1e-3
        assert rep.reference[0] == ring_energy(4, 1.2, -1)
        assert rep.metadata["h"] == pytest.approx(2.0 * math.pi / 1024, rel=1e-15)

    def test_second_order_convergence(self):
        """The deviation falls at the stencil's design order, now fourth.

        The leading error is h^4 (m^6/90 + sigma_ell m^5/15), so quartering
        h from N = 256 to N = 1024 divides it by 4^4 = 256; a second-order
        stencil would give 16 and fail.
        """
        dev_coarse = ring_fd_spectrum(4, 1.2, n_grid=256, k_lowest=9).max_abs_dev
        dev_fine = ring_fd_spectrum(4, 1.2, n_grid=1024, k_lowest=9).max_abs_dev
        assert dev_coarse / dev_fine == pytest.approx(256.0, rel=1e-2)

    def test_dense_route_agrees_with_circulant(self):
        """The assembled matrix run through hermitian_eigs matches the symbol route."""
        sym = ring_fd_spectrum(4, 1.2, n_grid=64, k_lowest=9, method="circulant")
        dense = ring_fd_spectrum(4, 1.2, n_grid=64, k_lowest=9, method="dense")
        np.testing.assert_allclose(dense.computed, sym.computed, rtol=0, atol=1e-8)

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            ring_fd_spectrum(4, 1.2, n_grid=32)
        with pytest.raises(UsageError):
            ring_fd_spectrum(4, 1.2, n_grid=1024, k_lowest=0)
        with pytest.raises(UsageError):
            ring_fd_spectrum(4, 1.2, n_grid=512, method="dense")
        with pytest.raises(UsageError):
            ring_fd_spectrum(4, 1.2, n_grid=64, method="sparse")


class TestRadialFd:
    def test_trap_levels_no_flux(self):
        """ell = 4, sigma = 0, m = 0: E_n = 2n + 5."""
        rep = radial_fd_spectrum(4, 0.0, 0, n_grid=2000, k_lowest=3)
        np.testing.assert_allclose(rep.computed, [5.0, 7.0, 9.0], rtol=0, atol=1e-3)

    def test_flux_shifted_levels(self):
        rep = radial_fd_spectrum(4, 1.0, -1, n_grid=2000, k_lowest=4)
        assert rep.reference[0] == harmonic_energy(4, 1.0, 0, -1)
        assert rep.max_abs_dev < 1e-3
        assert rep.metadata["tail"] < 1e-6

    def test_second_order_convergence(self):
        """The three-point stencil's error falls as h^2: halving h divides it by 4."""
        dev_coarse = radial_fd_spectrum(4, 1.0, -1, n_grid=2000).max_abs_dev
        dev_fine = radial_fd_spectrum(4, 1.0, -1, n_grid=4000).max_abs_dev
        assert dev_coarse / dev_fine == pytest.approx(4.0, rel=1e-2)

    def test_singular_shift_is_a_convergence_error(self, monkeypatch):
        import scipy.linalg

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(scipy.linalg, "solve_banded", singular)
        with pytest.raises(ConvergenceError, match=r"inverse iteration at shift 1\d\.\d+"):
            radial_fd_spectrum(4, 1.0, -1, n_grid=2000)

    def test_validation(self):
        with pytest.raises(UsageError):
            radial_fd_spectrum(4, 1.0, -1, n_grid=500)
        for k_lowest in (0, 2000):
            with pytest.raises(UsageError):
                radial_fd_spectrum(4, 1.0, -1, n_grid=2000, k_lowest=k_lowest)
        with pytest.raises(DomainError):
            radial_fd_spectrum(1, 5.0, -1)
        with pytest.raises(DomainSizeError):
            radial_fd_spectrum(4, 1.0, -1, r_max=5.0, n_grid=2000)
        for r_max in (math.inf, math.nan):
            with pytest.raises(DomainError, match="r_max must be finite"):
                radial_fd_spectrum(4, 1.0, -1, r_max=r_max, n_grid=2000)


class TestBlockScan:
    def test_ring_case_i(self):
        minimum, m_star, rep = superposition_block_scan("i", "ring", 4, 1.0, 0.1)
        assert m_star == -1
        assert minimum == pytest.approx(superpose_ring("i", 4, 1.0, 0.1).e_plus,
                                        rel=1e-12)
        assert rep.max_rel_dev <= 1e-12
        assert rep.metadata["block_minima"]["0"] > minimum

    def test_ring_case_ii(self):
        minimum, m_star, _ = superposition_block_scan("ii", "ring", 4, 1.0, 0.1)
        assert m_star == -1
        assert minimum == pytest.approx(superpose_ring("ii", 4, 1.0, 0.1).e_plus,
                                        rel=1e-12)

    def test_harmonic_cases(self):
        for case in ("i", "ii"):
            _, m_star, rep = superposition_block_scan(case, "harmonic", 4, 1.0, 0.1)
            assert m_star == -1
            assert rep.max_rel_dev <= 1e-12

    def test_window_too_small(self):
        with pytest.raises(UsageError):
            superposition_block_scan("i", "ring", 4, 1.0, 0.1, m_max=4)

    def test_edge_minimum_raises_window_error(self):
        """A strong coupling drags the minimum to the scan edge."""
        with pytest.raises(WindowError):
            superposition_block_scan("i", "ring", 4, 3.6, 0.97, m_max=9)

    def test_ansatz_breakdown_detected(self):
        """When a neighboring block dips lower the scan refuses to certify."""
        with pytest.raises(VerificationError):
            superposition_block_scan("i", "ring", 4, 2.4, 0.5)


class TestQuadrature:
    def test_norms_are_one(self):
        for n in (0, 1, 3):
            f = radial_wavefunction(4, 1.0, n, -1)
            assert quadrature_norm(f) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality(self):
        f0 = radial_wavefunction(4, 1.0, 0, -1)
        f2 = radial_wavefunction(4, 1.0, 2, -1)
        assert abs(quadrature_overlap(f0, f2)) < 1e-8

    def test_norm_stable_under_longer_domain(self):
        f = radial_wavefunction(4, 1.0, 0, -1)
        base = quadrature_norm(f)
        wide = quadrature_norm(f, r_max=2.0 * (math.sqrt(2.0 * f.mu) + 12.0))
        assert abs(wide - base) < 1e-10

    def test_truncated_domain_rejected(self):
        f = radial_wavefunction(4, 1.0, 0, -1)
        with pytest.raises(DomainSizeError):
            quadrature_norm(f, r_max=3.0)


class TestRunVerification:
    def test_all_checks_pass_on_reduced_grids(self):
        summary = run_verification(ring_grid=256, radial_grid=2000)
        assert summary["all_passed"] is True
        names = [c["name"] for c in summary["checks"]]
        assert len(names) == len(set(names)) == 12
        for check in summary["checks"]:
            assert check["passed"] is True
            assert check["deviation"] <= check["tolerance"]

    def test_zero_tolerance_fails_every_inexact_check(self):
        # the case (i) block scans reproduce e_plus bitwise, so they
        # survive even a zero tolerance; everything inexact must fail
        summary = run_verification(ring_grid=256, radial_grid=2000,
                                   tolerance_scale=0.0)
        assert summary["all_passed"] is False
        for check in summary["checks"]:
            assert check["passed"] == (check["deviation"] == 0.0)
        failing = sum(not c["passed"] for c in summary["checks"])
        assert failing >= 10

    @pytest.mark.parametrize("scale", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_tolerance_scale_is_rejected_before_any_check(self, monkeypatch, scale):
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(oracle, "hermitian_eigs", no_checks)
        with pytest.raises(DomainError, match="tolerance_scale must be finite and >= 0"):
            run_verification(ring_grid=256, radial_grid=2000, tolerance_scale=scale)

    @pytest.mark.parametrize("ring_grid", [256, 1024])
    def test_ring_check_sees_a_second_order_stencil(self, monkeypatch, ring_grid):
        """The ring tolerance is sized for h^4, so a three-point stencil fails it."""
        def three_point(ell, sigma_ell, n_grid):
            h = 2.0 * math.pi / n_grid
            mh = np.arange(-(n_grid // 2), n_grid - n_grid // 2, dtype=float) * h
            return (4.0 * np.sin(0.5 * mh) ** 2 / (h * h) + float(ell * ell)
                    + 2.0 * sigma_ell * np.sin(mh) / h)

        monkeypatch.setattr(oracle, "_ring_fd_circulant_eigs", three_point)
        summary = run_verification(ring_grid=ring_grid, radial_grid=2000)
        ring = next(c for c in summary["checks"] if c["name"] == "ring_fd_vs_analytic")
        assert ring["passed"] is False

    def test_parameters_echoed(self):
        summary = run_verification(ring_grid=256, radial_grid=2000)
        assert summary["parameters"]["ring_grid"] == 256
        assert summary["parameters"]["radial_grid"] == 2000
