"""Numerical oracle layer: LAPACK-backed eigensolvers, FD routes, block scans."""

import math
import tracemalloc

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
    GenEig2,
    build_block,
    gen_eig_2x2,
    ground_m,
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
    superpose_harmonic,
    superpose_ring,
)
from fluxring import oracle, superposition


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

    def test_reports_compare_by_identity(self):
        """A record, not a value: == never compares the arrays or the metadata."""
        report = ring_fd_spectrum(4, 1.2, n_grid=64)
        assert report == report
        assert report != ring_fd_spectrum(4, 1.2, n_grid=64)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            OracleReport.from_arrays([1.0], [1.0, 2.0], {})

    @pytest.mark.parametrize("computed, reference", [
        ([math.nan, 2.0], [1.0, 2.5]), ([1.0, math.nan], [1.0, 2.5]),
        ([1.0, 2.0], [math.nan, 2.5]), ([math.inf, 2.0], [1.0, 2.5]),
        ([], []), ([[1.0, 3.0], [-math.inf, 4.0]], [[1.0, 2.0], [1.0, 4.0]]),
        ([[1.0, 3.0], [-7.5, 4.0]], [[1.0, 2.0], [1.0, 40.0]]),
        ([math.inf], [math.inf]), ([-math.inf], [math.inf]), ([1e308], [-1e308]),
    ])
    def test_deviations_follow_numpy_max(self, computed, reference):
        """Finite cells give numpy's maxima, and no cells give 0; a non-finite
        cell anywhere makes both maxima NaN.  inf - inf and inf / inf would
        warn in numpy, and a RuntimeWarning fails the suite: none is raised."""
        rep = OracleReport.from_arrays(computed, reference)
        c, r = np.asarray(computed, dtype=float), np.asarray(reference, dtype=float)
        if np.isfinite(c).all() and np.isfinite(r).all():
            with np.errstate(over="ignore"):  # 1e308 - -1e308 is inf, as in the report
                abs_dev = np.abs(c - r)
            want = (abs_dev.max(initial=0.0),
                    (abs_dev / np.maximum(np.abs(r), 1.0)).max(initial=0.0))
        else:
            want = (math.nan, math.nan)
        assert np.array_equal((rep.max_abs_dev, rep.max_rel_dev), want, equal_nan=True)
        assert all(type(v) is float for v in (rep.max_abs_dev, rep.max_rel_dev))


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

    def test_residual_over_budget_is_a_convergence_error(self, monkeypatch):
        """Vectors that miss their eigenvalues by 1e-6 fail the 1e-10 ||H|| budget."""
        eigh = np.linalg.eigh

        def perturbed(h):
            values, vectors = eigh(h)
            return values, vectors + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError, match="eigenvector residual .* exceeds budget"):
            hermitian_eigs(_random_hermitian(8, seed=3), compute_vectors=True)


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

    def test_reference_window_does_not_grow_with_the_flux(self):
        """The k lowest levels of (m + sigma_ell)^2 lie within k/2 + 1 of -sigma_ell,
        so 2k + 9 states around m_check hold the reference at any flux.  A window
        of 2 (k + ceil|sigma_ell| + 4) + 1 states took 52 MiB at sigma_ell = 1e6;
        at 1e12 it would need 16 TB, so that call comes after the peak check."""
        tracemalloc.start()
        try:
            ring_fd_spectrum(4, 1e6, n_grid=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert ring_fd_spectrum(4, 1e12, n_grid=64).reference.shape == (9,)

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            ring_fd_spectrum(4, 1.2, n_grid=32)
        with pytest.raises(UsageError):
            ring_fd_spectrum(4, 1.2, n_grid=1024, k_lowest=0)
        with pytest.raises(UsageError):
            ring_fd_spectrum(4, 1.2, n_grid=512, method="dense")
        with pytest.raises(UsageError):
            ring_fd_spectrum(4, 1.2, n_grid=64, method="sparse")

    @pytest.mark.parametrize("route", [ring_fd_spectrum, radial_fd_spectrum],
                             ids=["ring", "radial"])
    def test_grid_is_capped_before_it_is_built(self, route):
        """10^10 points would need 75 GiB per array: refused at once, by the table cap."""
        args = (4, 1.2) if route is ring_fd_spectrum else (4, 1.0, -1)
        with pytest.raises(UsageError, match="^n_grid = 10000000000 exceeds the "
                                             "1000000-row table limit$"):
            route(*args, n_grid=10**10)

    @pytest.mark.parametrize("route", [ring_fd_spectrum, radial_fd_spectrum],
                             ids=["ring", "radial"])
    @pytest.mark.parametrize("name, value", [("n_grid", 2048.5), ("k_lowest", 2.5),
                                             ("n_grid", "4000")])
    def test_grid_and_level_count_are_integers(self, route, name, value):
        """n_grid = 64.5 gave the ring a grid step of 2 pi / 64.5; in the radial route
        n_grid = 2000.5 and k_lowest = 2.5 raised a bare TypeError or ValueError."""
        args = (4, 1.2) if route is ring_fd_spectrum else (4, 1.0, -1)
        with pytest.raises(UsageError, match=f"^{name} must be an integer, got {value!r}$"):
            route(*args, **{name: value})

    @pytest.mark.parametrize("args, message", [
        ((4, math.nan), "^sigma_ell must be finite, got nan$"),
        ((4, math.inf), "^sigma_ell must be finite, got inf$"),
        ((4.5, 1.0), "^ell must be an integer, got 4.5$"),
        (("x", 1.0), "^ell must be an integer, got 'x'$"),
        ((-4, 1.0), "^ell must be >= 0, got -4$"),
        pytest.param((2**512, 1.0), rf"^ell\^2 \+ m\^2 exceeds the float range at "
                                    rf"ell={2**512}, sigma_ell=1\.0$", id="ell-2^512"),
    ])
    def test_winding_and_flux_are_checked(self, args, message):
        """NaN raised a bare ValueError, inf a RuntimeWarning and then an OverflowError,
        ell = 4.5 or -4 returned a report, ell = 'x' raised a bare TypeError and an
        ell whose square has no float a bare OverflowError."""
        with pytest.raises(DomainError, match=message):
            ring_fd_spectrum(*args, n_grid=64)

    def test_largest_winding_with_a_float_square(self):
        """2^511 squared is 2^1022, in range: the route still builds its report."""
        report = ring_fd_spectrum(2**511, 1.2, n_grid=64, k_lowest=3)
        assert report.reference[0] == float(2**1022)
        assert report.max_rel_dev == 0.0


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

    def test_levels_match_relative_accurate_lapack(self):
        """The polished levels agree with LAPACK ?pteqr to 2e-12 at N = 2000 and 8000.

        ?pteqr (Cholesky, then QR) is relative-accurate on this positive
        definite tridiagonal.  Over 421 seeded draws (ell <= 30, |m| <= 6,
        N in {2000, 4000, 8000}, up to 8 levels) the polish missed it by at
        most 1.4e-12, at N = 8000; on six levels of two N = 8000 draws a
        long-double Sturm bisection put ?pteqr within 8e-13 of the truth
        and the polish within 3e-14.  A full-precision ?stebz stops at
        eps ||T|| and misses by 5e-12 to 2e-10, 3.0e-11 at (4, 1, -1).
        The last four draws are where the coarse-grid starting shifts are
        weakest: mu^2 = 0.26, just above 1/4 where u ~ r^(mu + 1/2) is
        least smooth, and ell = 30 at mu^2 = 1296, whose eighth level the
        164-point coarse grid misses by 0.11 at N = 2000; each at N = 2000
        and 8000.
        """
        from scipy.linalg.lapack import dpteqr

        rng = np.random.default_rng(31)
        draws = [(4, 1.0, -1, 8, 2000)]
        while len(draws) < 8:
            ell, m = int(rng.integers(0, 13)), int(rng.integers(-4, 5))
            sigma_ell = float(np.round(rng.uniform(-ell, ell), 3))
            if ell * ell + m * m + 2.0 * sigma_ell * m >= 0.25:  # mu^2 - 1/4 >= 0: T is SPD
                draws.append((ell, sigma_ell, m, int(rng.integers(1, 9)), 2000))
        draws += [(1, 0.87, -1, 8, n_grid) for n_grid in (2000, 8000)]
        draws += [(30, 30.0, 6, 8, n_grid) for n_grid in (2000, 8000)]
        for ell, sigma_ell, m, k, n_grid in draws:
            report = radial_fd_spectrum(ell, sigma_ell, m, n_grid=n_grid, k_lowest=k)
            mu2 = ell * ell + m * m + 2.0 * sigma_ell * m
            step = report.metadata["step"]
            r = step * np.arange(1, n_grid)
            diag = 2.0 / (step * step) + (mu2 - 0.25) / (r * r) + 0.25 * r * r
            levels, _, _, info = dpteqr(diag, np.full(n_grid - 2, -1.0 / (step * step)),
                                        np.zeros((1, 1)))
            assert info == 0
            np.testing.assert_allclose(report.computed, np.sort(levels)[:k], rtol=0, atol=2e-12)

    def test_singular_shift_is_a_convergence_error(self, monkeypatch):
        import scipy.linalg.lapack

        def singular(dl, d, du, b, **kwargs):
            return dl, d, du, b, 1  # ?gtsv's info > 0: a zero pivot, a singular matrix

        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", singular)
        with pytest.raises(ConvergenceError, match=r"inverse iteration at shift 1\d\.\d+"):
            radial_fd_spectrum(4, 1.0, -1, n_grid=2000)

    def test_leaking_top_level_is_a_domain_size_error(self):
        """At the default r_max the 20th level's tail reaches 2e-4, far above 1e-6."""
        with pytest.raises(DomainSizeError, match=r"eigenfunction tail 0\.0002\d* at r_max"):
            radial_fd_spectrum(4, 1.0, -1, k_lowest=20)

    def test_unsettled_level_is_a_convergence_error(self, monkeypatch):
        """A residual budget of 0 is below every rounding floor: no level settles."""
        monkeypatch.setattr(oracle, "_POLISH_RESIDUAL", 0.0)
        with pytest.raises(ConvergenceError, match=r"inverse iteration at shift 1\d\.\d+: "
                                                   r"level 3 did not settle inside its bracket"):
            radial_fd_spectrum(4, 1.0, -1, n_grid=2000)

    def test_levels_polished_onto_one_eigenvalue_are_a_convergence_error(self, monkeypatch):
        """Starting shifts 0 and 1 both at the ground level: each polish settles, but
        two values within 2 budget of each other cannot be two distinct levels."""
        import scipy.linalg.lapack

        dstebz = scipy.linalg.lapack.dstebz

        def doubled(d, e, irange, *args):
            found, shifts, *rest = dstebz(d, e, irange, *args)
            if irange == 2:  # the coarse-grid starting shifts, not the count
                shifts = shifts.copy()
                shifts[1] = shifts[0]
            return (found, shifts, *rest)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", doubled)
        with pytest.raises(ConvergenceError, match=r"^levels 0 and 1 polished to 4\.87\d* "
                                                   r"and 4\.87\d*, not more than 2 budget = "
                                                   r"\d\.\d+e-\d+ apart$"):
            radial_fd_spectrum(4, 1.0, -1, n_grid=2000)

    @pytest.mark.parametrize("moved", [-1, 1])
    def test_sturm_count_other_than_k_lowest_is_a_convergence_error(self, monkeypatch, moved):
        """The certifying count must find exactly k_lowest eigenvalues up to the top
        polished level plus 2 budget; one fewer or one more fails the route."""
        import scipy.linalg.lapack

        dstebz = scipy.linalg.lapack.dstebz

        def miscounted(d, e, irange, *args):
            found, *rest = dstebz(d, e, irange, *args)
            return (found + moved if irange == 1 else found, *rest)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", miscounted)
        with pytest.raises(ConvergenceError, match=rf"^Sturm count: {4 + moved} levels lie in "
                                                   r"\(-?\d+\.\d+, 10\.87\d*\], not the 4 "
                                                   r"polished \(dstebz info 0\)$"):
            radial_fd_spectrum(4, 1.0, -1, n_grid=2000)

    def test_missing_bracket_is_a_convergence_error(self, monkeypatch):
        """?stebz bracketing one level fewer than asked for fails the route; it
        never returns a shorter list."""
        import scipy.linalg.lapack

        dstebz = scipy.linalg.lapack.dstebz

        def short(*args):
            found, *rest = dstebz(*args)
            return (found - 1, *rest)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", short)
        with pytest.raises(ConvergenceError, match=r"^Sturm bracketing found 3 of 4 levels "
                                                   r"\(dstebz info 0\)$"):
            radial_fd_spectrum(4, 1.0, -1, n_grid=2000)

    def test_validation(self):
        with pytest.raises(UsageError):
            radial_fd_spectrum(4, 1.0, -1, n_grid=500)
        for k_lowest in (0, 2000):
            with pytest.raises(UsageError):
                radial_fd_spectrum(4, 1.0, -1, n_grid=2000, k_lowest=k_lowest)
        with pytest.raises(DomainError):
            radial_fd_spectrum(1, 5.0, -1)

    @pytest.mark.parametrize("args, message", [
        ((4, math.nan, -1), "^sigma_ell must be finite, got nan$"),
        ((4, math.inf, -1), "^sigma_ell must be finite, got inf$"),
        ((4.5, 1.0, -1), "^ell must be an integer, got 4.5$"),
        ((-4, 1.0, -1), "^ell must be >= 0, got -4$"),
        ((4, 1.0, -1.5), "^m must be an integer, got -1.5$"),
        ((4, 1.0, "x"), "^m must be an integer, got 'x'$"),
        ((4, 1.0, 10**200), r"^ell\^2 \+ m\^2 exceeds the float range at ell=4, "
                            r"sigma_ell=1\.0$"),
    ])
    def test_winding_flux_and_m_are_checked(self, args, message):
        """sigma_ell = NaN was reported as a non-finite r_max, ell = 4.5 or -4 and
        m = -1.5 returned a report, m = 'x' raised a bare TypeError and m = 10^200
        a bare OverflowError."""
        with pytest.raises(DomainError, match=message):
            radial_fd_spectrum(*args, n_grid=2000)


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

    def test_edge_minimum_raises_window_error(self):
        """A strong coupling drags the minimum to the edge of the default
        window, |m| <= |m_check| + 8 = 12."""
        with pytest.raises(WindowError, match="^block-scan minimum sits at the window edge "
                                              "m = -12$"):
            superposition_block_scan("i", "ring", 4, 3.6, 0.97)

    @pytest.mark.parametrize("ell, sigma_ell", [
        (10**19, 5e18),  # len(range(...)) would overflow here
        (10**7, 5e6),    # this window took seconds to build and reject
    ])
    def test_window_beyond_the_table_cap_is_rejected_before_any_block(
            self, monkeypatch, ell, sigma_ell):
        def no_blocks(*args, **kwargs):
            raise AssertionError("a block was built")

        monkeypatch.setattr(oracle, "_blocks", no_blocks)
        with pytest.raises(UsageError, match=r"^the block-scan window of 2 m_max \+ 1 blocks "
                                             r"exceeds the 1000000-row table limit$"):
            superposition_block_scan("i", "ring", ell, sigma_ell, 0.1)

    def test_a_scan_checks_sigma_ell_once(self, monkeypatch):
        """The stack is built from the checked row: ground_m runs once per
        scan, under either module's binding."""
        calls = []

        def counted(sigma_ell):
            calls.append(sigma_ell)
            return ground_m(sigma_ell)

        monkeypatch.setattr(oracle, "ground_m", counted)
        monkeypatch.setattr(superposition, "ground_m", counted)
        superposition_block_scan("i", "ring", 4, 1.0, 0.1)
        assert calls == [1.0]

    def test_ansatz_breakdown_detected(self):
        """When a neighboring block dips lower the scan refuses to certify."""
        with pytest.raises(VerificationError):
            superposition_block_scan("i", "ring", 4, 2.4, 0.5)

    def test_minimum_off_the_closed_form_is_a_verification_error(self, monkeypatch):
        """A closed-form shift moved by 1e-9 puts e_plus 7e-11 off the scan's
        minimum, past the 1e-12 budget."""
        closed_forms = oracle._closed_forms

        def shifted(row, epsilons):
            delta_e, *rest = closed_forms(row, epsilons)
            return [delta_e + 1e-9, *rest]

        monkeypatch.setattr(oracle, "_closed_forms", shifted)
        with pytest.raises(VerificationError, match=r"^block-scan minimum deviates from "
                                                    r"e_plus by 6\.\d+e-11 relative$"):
            superposition_block_scan("i", "ring", 4, 1.0, 0.1)


def _per_block_stack(theta):
    """Three case (i) ring blocks, each against its own overlap (eps 0.1, 0.2, 0.3)."""
    blocks = [build_block("i", "ring", 4, 1.0, eps, theta, m=m)
              for eps, m in ((0.1, -1), (0.2, 0), (0.3, 1))]
    return GenEig2(np.stack([b.h for b in blocks]), np.stack([b.a for b in blocks]))


class TestStackedPencils:
    """The block scan solves all its blocks in one stacked call."""

    @pytest.mark.parametrize("theta", [0.0, 1.3])
    @pytest.mark.parametrize("case", ["i", "ii"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_block_minima_equal_single_blocks(self, geometry, case, theta):
        _, _, rep = superposition_block_scan(case, geometry, 4, 1.0, 0.1, theta)
        minima = rep.metadata["block_minima"]
        assert len(minima) == 2 * rep.metadata["m_max"] + 1
        for m, minimum in minima.items():
            values, _ = gen_eig_2x2(build_block(case, geometry, 4, 1.0, 0.1, theta,
                                                m=int(m)))
            assert minimum == float(values[0])

    @pytest.mark.parametrize("theta", [0.0, 1.3])
    @pytest.mark.parametrize("case", ["i", "ii"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_reference_is_the_single_point_e_plus(self, geometry, case, theta):
        superpose = superpose_ring if geometry == "ring" else superpose_harmonic
        for ell, sigma_ell, eps in ((4, 1.0, 0.1), (6, 2.0, 0.2), (9, 3.0, 0.05)):
            _, _, rep = superposition_block_scan(case, geometry, ell, sigma_ell, eps, theta)
            point = superpose(case, ell, sigma_ell, eps, theta)
            assert rep.reference[0] == point.e_plus
            assert rep.metadata["m_check"] == point.m_check
            assert rep.metadata["case"] == point.case.value

    def test_residual_check_survives_batching(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(b):
            vals, vecs = eigh(b)
            return vals, vecs + 1e-6

        per_block = _per_block_stack(0.0)
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(VerificationError, match="pencil residual"):
            gen_eig_2x2(build_block("i", "ring", 4, 1.0, 0.1))
        with pytest.raises(VerificationError, match="pencil residual"):
            superposition_block_scan("i", "ring", 4, 1.0, 0.1)
        with pytest.raises(VerificationError, match="pencil residual"):
            gen_eig_2x2(per_block)

    @pytest.mark.parametrize("theta", [0.0, 1.3])
    def test_residual_check_reaches_every_block_of_a_per_block_stack(self, monkeypatch,
                                                                      theta):
        """Only the last block is perturbed; its own overlap's check catches it."""
        eigh = np.linalg.eigh

        def last_perturbed(b):
            vals, vecs = eigh(b)
            vecs = vecs.copy()
            vecs[-1] += 1e-6
            return vals, vecs

        per_block = _per_block_stack(theta)
        monkeypatch.setattr(np.linalg, "eigh", last_perturbed)
        with pytest.raises(VerificationError, match="pencil residual"):
            gen_eig_2x2(per_block)

    def test_residual_check_survives_batching_on_complex_pencils(self, monkeypatch):
        """The theta = 1.3 pencils are complex; their residual check holds too."""
        eigh = np.linalg.eigh

        def perturbed(b):
            vals, vecs = eigh(b)
            return vals, vecs + 1e-6

        assert build_block("i", "ring", 4, 1.0, 0.1, 1.3).h.dtype == np.complex128
        per_block = _per_block_stack(1.3)
        assert per_block.a.shape == (3, 2, 2) and per_block.a.dtype == np.complex128
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(VerificationError, match="pencil residual"):
            gen_eig_2x2(build_block("i", "ring", 4, 1.0, 0.1, 1.3))
        with pytest.raises(VerificationError, match="pencil residual"):
            superposition_block_scan("i", "ring", 4, 1.0, 0.1, 1.3)
        with pytest.raises(VerificationError, match="pencil residual"):
            gen_eig_2x2(per_block)


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
        """The default domain sqrt(2 mu) + 12 holds the whole norm: adaptive
        quadrature over twice that domain agrees to 6e-15."""
        from scipy.integrate import quad

        f = radial_wavefunction(4, 1.0, 0, -1)
        r_wide = 2.0 * (math.sqrt(2.0 * f.mu) + 12.0)
        wide, _ = quad(lambda r: f(r) ** 2 * r, 0.0, r_wide,
                       limit=200, epsabs=1e-12, epsrel=1e-12)
        assert abs(quadrature_norm(f) - wide) < 1e-13

    def test_truncated_domain_rejected(self):
        """The n = 20 profile reaches past the default domain: its tail is 3e-4."""
        f = radial_wavefunction(4, 1.0, 20, -1)
        with pytest.raises(DomainSizeError, match=r"^integrand tail estimate 0\.0002\d* at "
                                                  r"r_max = 14\.78"):
            quadrature_norm(f)

    def test_small_mu_norm(self):
        """r^mu with mu ~ 0.14 is not smooth at the axis; the graded rule still settles."""
        f = radial_wavefunction(1, 0.99, 0, -1)
        assert f.mu == pytest.approx(math.sqrt(0.02))
        assert abs(quadrature_norm(f) - 1.0) <= 1e-12

    def test_large_mu_refines_and_matches_adaptive_quadrature(self, monkeypatch):
        from scipy.integrate import quad

        orders = []
        rule = oracle._graded_rule

        def recorded(order):
            orders.append(order)
            return rule(order)

        monkeypatch.setattr(oracle, "_graded_rule", recorded)
        f = radial_wavefunction(150, 1.0, 10, -1)
        r_max = math.sqrt(2.0 * f.mu) + 12.0
        reference, _ = quad(lambda r: f(r) ** 2 * r, 0.0, r_max,
                            limit=200, epsabs=1e-12, epsrel=1e-12)
        assert abs(quadrature_norm(f) - reference) <= 1e-12
        assert orders == [64, 128, 256, 512]

    def test_jump_inside_the_domain_never_settles(self):
        class Step:
            """Stand-in profile: 1 below r = 3, 0 beyond, so the tail check passes."""

            mu = 4.0

            def __call__(self, r):
                return np.where(np.asarray(r) < 3.0, 1.0, 0.0)

        with pytest.raises(ConvergenceError, match="orders 1024 and 2048 differ"):
            quadrature_norm(Step())


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

    # "1" and 10**400 raised a bare TypeError and OverflowError before
    @pytest.mark.parametrize("scale", [-1.0, -1e-300, math.nan, math.inf, -math.inf, "1",
                                       10**400],
                             ids=["-1.0", "-1e-300", "nan", "inf", "-inf", "1",
                                  "int-without-float"])
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

    def test_random_pencils_are_one_stacked_solve(self, monkeypatch):
        """The 50 random pencils go to gen_eig_2x2 in one call, each with its
        own overlap, and the recorded residual is the worst one computed
        pencil by pencil from single solves."""
        calls = []
        solve = oracle.gen_eig_2x2

        def recorded(problem):
            calls.append(problem)
            return solve(problem)

        monkeypatch.setattr(oracle, "gen_eig_2x2", recorded)
        summary = run_verification(ring_grid=256, radial_grid=2000)
        assert len(calls) == 5  # four block scans and the random pencils
        h, a = calls[-1]
        assert h.shape == a.shape == (50, 2, 2)
        assert len({tuple(overlap.ravel()) for overlap in a}) == 50
        worst = 0.0
        for k in range(50):
            values, vectors = gen_eig_2x2((h[k], a[k]))
            scale = max(float(np.abs(h[k]).max()), 1.0)
            for j in range(2):
                residual = h[k] @ vectors[:, j] - values[j] * (a[k] @ vectors[:, j])
                worst = max(worst, float(np.abs(residual).max()) / scale)
        check = next(c for c in summary["checks"] if c["name"] == "gen_eig_residuals")
        assert check["deviation"] == worst
        assert 0.0 < worst <= 1e-12

    def test_eigensolver_residual_is_the_worst_column(self, monkeypatch):
        """The one-expression residual equals the worst column-by-column one."""
        seen = []
        eigs = oracle.hermitian_eigs

        def recorded(h, compute_vectors=False):
            out = eigs(h, compute_vectors)
            if compute_vectors:
                seen.append((h, out))
            return out

        monkeypatch.setattr(oracle, "hermitian_eigs", recorded)
        summary = run_verification(ring_grid=256, radial_grid=2000)
        (h40, (values, vectors)), = seen
        hnorm = math.sqrt(float((np.abs(h40) ** 2).sum()))
        worst = max(float(np.abs(h40 @ vectors[:, k] - values[k] * vectors[:, k]).max())
                    for k in range(40)) / hnorm
        check = next(c for c in summary["checks"] if c["name"] == "eigensolver_residuals")
        assert check["deviation"] == pytest.approx(worst, rel=0.05)
        assert check["deviation"] <= 1e-10

    def test_parameters_echoed(self):
        summary = run_verification(ring_grid=256, radial_grid=2000)
        assert summary["parameters"]["ring_grid"] == 256
        assert summary["parameters"]["radial_grid"] == 2000
