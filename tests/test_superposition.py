"""Coupled two-mode ground states: pencils, closed forms, feasibility."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from fluxring import (
    CaseError,
    DegeneracyError,
    DomainError,
    ExpansionWarning,
    GenEig2,
    SingularOverlapError,
    UsageError,
    as_geometry_kind,
    build_block,
    epsilon_param,
    feasibility_boundary,
    feasibility_sweep,
    gen_eig_2x2,
    ground_m,
    small_eps_delta_e,
    superpose_harmonic,
    superpose_ring,
    superposition_block_scan,
)
from fluxring import superposition

# 50-digit evaluations of the closed forms, rounded to double
RING_I_DELTA_E = -0.010075630518424151      # ell=4, sigma_ell=1, eps=0.1
RING_I_E_PLUS = 14.989924369481576
RING_I_MIXING = 0.002512578676009053
RING_II_DELTA_E = -0.15406592285380161
RING_II_E_PLUS = 14.845934077146198
HARM_I_DELTA_E = -0.0013007583066798646
HARM_I_E_ZERO = 4.872983346207417
HARM_II_DELTA_E = -0.019889825114361677
HARM_II_E_PLUS = 4.853093521093055
BOUNDARY_L16_S8 = 1.3933532666514159       # smallest feasible delta_alpha
EPS_STAR_L16_S8 = 0.12427301970450696      # sqrt(257)/129, epsilon at that boundary


def _random_pencils(count, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h00, h11 = rng.normal(size=2) * 5.0
        off = (rng.normal() + 1j * rng.normal()) * 2.0
        eps = rng.uniform(0.0, 0.95)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        h = np.array([[h00, off], [np.conj(off), h11]])
        a = np.array([[1.0, eps * phase], [eps * np.conj(phase), 1.0]])
        yield GenEig2(h, a)


class TestGenEig2x2:
    def test_rejects_ill_formed_problems(self):
        with pytest.raises(DomainError):
            GenEig2(np.array([[1.0, 2.0], [3.0, 1.0]]), np.eye(2))
        with pytest.raises(DomainError):
            GenEig2(np.eye(2), np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(SingularOverlapError):
            GenEig2(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        # non-finite entries are rejected before any arithmetic could warn
        with pytest.raises(DomainError, match="h must be finite"):
            GenEig2(np.full((2, 2), np.nan), np.eye(2))
        with pytest.raises(DomainError, match="h must be finite"):
            GenEig2(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2))
        with pytest.raises(DomainError, match="h must be finite"):
            GenEig2(np.array([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]), np.eye(2))
        for entry in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for bad in (np.nan, np.inf):
                a = np.eye(2, dtype=complex)
                a[entry] = bad
                with pytest.raises(DomainError, match="a must be finite"):
                    GenEig2(np.eye(2), a)
        huge = 1.5e308 + 1.5e308j  # finite parts, magnitude beyond the float range
        for a in ([[huge, 0.0], [0.0, 1.0]], [[1.0, huge], [np.conj(huge), 1.0]]):
            with pytest.raises(DomainError, match="beyond the float range"):
                GenEig2(np.eye(2), a)
        # one bad block anywhere in a stack rejects the stack
        stack = np.stack([np.eye(2)] * 3).astype(complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(DomainError, match="h must be finite"):
            GenEig2(stack, np.eye(2))
        stack[1, 0, 1] = 2.0
        with pytest.raises(DomainError, match="h is not Hermitian"):
            GenEig2(stack, np.eye(2))

    def test_stack_solves_each_block_as_alone(self):
        problems = list(_random_pencils(7, seed=5))
        a = problems[0].a
        values, vectors = gen_eig_2x2(GenEig2(np.stack([p.h for p in problems]), a))
        assert values.shape == (7, 2) and vectors.shape == (7, 2, 2)
        for k, p in enumerate(problems):
            one_values, one_vectors = gen_eig_2x2((p.h, a))
            np.testing.assert_array_equal(values[k], one_values)
            np.testing.assert_array_equal(vectors[k], one_vectors)

    def test_reference_block(self):
        """Ring case (i) block at ell=4, sigma_ell=1, eps=0.1."""
        problem = build_block("i", "ring", 4, 1.0, 0.1)
        values, _ = gen_eig_2x2(problem)
        assert values[0] == pytest.approx(RING_I_E_PLUS, rel=1e-14)

    def test_accepts_bare_tuple(self):
        problem = build_block("i", "ring", 4, 1.0, 0.1)
        values, _ = gen_eig_2x2((problem.h, problem.a))
        assert values[0] == pytest.approx(RING_I_E_PLUS, rel=1e-14)

    def test_against_scipy(self):
        """Dual route: Cholesky-free congruence vs scipy's banded solver."""
        for problem in _random_pencils(150):
            values, vectors = gen_eig_2x2(problem)
            want = scipy.linalg.eigh(problem.h, b=problem.a, eigvals_only=True)
            np.testing.assert_allclose(values, want, rtol=1e-11, atol=1e-11)
            # vectors solve the pencil and are A-orthonormal
            for k in (0, 1):
                resid = problem.h @ vectors[:, k] - values[k] * (problem.a @ vectors[:, k])
                assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.max(np.abs(problem.h)))
            gram = vectors.conj().T @ problem.a @ vectors
            np.testing.assert_allclose(gram, np.eye(2), rtol=0, atol=1e-12)

    def test_sorted_ascending(self):
        for problem in _random_pencils(20, seed=3):
            values, _ = gen_eig_2x2(problem)
            assert values[0] <= values[1]

    @pytest.mark.parametrize("off", [1e-310, 3e-310j, 1e-310 * (1 + 1j)])
    @pytest.mark.parametrize("eps", [0.0, 1e-310, 4e-310])
    @pytest.mark.parametrize("diag", [(1.0, 1.0), (0.0, 0.0), (2.0, -1.0)])
    def test_subnormal_couplings(self, off, eps, diag):
        """Couplings near 1e-310 give finite, A-orthonormal eigenvectors.

        With equal diagonals the eigenvectors hinge on the subnormal
        coupling alone, where |v|^2 underflows and complex division by
        a subnormal overflows internally.
        """
        h = np.array([[diag[0], off], [np.conj(off), diag[1]]])
        phase = np.exp(0.3j)
        a = np.array([[1.0, eps * phase], [eps * np.conj(phase), 1.0]])
        values, vectors = gen_eig_2x2((h, a))
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))
        gram = vectors.conj().T @ a @ vectors
        np.testing.assert_allclose(gram, np.eye(2), rtol=0, atol=1e-12)


class TestBuildBlock:
    def test_case_i_structure(self):
        """Case (i) couples through the overlap: off-diagonals eps * center."""
        theta = 0.4
        problem = build_block("i", "ring", 4, 1.0, 0.1, theta=theta)
        phase = complex(math.cos(theta), math.sin(theta))
        center = 17.0
        assert problem.a[0, 1] == pytest.approx(0.1 * phase, rel=1e-15)
        assert problem.h[0, 1] == pytest.approx(0.1 * center * phase, rel=1e-15)
        assert problem.h[0, 0] == pytest.approx(center - 2.0, rel=1e-15)
        assert problem.h[1, 1] == pytest.approx(center + 2.0, rel=1e-15)

    def test_case_ii_structure(self):
        """Case (ii) couples through the gradient: orthogonal sectors."""
        problem = build_block("ii", "ring", 4, 1.0, 0.1)
        assert problem.a[0, 1] == 0.0
        assert problem.h[0, 1] == pytest.approx(8.0 * 0.1, rel=1e-15)

    def test_defaults_to_ground_m(self):
        b_default = build_block("i", "ring", 4, 2.4, 0.2)
        b_explicit = build_block("i", "ring", 4, 2.4, 0.2, m=ground_m(2.4))
        np.testing.assert_array_equal(b_default.h, b_explicit.h)

    def test_neither_rejected(self):
        with pytest.raises(CaseError):
            build_block("neither", "ring", 4, 1.0, 0.1)

    @pytest.mark.parametrize("case", ["i", "ii"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_shares_the_epsilon_domain_of_superpose(self, case, geometry):
        with pytest.raises(DomainError, match="epsilon must be >= 0"):
            build_block(case, geometry, 4, 1.0, math.nan)
        with pytest.raises(DomainError, match="epsilon must be >= 0"):
            build_block(case, geometry, 4, 1.0, -0.1)
        with pytest.raises(SingularOverlapError, match=r"epsilon = 1\.5 >= 1"):
            build_block(case, geometry, 4, 1.0, 1.5)
        with pytest.raises(SingularOverlapError, match=r"epsilon = inf >= 1"):
            build_block(case, geometry, 4, 1.0, math.inf)

    @pytest.mark.parametrize("case", ["i", "ii"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_sequence_of_m_stacks_the_single_blocks(self, case, geometry):
        ms = range(-5, 6)
        stack = build_block(case, geometry, 6, 2.0, 0.2, 1.3, m=ms)
        assert stack.h.shape == (len(ms), 2, 2)
        for k, m in enumerate(ms):
            single = build_block(case, geometry, 6, 2.0, 0.2, 1.3, m=m)
            assert single.h.shape == (2, 2)
            np.testing.assert_array_equal(stack.h[k], single.h)
            np.testing.assert_array_equal(stack.a, single.a)
        values, vectors = gen_eig_2x2(stack)
        assert values.shape == (len(ms), 2) and vectors.shape == (len(ms), 2, 2)


class TestClosedForms:
    def test_ring_case_i_reference_point(self):
        res = superpose_ring("i", 4, 1.0, 0.1)
        assert res.m_check == -1
        assert res.e_zero == 15.0
        assert res.e_plus == pytest.approx(RING_I_E_PLUS, rel=1e-14)
        assert res.delta_e == pytest.approx(RING_I_DELTA_E, rel=1e-13)
        assert res.e_minus == pytest.approx(19.0 - RING_I_DELTA_E, rel=1e-14)
        assert res.mixing_ratio == pytest.approx(RING_I_MIXING, rel=1e-13)
        assert res.gap == 1.0
        assert res.feasible and not res.boundary

    def test_ring_case_ii_reference_point(self):
        res = superpose_ring("ii", 4, 1.0, 0.1)
        assert res.delta_e == pytest.approx(RING_II_DELTA_E, rel=1e-13)
        assert res.e_plus == pytest.approx(RING_II_E_PLUS, rel=1e-14)
        assert res.feasible == (abs(res.delta_e) < res.gap)
        assert res.feasible  # |delta_e| = 0.154 sits well inside the unit gap

    def test_harmonic_case_i_reference_point(self):
        res = superpose_harmonic("i", 4, 1.0, 0.1)
        assert res.e_zero == pytest.approx(HARM_I_E_ZERO, rel=1e-15)
        assert res.delta_e == pytest.approx(HARM_I_DELTA_E, rel=1e-13)

    def test_harmonic_case_ii_reference_point(self):
        res = superpose_harmonic("ii", 4, 1.0, 0.1)
        assert res.delta_e == pytest.approx(HARM_II_DELTA_E, rel=1e-13)
        assert res.e_plus == pytest.approx(HARM_II_E_PLUS, rel=1e-14)

    def test_matches_pencil_route(self):
        """Closed form and the 2x2 generalized solve give the same levels."""
        for case in ("i", "ii"):
            for geometry in ("ring", "harmonic"):
                for eps in (0.0, 0.05, 0.3, 0.7):
                    res = (superpose_ring if geometry == "ring"
                           else superpose_harmonic)(case, 5, 2.0, eps, theta=0.3)
                    values, _ = gen_eig_2x2(
                        build_block(case, geometry, 5, 2.0, eps, theta=0.3))
                    assert res.e_plus == pytest.approx(values[0], rel=1e-12)
                    assert res.e_minus == pytest.approx(values[1], rel=1e-12)

    def test_vectors_solve_the_pencil(self):
        for case in ("i", "ii"):
            problem = build_block(case, "ring", 4, 1.0, 0.35, theta=0.9)
            res = superpose_ring(case, 4, 1.0, 0.35, theta=0.9)
            for vec, val in ((res.xi, res.e_plus), (res.zeta, res.e_minus)):
                resid = problem.h @ vec - val * (problem.a @ vec)
                assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(problem.h))

    def test_unit_vectors_normalized_in_their_metric(self):
        res_i = superpose_ring("i", 4, 1.0, 0.35)
        metric = np.array([[1.0, 0.35], [0.35, 1.0]])
        xi_unit = np.asarray(res_i.xi_unit)
        assert (xi_unit.conj() @ metric @ xi_unit).real == pytest.approx(1.0, rel=1e-13)
        res_ii = superpose_ring("ii", 4, 1.0, 0.35)
        assert np.linalg.norm(np.asarray(res_ii.zeta_unit)) == pytest.approx(1.0, rel=1e-13)

    def test_equal_results_compare_equal_and_hash_alike(self):
        first = superpose_ring("i", 4, 1.0, 0.1)
        second = superpose_ring("i", 4, 1.0, 0.1)
        assert first == second
        assert hash(first) == hash(second)
        assert first != superpose_ring("i", 4, 1.0, 0.2)

    def test_theta_moves_phases_not_energies(self):
        base = superpose_ring("i", 4, 1.0, 0.2, theta=0.0)
        for theta in (0.5, 2.0, -1.3):
            res = superpose_ring("i", 4, 1.0, 0.2, theta=theta)
            assert res.delta_e == base.delta_e
            assert res.e_plus == base.e_plus
            assert res.mixing_ratio == base.mixing_ratio

    def test_zero_epsilon_decouples(self):
        res = superpose_ring("i", 4, 1.0, 0.0)
        assert res.delta_e == 0.0
        assert res.e_plus == res.e_zero
        assert res.mixing_ratio == 0.0

    def test_stable_identities(self):
        """delta_e stays accurate where 1 - sqrt(1 - eps^2) cancels."""
        eps = 1e-8
        res = superpose_ring("i", 4, 1.0, eps)
        assert res.delta_e == pytest.approx(-1.0 * eps**2, rel=1e-12)
        res2 = superpose_ring("ii", 4, 1.0, eps)
        assert res2.delta_e == pytest.approx(-8.0 * eps**2 / (2.0 * 0.25), rel=1e-12)


class TestValidation:
    def test_epsilon_range(self):
        with pytest.raises(DomainError):
            superpose_ring("i", 4, 1.0, -0.1)
        with pytest.raises(SingularOverlapError):
            superpose_ring("i", 4, 1.0, 1.0)

    def test_spin_bound(self):
        with pytest.raises(DomainError):
            superpose_ring("i", 4, 4.2, 0.1)

    def test_half_integer_degeneracy(self):
        with pytest.raises(DegeneracyError):
            superpose_ring("i", 4, 1.5, 0.1)

    def test_neither_case(self):
        with pytest.raises(CaseError):
            superpose_ring("neither", 4, 1.0, 0.1)

    def test_case_ii_needs_positive_spin(self):
        with pytest.raises(DomainError):
            superpose_ring("ii", 0, 0.0, 0.1)
        with pytest.raises(DomainError):
            superpose_ring("ii", 4, -1.0, 0.1)

    def test_case_ii_zero_spin_warns_but_evaluates(self):
        with pytest.warns(ExpansionWarning):
            res = superpose_ring("ii", 4, 0.0, 0.1)
        # exact form survives: radius = eps, delta_e = -|q| eps with m_check = 0
        assert res.delta_e == 0.0

    @pytest.mark.parametrize("route", [
        lambda: superpose_harmonic("ii", 4, 0.0, 0.1),
        lambda: feasibility_sweep("ii", "ring", 4, [0.0], [0.5, 1.0]),
        lambda: feasibility_boundary("ii", "harmonic", 4, 0.0),
        lambda: superposition_block_scan("ii", "ring", 4, 0.0, 0.1),
    ], ids=["point", "sweep", "boundary", "scan"])
    def test_zero_spin_warning_points_at_the_caller(self, route):
        with pytest.warns(ExpansionWarning) as caught:
            route()
        assert [w.filename for w in caught] == [__file__]


class TestSmallEps:
    @pytest.mark.parametrize("case, geometry, expected", [
        ("i", "ring", -1.0),           # -|sigma_ell m_check| = -1
        ("ii", "ring", -16.0),         # ell m_check / sigma = 4*(-1)/0.25
        ("i", "harmonic", -0.5 / math.sqrt(15.0)),
        ("ii", "harmonic", -8.0 / math.sqrt(15.0)),
    ])
    def test_leading_coefficients(self, case, geometry, expected):
        """delta_e ~ coefficient * eps^2 at ell=4, sigma_ell=1."""
        eps = 1e-5
        approx = small_eps_delta_e(case, geometry, 4, 1.0, eps)
        assert approx == pytest.approx(expected * eps * eps, rel=1e-12)
        exact = (superpose_ring if geometry == "ring"
                 else superpose_harmonic)(case, 4, 1.0, eps).delta_e
        assert exact == pytest.approx(approx, rel=1e-8)

    @pytest.mark.parametrize("case", ["i", "ii"])
    def test_ring_values_keep_the_explicit_forms(self, case):
        """The ring law read from the block parameters d = 2 sigma_ell m and
        q = 2 ell m equals the explicit ring forms bit for bit."""
        for ell in (1, 2, 4, 7, 12, 40):
            for sigma_ell in np.linspace(-ell, ell, 37):
                sigma_ell = float(sigma_ell)
                m_check = ground_m(sigma_ell)
                for eps in (0.0, 1e-100, 1e-7, 0.013, 0.1, 0.29, 0.3):
                    if case == "i":
                        want = -abs(sigma_ell * m_check) * eps**2
                    elif sigma_ell > 0.0:
                        want = ell * m_check * eps**2 / (sigma_ell / ell)
                    else:
                        continue
                    assert small_eps_delta_e(case, "ring", ell, sigma_ell, eps) == want

    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_case_i_subnormal_shift_is_rounded_once(self, geometry):
        """Down in the subnormal range the case (i) law is still the
        correctly rounded -|d| eps^2 / 2 of its float factors."""
        geo = as_geometry_kind(geometry)
        for ell, sigma_ell in ((4, 1.0), (9, -3.3), (30, 12.2), (2, 0.7)):
            _, d, _ = superposition._block_parameters(geo, ell, sigma_ell, ground_m(sigma_ell))
            for eps in np.geomspace(1e-162, 1e-154, 40):
                eps = float(eps)
                want = float(-abs(Fraction(d)) * Fraction(eps * eps) / 2)
                assert small_eps_delta_e("i", geometry, ell, sigma_ell, eps) == want

    def test_large_eps_warns(self):
        with pytest.warns(ExpansionWarning):
            small_eps_delta_e("i", "ring", 4, 1.0, 0.4)

    def test_case_ii_singular_spin_rejected(self):
        with pytest.raises(DomainError):
            small_eps_delta_e("ii", "ring", 4, 0.0, 0.1)
        with pytest.raises(DomainError):
            small_eps_delta_e("ii", "ring", 4, -1.0, 0.1)


class TestFeasibility:
    def test_sweep_emits_every_grid_point(self):
        points = feasibility_sweep("i", "ring", 16, [1.0, 8.0], [0.5, 1.0, 2.0])
        assert len(points) == 6
        assert {(p.sigma_ell, p.delta_alpha) for p in points} == {
            (s, d) for s in (1.0, 8.0) for d in (0.5, 1.0, 2.0)}
        for p in points:
            assert p.feasible == (abs(p.delta_e) < p.gap)

    def test_sweep_feasibility_grows_with_separation(self):
        points = feasibility_sweep("i", "ring", 16, [8.0], [0.5, 1.0, 1.5, 2.0, 3.0])
        flags = [p.feasible for p in points]
        assert flags == sorted(flags)  # infeasible first, then feasible
        assert not flags[0] and flags[-1]

    def test_sweep_carries_the_mixing_ratio(self):
        points = feasibility_sweep("ii", "harmonic", 16, [2.0, 6.0], [0.5, 2.0])
        for p in points:
            result = superpose_harmonic("ii", 16, p.sigma_ell, p.epsilon)
            assert p.mixing_ratio == result.mixing_ratio

    def test_sweep_validation(self):
        with pytest.raises(UsageError):
            feasibility_sweep("i", "ring", 16, [], [1.0])
        with pytest.raises(UsageError):
            feasibility_sweep("i", "ring", 16, [0.5], [1.0])
        with pytest.raises(UsageError):
            feasibility_sweep("i", "ring", 16, [16.0], [1.0])

    def test_boundary_reference_point(self):
        da = feasibility_boundary("i", "ring", 16, 8.0)
        assert da == pytest.approx(BOUNDARY_L16_S8, rel=1e-12)

    def test_boundary_epsilon_closed_form(self):
        """At the boundary |delta_e| = gap pins eps = sqrt(257)/129 exactly."""
        from fluxring import epsilon_param
        da = feasibility_boundary("i", "ring", 16, 8.0)
        eps = epsilon_param(da, 0.5)
        assert eps == pytest.approx(EPS_STAR_L16_S8, rel=1e-12)

    def test_boundary_zero_when_already_feasible(self):
        assert feasibility_boundary("i", "ring", 16, 0.0) == 0.0

    def test_boundary_validation(self):
        with pytest.raises(UsageError):
            feasibility_boundary("i", "ring", 16, 8.5)
        with pytest.raises(UsageError):
            feasibility_boundary("i", "ring", 16, 16.0)

    @pytest.mark.parametrize("case", ["i", "ii"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_boundary_is_the_first_feasible_float(self, geometry, case):
        """At b the shift fits under the gap; one float below b it does not.

        This holds for any correct search, however it bisects, so it pins
        the returned float without pinning the implementation.
        """
        solve = superpose_ring if geometry == "ring" else superpose_harmonic
        nonzero = 0
        for ell in range(1, 13):
            lowest = 0 if case == "ii" else 1 - ell
            for sigma_ell in range(lowest, ell):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ExpansionWarning)  # ii at sigma = 0
                    b = feasibility_boundary(case, geometry, ell, float(sigma_ell))
                    if b == 0.0:
                        continue
                    nonzero += 1
                    sigma = sigma_ell / ell
                    at = solve(case, ell, sigma_ell, epsilon_param(b, sigma))
                    below = solve(case, ell, sigma_ell,
                                  epsilon_param(math.nextafter(b, 0.0), sigma))
                assert abs(at.delta_e) <= at.gap, (ell, sigma_ell, b)
                assert abs(below.delta_e) > below.gap, (ell, sigma_ell, b)
        assert nonzero > 0

    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_zero_spin_case_ii_retry_returns_a_value(self, geometry):
        """delta_alpha = 0 is singular at sigma_ell = 0; the search retries above it."""
        for ell in (1, 2, 5, 12):
            with pytest.warns(ExpansionWarning):
                b = feasibility_boundary("ii", geometry, ell, 0.0)
            assert math.isfinite(b) and b >= 0.0

    @pytest.mark.parametrize("geometry, gap_name", [("ring", "ring_gap"),
                                                    ("harmonic", "harmonic_gap")])
    def test_gap_is_computed_once_per_row(self, monkeypatch, geometry, gap_name):
        """Sweeps and boundary searches evaluate the gap once per sigma_ell.

        The gap depends on sigma_ell alone; counting calls guards that
        without a wall-clock bound.
        """
        calls = []
        gap = getattr(superposition, gap_name)

        def counted(ell, sigma_ell):
            calls.append(sigma_ell)
            return gap(ell, sigma_ell)

        monkeypatch.setattr(superposition, gap_name, counted)
        sigmas = [float(s) for s in range(1, 13)]
        points = feasibility_sweep("i", geometry, 16, sigmas, np.linspace(0.5, 4.0, 351))
        assert len(points) == 12 * 351
        assert calls == sigmas
        calls.clear()
        feasibility_boundary("i", geometry, 16, 8.0)
        assert calls == [8.0]

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta_is_rejected_on_every_route(self, theta):
        with pytest.raises(DomainError, match="theta must be finite"):
            superpose_ring("i", 4, 1.0, 0.1, theta)
        with pytest.raises(DomainError, match="theta must be finite"):
            superpose_harmonic("ii", 4, 1.0, 0.1, theta)
        with pytest.raises(DomainError, match="theta must be finite"):
            feasibility_sweep("i", "ring", 16, [1.0, 2.0], [1.0, 2.0], theta)
        with pytest.raises(DomainError, match="theta must be finite"):
            feasibility_boundary("i", "ring", 16, 8.0, theta)
        with pytest.raises(DomainError, match="theta must be finite"):
            superposition_block_scan("i", "ring", 4, 1.0, 0.1, theta)
        for case, geometry in (("i", "ring"), ("ii", "harmonic")):
            with pytest.raises(DomainError, match="theta must be finite"):
                build_block(case, geometry, 4, 1.0, 0.1, theta)
