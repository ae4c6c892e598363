"""Coupled two-mode ground states: pencils, closed forms, feasibility."""

import math
import re
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
EPS_STAR_L16_S8 = 0.12427301970450695      # sqrt(257)/129, epsilon at that boundary


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
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("stacked", [False, True], ids=["block", "stack"])
    def test_value_semantics(self, dtype, stacked):
        """== and hash go by dtype, shape and entries; h and a are read-only copies."""
        h = np.array([[15.0, 1.7], [1.7, 19.0]], dtype=dtype)
        a = np.array([[1.0, 0.1], [0.1, 1.0]], dtype=dtype)
        if stacked:
            h = np.stack([h, 2.0 * h, -h])
        problem = GenEig2(h, a)
        twin = GenEig2(h.copy(), a.copy())
        assert problem == twin and hash(problem) == hash(twin)
        assert problem.h is not h and problem.a is not a
        for array in (problem.h, problem.a):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0, 1] = 5.0
        h[..., 0, 0] += 1.0  # the caller's later edit leaves the problem alone
        assert problem == twin and problem != GenEig2(h, a)
        signed = GenEig2(twin.h, np.array([[1.0, -0.0], [-0.0, 1.0]], dtype=dtype))
        unsigned = GenEig2(twin.h, np.eye(2, dtype=dtype))
        assert signed == unsigned and hash(signed) == hash(unsigned)  # -0.0 == 0.0
        other = np.complex128 if dtype == np.float64 else np.float64
        assert problem != GenEig2(twin.h.real.astype(other), twin.a.real.astype(other))
        assert problem != GenEig2(twin.h[:2] if stacked else twin.h[None], twin.a)
        assert problem != (twin.h, twin.a)

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

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_per_block_overlaps_solve_each_block_as_alone(self, dtype):
        rng = np.random.default_rng(17)
        k = 40
        g = rng.standard_normal((k, 2, 2)).astype(dtype)
        if dtype is np.complex128:
            g += 1j * rng.standard_normal((k, 2, 2))
            a01 = rng.uniform(0.0, 0.95, k) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
        else:
            a01 = rng.uniform(-0.95, 0.95, k)
        h = 0.5 * (g + g.conj().swapaxes(-1, -2))
        a = np.ones((k, 2, 2), dtype=dtype)
        a[:, 0, 1] = a01
        a[:, 1, 0] = a01.conj()
        values, vectors = gen_eig_2x2(GenEig2(h, a))
        assert values.shape == (k, 2) and vectors.shape == (k, 2, 2)
        assert vectors.dtype == dtype
        for j in range(k):
            one_values, one_vectors = gen_eig_2x2((h[j], a[j]))
            np.testing.assert_array_equal(values[j], one_values)
            np.testing.assert_array_equal(vectors[j], one_vectors)

    @pytest.mark.parametrize("theta", [0.0, 1.3])
    def test_a_shared_overlap_is_the_one_overlap_case(self, theta):
        """The shared overlap repeated per block gives the same bits."""
        block = build_block("i", "harmonic", 6, 2.0, 0.2, theta, m=range(-10, 11))
        repeated = np.broadcast_to(block.a, block.h.shape)
        shared = gen_eig_2x2(block)
        per_block = gen_eig_2x2((block.h, repeated))
        for got, want in zip(per_block, shared):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad, error, message", [
        ([[1.0, np.nan], [np.nan, 1.0]], DomainError, "a must be finite"),
        ([[1.5, 0.1], [0.1, 1.0]], DomainError, "a must have unit diagonal"),
        ([[1.0, 0.1], [0.2, 1.0]], DomainError, "a is not Hermitian"),
        ([[1.0, 1.0], [1.0, 1.0]], SingularOverlapError, "overlap magnitude 1.0 >= 1"),
        ([[1.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 1.0]], DomainError,
         "beyond the float range"),
    ])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_one_bad_overlap_in_a_stack_raises_as_alone(self, bad, error, message, where):
        h = np.stack([np.diag([1.0, 2.0])] * 7)
        a = np.stack([np.array([[1.0, 0.3], [0.3, 1.0]])] * 7).astype(np.asarray(bad).dtype)
        with pytest.raises(error) as alone:
            GenEig2(h[where], bad)
        a[where] = bad
        with pytest.raises(error, match=re.escape(message)) as stacked:
            GenEig2(h, a)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("h, a, message", [
        (np.eye(2), np.eye(3), "a must be one 2x2 overlap shared by the blocks or a "
                               "(k, 2, 2) stack of them, one per block, got shape (3, 3)"),
        (np.eye(3), np.eye(2), "h must be one 2x2 block or a (k, 2, 2) stack of blocks, "
                               "got shape (3, 3)"),
        ([[1.0, 0.0], [0.0]], np.eye(2), "h must be one 2x2 block or a (k, 2, 2) stack of "
                                         "blocks, got a ragged nesting"),
        (np.eye(2), [[1.0, 0.0], [0.0]], "a must be one 2x2 overlap shared by the blocks "
                                         "or a (k, 2, 2) stack of them, one per block, got "
                                         "a ragged nesting"),
        (np.ones(4), np.eye(2), "h must be one 2x2 block or a (k, 2, 2) stack of blocks, "
                                "got shape (4,)"),
        (np.zeros((2, 2, 2, 2)), np.eye(2), "got shape (2, 2, 2, 2)"),
        (np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 2),
         "a holds 2 overlaps for the 3 blocks of h; give one overlap shared by the blocks "
         "or one per block"),
        (np.eye(2), np.stack([np.eye(2)] * 2), "a holds 2 overlaps for the single block h"),
        ([["x", "y"], ["y", "x"]], np.eye(2), "h and a must hold numbers"),
    ])
    def test_shape_errors_are_typed(self, h, a, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            GenEig2(h, a)
        with pytest.raises(DomainError, match=re.escape(message)):
            gen_eig_2x2((h, a))

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
        """The case is checked first, as on every superposition route: the trap
        radicand at m = -5 is < 0 and sigma_ell = NaN is no flux, yet the case
        is reported."""
        for args in (("ring", 4, 1.0, 0.1), ("harmonic", 2, 3.0, 0.1, 0.0, -5),
                     ("ring", 4, math.nan, 0.1)):
            with pytest.raises(CaseError, match="^blocks exist only for case"):
                build_block("neither", *args)

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

    @pytest.mark.parametrize("theta", [0.0, 1.3])
    def test_stack_names_the_first_m_without_a_radial_exponent(self, theta):
        """|sigma_ell| > ell leaves mu* undefined for m = -5 ... 5; the stack
        raises the single block's error for the first of them."""
        with pytest.raises(DomainError) as single:
            build_block("i", "harmonic", 2, 3.0, 0.1, theta, m=-5)
        with pytest.raises(DomainError, match=f"^{re.escape(str(single.value))}$"):
            build_block("i", "harmonic", 2, 3.0, 0.1, theta, m=range(-7, 8))

    def test_empty_stack(self):
        stack = build_block("i", "harmonic", 4, 1.0, 0.1, m=[])
        values, vectors = gen_eig_2x2(stack)
        assert stack.h.shape == (0, 2, 2)
        assert values.shape == (0, 2) and vectors.shape == (0, 2, 2)

    @pytest.mark.parametrize("ell", [-4, 4.5, math.nan, math.inf, "4"])
    def test_rejects_the_ell_that_superpose_rejects(self, ell):
        for build in (lambda: build_block("i", "ring", ell, 1.0, 0.1),
                      lambda: build_block("ii", "harmonic", ell, 1.0, 0.1, m=range(-6, 7)),
                      lambda: superpose_ring("i", ell, 1.0, 0.1)):
            with pytest.raises(DomainError, match="^ell must be (>= 0|an integer), got "):
                build()

    @pytest.mark.parametrize("sigma_ell", [math.nan, math.inf, -math.inf, "1.0", None])
    def test_rejects_the_sigma_ell_that_superpose_rejects(self, sigma_ell):
        """A given m skipped the ground_m check: NaN reached 'h must be finite',
        inf in a trap 'radial exponent undefined', and text or None a bare TypeError."""
        with pytest.raises(DomainError, match="sigma_ell"):
            superpose_ring("i", 4, sigma_ell, 0.1)
        message = f"^sigma_ell must be finite, got {re.escape(repr(sigma_ell))}$"
        for build in (lambda: build_block("i", "ring", 4, sigma_ell, 0.1, m=-1),
                      lambda: build_block("ii", "harmonic", 4, sigma_ell, 0.1, m=range(-6, 7)),
                      lambda: build_block("i", "harmonic", 4, sigma_ell, 0.1, 1.3, m=[0, 1]),
                      lambda: build_block("ii", "ring", 4, sigma_ell, 0.1)):
            with pytest.raises(DomainError, match=message):
                build()

    @pytest.mark.parametrize("m", [2.5, [2.5], "3", math.nan, math.inf, [0, 1.5],
                                   np.array([0.5]), [None]])
    def test_m_must_be_an_integer(self, m):
        with pytest.raises(DomainError, match="^m must be an integer, got "):
            build_block("i", "ring", 4, 1.0, 0.1, m=m)

    def test_integer_valued_m_builds_the_integer_blocks(self):
        np.testing.assert_array_equal(build_block("i", "harmonic", 4, 1.0, 0.1, m=2.0).h,
                                      build_block("i", "harmonic", 4, 1.0, 0.1, m=2).h)
        np.testing.assert_array_equal(
            build_block("ii", "ring", 4, 1.0, 0.1, m=[-1.0, np.int64(0), 1]).h,
            build_block("ii", "ring", 4, 1.0, 0.1, m=range(-1, 2)).h)


def _random_scan_stacks(count, seed):
    """Seeded theta = 0 block stacks over both cases and geometries."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        case, geometry = (("i", "ring"), ("ii", "ring"), ("i", "harmonic"),
                          ("ii", "harmonic"))[k % 4]
        ell = int(rng.integers(1, 13))
        while True:
            sigma_ell = float(rng.uniform(0.0 if case == "ii" else -ell, ell))
            if abs(2.0 * sigma_ell - round(2.0 * sigma_ell)) > 1e-3 and abs(sigma_ell) < ell:
                break
        m_max = abs(ground_m(sigma_ell)) + int(rng.integers(5, 12))
        yield build_block(case, geometry, ell, sigma_ell, float(rng.uniform(0.0, 0.95)),
                          m=range(-m_max, m_max + 1))


class TestRealPencils:
    """At theta = 0 the pencil is real: float64 blocks, overlap and vectors."""

    @pytest.mark.parametrize("case", ["i", "ii"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_dtype_follows_the_phase(self, case, geometry):
        for m in (None, range(-6, 7)):
            real = build_block(case, geometry, 6, 2.0, 0.2, 0.0, m=m)
            assert real.h.dtype == real.a.dtype == np.float64
            assert gen_eig_2x2(real)[1].dtype == np.float64
            for theta in (1.3, math.pi):
                pencil = build_block(case, geometry, 6, 2.0, 0.2, theta, m=m)
                assert pencil.h.dtype == pencil.a.dtype == np.complex128
                assert gen_eig_2x2(pencil)[1].dtype == np.complex128

    def test_one_complex_input_makes_the_pencil_complex(self):
        h = np.array([[15.0, 1.7], [1.7, 19.0]])
        a = np.array([[1.0, 0.1], [0.1, 1.0]])
        assert GenEig2(h, a).h.dtype == np.float64
        assert GenEig2(h.astype(complex), a).a.dtype == np.complex128
        assert GenEig2(h, a.astype(complex)).h.dtype == np.complex128
        assert GenEig2([[15, 1], [1, 19]], [[1, 0], [0, 1]]).h.dtype == np.float64

    def test_real_route_values_equal_the_complex_route(self):
        """2000 stacks: the float64 solve gives the complex128 solve's bits."""
        for problem in _random_scan_stacks(2000, seed=21):
            real_values, real_vectors = gen_eig_2x2(problem)
            values, vectors = gen_eig_2x2(GenEig2(problem.h.astype(complex),
                                                  problem.a.astype(complex)))
            np.testing.assert_array_equal(real_values, values)
            assert real_vectors.dtype == np.float64 and vectors.dtype == np.complex128

    def test_real_hermitian_test_compares_h01_with_h10(self):
        h = np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]])
        with pytest.raises(DomainError, match="h is not Hermitian"):
            GenEig2(h, np.eye(2))
        with pytest.raises(DomainError, match="h is not Hermitian"):
            GenEig2(h.astype(complex), np.eye(2))
        h[1, 0] = 2.0 + 1e-14
        GenEig2(h, np.eye(2))
        GenEig2(h.astype(complex), np.eye(2))


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
        with pytest.raises(CaseError, match="^expansion exists only for case"):
            small_eps_delta_e("neither", "ring", 4, 1.0, 0.1)

    @pytest.mark.parametrize("solve", [superpose_ring, superpose_harmonic])
    def test_nan_sigma_ell_is_a_domain_error(self, solve):
        with pytest.raises(DomainError, match="sigma_ell must be finite, got nan"):
            solve("i", 4, math.nan, 0.1)

    @pytest.mark.parametrize("route", [
        lambda: superpose_ring("i", 10**200, 0.0, 0.1),
        lambda: superpose_harmonic("ii", 10**200, 1.0, 0.1),
        lambda: build_block("i", "ring", 10**200, 0.0, 0.1),
        lambda: build_block("ii", "harmonic", 10**200, 0.0, 0.1, m=range(-2, 3)),
        lambda: superposition_block_scan("i", "ring", 10**200, 0.0, 0.1),
        lambda: feasibility_sweep("i", "harmonic", 10**200, [0.0], [1.0]),
    ], ids=["ring", "harmonic", "block", "stack", "scan", "sweep"])
    def test_ell_squared_beyond_the_float_range_is_a_domain_error(self, route):
        """ell^2 + m^2 has no float: the spectra's DomainError, not an OverflowError."""
        with pytest.raises(DomainError, match=r"^ell\^2 \+ m\^2 exceeds the float range "
                                              rf"at ell={10**200}, sigma_ell="):
            route()

    @pytest.mark.parametrize("route", [
        lambda ell: superpose_ring("ii", ell, 1.0, 0.1),
        lambda ell: superpose_harmonic("ii", ell, 1.0, 0.1),
        lambda ell: small_eps_delta_e("ii", "ring", ell, 1.0, 0.1),
        lambda ell: feasibility_sweep("i", "ring", ell, [1.0], [0.5, 1.0]),
        lambda ell: feasibility_sweep("ii", "harmonic", ell, [1.0], [1.0]),
        lambda ell: feasibility_boundary("i", "ring", ell, 1.0),
    ], ids=["ring", "harmonic", "small-eps", "sweep-i", "sweep-ii", "boundary"])
    def test_ell_beyond_the_float_range_is_a_domain_error(self, route):
        """sigma_ell / ell has no float either: the same DomainError."""
        ell = 10**400
        with pytest.raises(DomainError, match=r"^ell\^2 \+ m\^2 exceeds the float range "
                                              rf"at ell={ell}, sigma_ell=1.0$"):
            route(ell)

    @pytest.mark.parametrize("route, message", [
        (lambda: superpose_ring("i", 4, "1.0", 0.1), "sigma_ell must be finite, got '1.0'"),
        (lambda: superpose_harmonic("i", 4, 1j, 0.1), "sigma_ell must be finite, got 1j"),
        (lambda: superpose_ring("i", 10**401, 10**400, 0.1), "sigma_ell must be finite"),
        (lambda: small_eps_delta_e("i", "ring", 4, "1.0", 0.1),
         "sigma_ell must be finite, got '1.0'"),
        (lambda: superpose_ring("i", 4, 1.0, "0.1"), "epsilon must be >= 0, got '0.1'"),
        (lambda: small_eps_delta_e("ii", "harmonic", 4, 1.0, None),
         "epsilon must be >= 0, got None"),
    ], ids=["sigma-str", "sigma-complex", "sigma-huge-int", "small-eps-sigma", "eps-str",
            "eps-none"])
    def test_a_non_number_is_a_domain_error(self, route, message):
        """These raised bare TypeErrors (or OverflowErrors) before the checks caught them."""
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            route()

    def test_m_check_is_the_nearest_integer(self):
        """sigma_ell + 1/2 rounds up to 1 here; the ground state is still m = 0."""
        assert superpose_ring("i", 4, 0.49999999999999994, 0.1).m_check == 0

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
        # sigma = eps = 0: R + sigma = 0 leaves the states unmixed
        with pytest.warns(ExpansionWarning):
            res = superpose_ring("ii", 4, 0.0, 0.0)
        assert (res.delta_e, res.mixing_ratio) == (0.0, 0.0)

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
        q = 2 ell m equals the explicit ring forms bit for bit.

        The grid holds half-integer sigma_ell (+-0.5 at ell = 1, +-3.5 at
        ell = 7), where the ground level is degenerate: there the value is
        still pinned, and the warning is asserted.
        """
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
                    if 2.0 * sigma_ell % 2.0 == 1.0:
                        with pytest.warns(ExpansionWarning, match="degenerate"):
                            got = small_eps_delta_e(case, "ring", ell, sigma_ell, eps)
                    else:
                        got = small_eps_delta_e(case, "ring", ell, sigma_ell, eps)
                    assert got == want

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
        with pytest.raises(DomainError, match=r"^case \(ii\) needs ell >= 1 to define"):
            small_eps_delta_e("ii", "ring", 0, 0.0, 0.1)

    @pytest.mark.parametrize("case", ["i", "ii"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    @pytest.mark.parametrize("ell, sigma_ell, eps", [
        (4, 1.0, math.nan), (4, 1.0, math.inf), (4, 1.0, -0.1), (4, 1.0, 1.0),
        (4, 7.0, 0.1), (4, -7.0, 0.1), (4, math.inf, 0.1), (4, math.nan, 0.1),
        (4.5, 1.0, 0.1), (-4, 1.0, 0.1), (4, 7.0, math.nan),
    ])
    def test_shares_the_checks_of_superpose(self, case, geometry, ell, sigma_ell, eps):
        """The expansion raises what the exact form raises, in the same order."""
        solve = superpose_ring if geometry == "ring" else superpose_harmonic
        with pytest.raises(Exception) as exact:
            solve(case, ell, sigma_ell, eps)
        with pytest.raises(type(exact.value), match=f"^{re.escape(str(exact.value))}$"):
            small_eps_delta_e(case, geometry, ell, sigma_ell, eps)

    def test_degenerate_level_warns_and_takes_the_lower_m(self):
        with pytest.raises(DegeneracyError):
            superpose_ring("i", 4, 1.5, 0.1)
        with pytest.warns(ExpansionWarning, match="sigma_ell = 1.5 makes the single-state "
                                                  "ground level degenerate"):
            shift = small_eps_delta_e("i", "ring", 4, 1.5, 0.1)
        assert shift == -abs(1.5 * ground_m(1.5)) * 0.1**2

    @pytest.mark.parametrize("sigma_ell, eps, message", [
        (1.5, 0.1, "^sigma_ell = 1.5 makes the single-state ground level degenerate"),
        (1.0, 0.4, r"^small-eps expansion evaluated at eps = 0\.4 > 0\.3$"),
    ], ids=["half_integer", "large_eps"])
    def test_warnings_point_at_the_caller(self, sigma_ell, eps, message):
        """Both ExpansionWarnings name this file, not superposition.py: a
        stacklevel of 1 or 3 would point into the package or into pytest."""
        with pytest.warns(ExpansionWarning, match=message) as caught:
            small_eps_delta_e("i", "ring", 4, sigma_ell, eps)
        assert [w.filename for w in caught] == [__file__]


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

    @pytest.mark.parametrize("case, sigma_ells, delta_alphas", [
        ("ii", [-1.0], [1.0, -1.0]),         # the first row's own checks come first
        ("i", [0.0], [1.0, 0.0, -1.0]),      # epsilon = 1 in column 1 before column 2
        ("i", [0.0, 1.0], [-1.0, 1.0]),      # a negative first column before the row
        ("ii", [1.0, -1.0], [1.0, 0.5, -1.0]),
        ("i", [1.0, 0.0], [0.0, 1.0]),       # the second row's epsilon = 1
        ("i", [2.0], [1.0, math.nan, -1.0]),
    ])
    @pytest.mark.parametrize("convention", ["paper", "standard", "fancy"])
    def test_sweep_raises_what_its_first_failing_point_raises(self, case, sigma_ells,
                                                              delta_alphas, convention):
        """Point by point, in row order, the first point that fails decides."""
        with pytest.raises(Exception) as first:
            for s in sigma_ells:
                for da in delta_alphas:
                    superpose_ring(case, 4, s, epsilon_param(da, s / 4, convention))
        with pytest.raises(type(first.value), match=f"^{re.escape(str(first.value))}$"):
            feasibility_sweep(case, "ring", 4, sigma_ells, delta_alphas,
                              convention=convention)

    @pytest.mark.parametrize("case", ["i", "ii"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_a_later_row_meets_epsilon_one_in_the_kernel(self, geometry, case):
        """The sigma_ell = 0 row starts at epsilon = exp(-1/4) < 1, so its row
        checks pass; only the kernel's own per-epsilon check sees the second
        column's epsilon = 1.  Case (ii) warns about sigma = 0 first."""
        def sweep():
            with pytest.raises(SingularOverlapError, match=r"^epsilon = 1\.0 >= 1$") as caught:
                feasibility_sweep(case, geometry, 4, [1, 0], [0.5, 0.0])
            assert [entry.name for entry in caught.traceback[-2:]] == [
                "_closed_forms", "_check"]

        if case == "ii":
            with pytest.warns(ExpansionWarning, match="case \\(ii\\) with sigma = 0"):
                sweep()
        else:
            sweep()

    def test_sweep_validation(self):
        with pytest.raises(UsageError):
            feasibility_sweep("i", "ring", 16, [], [1.0])
        with pytest.raises(UsageError):
            feasibility_sweep("i", "ring", 16, [0.5], [1.0])
        with pytest.raises(UsageError):
            feasibility_sweep("i", "ring", 16, [16.0], [1.0])

    def test_boundary_reference_point(self):
        assert feasibility_boundary("i", "ring", 16, 8.0) == BOUNDARY_L16_S8

    def test_boundary_epsilon_closed_form(self):
        """At the boundary |delta_e| = gap pins eps = sqrt(257)/129 exactly."""
        from fluxring import epsilon_param
        da = feasibility_boundary("i", "ring", 16, 8.0)
        assert epsilon_param(da, 0.5) == EPS_STAR_L16_S8

    @pytest.mark.parametrize("case, geometry, ell, sigma_ell, theta, convention, expected", [
        ('i', 'ring', 16, -11.0, 0.0, 'paper', 1.44257951768741),
        ('i', 'ring', 10**6, -999999.0, 1.3, 'paper', 2.6933859024064546),
        ('i', 'ring', 10**6, -999999.0, 0.0, 'standard', 3.8090228718877053),
        ('i', 'ring', 16, -11.0, 1.3, 'standard', 2.0401155187151736),
        ('i', 'harmonic', 10**6, -999999.0, 0.0, 'paper', 2.693385913970501),
        ('i', 'harmonic', 16, -11.0, 1.3, 'paper', 1.442897549606944),
        ('i', 'harmonic', 16, -11.0, 0.0, 'standard', 2.040565283769046),
        ('i', 'harmonic', 10**6, -999999.0, 1.3, 'standard', 3.8090228882417367),
        ('ii', 'ring', 10**6, 123457.0, 0.0, 'paper', 3.715889001134315),
        ('ii', 'ring', 16, 5.0, 1.3, 'paper', 1.6481000242201058),
        ('ii', 'ring', 16, 5.0, 0.0, 'standard', 2.3307654063995003),
        ('ii', 'ring', 10**6, 123457.0, 1.3, 'standard', 5.255060621677162),
        ('ii', 'harmonic', 16, 5.0, 0.0, 'paper', 1.6482655384292149),
        ('ii', 'harmonic', 10**6, 123457.0, 1.3, 'paper', 3.715890204657204),
        ('ii', 'harmonic', 10**6, 123457.0, 0.0, 'standard', 5.255062323715554),
        ('ii', 'harmonic', 16, 5.0, 1.3, 'standard', 2.3309994788387876),
        # the gap rounds to 0 from ell ~ 7e7: eps* = 0, and only a shift that
        # underflows to 0 fits
        ('i', 'ring', 10**8, 2.0, 0.0, 'paper', 19.28775008669069),
        ('ii', 'harmonic', 10**9, 1.0, 0.0, 'paper', 19.30198460135565),
        ('i', 'harmonic', 10**12, 1.0, 0.0, 'paper', 18.931574826271735),
    ])
    def test_boundary_table(self, case, geometry, ell, sigma_ell, theta, convention, expected):
        """Boundary floats pinned bit for bit: the CLI never calls the boundary,
        so the golden corpus cannot guard it."""
        assert feasibility_boundary(case, geometry, ell, sigma_ell, theta,
                                    convention) == expected

    def test_boundary_zero_when_already_feasible(self):
        assert feasibility_boundary("i", "ring", 16, 0.0) == 0.0

    def test_boundary_validation(self):
        with pytest.raises(UsageError):
            feasibility_boundary("i", "ring", 16, 8.5)
        for geometry in ("ring", "harmonic"):  # m_check = 0, but not an integer
            with pytest.raises(UsageError, match="^sigma_ell grid must be integers, got 0.25$"):
                feasibility_boundary("ii", geometry, 16, 0.25)
        # the ring gap reads < 0 here (ROADMAP item 2): no delta_alpha fits below the cap
        for sigma_ell in (999999999999.0, 5e11):
            with pytest.raises(DomainError, match="^no feasible delta_alpha below 20.0$"):
                feasibility_boundary("i", "ring", 10**12, sigma_ell)
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
    def test_zero_spin_case_ii_boundary_is_zero(self, geometry):
        """delta_alpha = 0 is singular at sigma_ell = 0, but m_check = 0 shifts nothing."""
        for ell in (1, 2, 5, 12):
            with pytest.warns(ExpansionWarning):
                assert feasibility_boundary("ii", geometry, ell, 0.0) == 0.0

    @pytest.mark.parametrize("geometry, gap_name", [("ring", "ring_gap"),
                                                    ("harmonic", "harmonic_gap")])
    def test_gap_is_computed_once_per_row(self, monkeypatch, geometry, gap_name):
        """Sweeps and boundary searches evaluate the gap once per sigma_ell,
        and a boundary search makes at most 8 calls of the closed-form kernel
        (64 where the gap rounds to 0 and the closed form gives no bracket).

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
        kernel_calls = []
        kernel = superposition._closed_forms
        monkeypatch.setattr(superposition, "_closed_forms",
                            lambda row, eps: kernel_calls.append(1) or kernel(row, eps))
        for case in ("i", "ii"):
            for sigma_ell in sigmas:
                calls.clear()
                kernel_calls.clear()
                feasibility_boundary(case, geometry, 16, sigma_ell)
                assert calls == [sigma_ell]
                assert 1 <= len(kernel_calls) <= 8, (case, sigma_ell, len(kernel_calls))
        # a gap rounded to 0 leaves no closed-form bracket: the widest bisection
        kernel_calls.clear()
        feasibility_boundary("i", geometry, 10**8, 2.0)
        assert len(kernel_calls) <= 64

    # "x" and 10**400 raised a bare TypeError and OverflowError before
    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, "x", 10**400],
                             ids=["inf", "-inf", "nan", "str", "int-without-float"])
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
