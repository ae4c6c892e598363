"""Harmonic trap: Landau-like levels, gap, Laguerre tools, radial functions."""

import hashlib
import math
import random
import re
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from fluxring import (
    DomainError,
    UsageError,
    ground_quantum_numbers,
    harmonic_energy,
    harmonic_gap,
    harmonic_spectrum_sweep,
    laguerre_gen,
    log_gamma,
    mu,
    radial_wavefunction,
)

LN_SQRT_PI = 0.5723649429247001  # log Gamma(1/2), 50-digit value rounded

# sha256 of the float.hex values of the tests below: a faster evaluation of the
# recurrence or the profile must keep every bit
LAGUERRE_DIGEST = "31aa8e9755fd5913299d5ebfc99b756c86cbd7b96da7f2c19d9729cc080ebe89"
PROFILE_DIGEST = "81ac3c456e70145c8e78c751eb9fe2aefa52baf7bf8f02d948f863a07be3f46a"


def _hex_digest(values) -> str:
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


def _pinned_profiles():
    """Seeded profiles, n from 0 to 5 and mu from 0 to 12, each with r = 0 and the
    joined nodes of the quadrature's orders 64 and 128 on [0, r_max], r_max last."""
    rng = random.Random(4040)
    states = [(0, 0.0, 0, 0), (1, 0.9, 5, -1), (12, 0.0, 3, 0)]  # mu = 0, 0.447, 12
    for _ in range(9):
        ell = rng.randint(1, 12)
        states.append((ell, round(rng.uniform(-ell, ell), 3), rng.randint(0, 5),
                       rng.randint(-3, 3)))
    u = [0.5 * (np.polynomial.legendre.leggauss(k)[0] + 1.0) for k in (64, 128)]
    t = np.concatenate(([0.0], u[0] * u[0], u[1] * u[1], [1.0]))
    for state in states:
        f = radial_wavefunction(*state)
        yield f, (math.sqrt(2.0 * f.mu) + 12.0) * t


class TestMu:
    def test_closed_form(self):
        """mu_m = sqrt(ell^2 + m^2 + 2 sigma_ell m)."""
        assert mu(4, 0.0, 0) == 4.0
        assert mu(4, 1.0, -1) == pytest.approx(math.sqrt(15.0), rel=1e-15)
        assert mu(4, 1.0, 2) == pytest.approx(math.sqrt(24.0), rel=1e-15)

    def test_flux_reversal_symmetry(self):
        for sl in (-1.7, 0.3, 2.2):
            for m in range(-4, 5):
                assert mu(4, sl, m) == mu(4, -sl, -m)

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            mu(1, 5.0, -1)

    def test_negative_winding_rejected(self):
        with pytest.raises(DomainError, match="ell must be >= 0"):
            mu(-3, 0.2, 0)

    @pytest.mark.parametrize("ell", [4.5, math.nan, math.inf, "4", None])
    def test_winding_must_be_an_integer(self, ell):
        """4.5 gave mu = 4.5, and "4" or None a bare TypeError."""
        with pytest.raises(DomainError, match="^ell must be an integer, got "):
            mu(ell, 0.0, 0)

    def test_an_integral_float_winding_is_an_integer(self):
        assert mu(4.0, 1.0, -1) == mu(4, 1.0, -1)

    @pytest.mark.parametrize("m", [0.5, math.nan, math.inf, "x", None])
    @pytest.mark.parametrize("route", [
        lambda m: mu(4, 1.0, m),
        lambda m: harmonic_energy(4, 1.0, 0, m),
        lambda m: radial_wavefunction(4, 1.0, 0, m),
    ], ids=["mu", "energy", "wavefunction"])
    def test_state_must_be_an_integer(self, route, m):
        """mu(4, 1.0, 0.5) gave 4.153, and "x" or None a bare TypeError; the
        trap energy and the radial profile take m through mu."""
        with pytest.raises(DomainError, match=f"^m must be an integer, got {re.escape(repr(m))}$"):
            route(m)
        assert mu(4, 1.0, -1.0) == mu(4, 1.0, -1)

    @pytest.mark.parametrize("sigma_ell, m", [(1e154, 10**154), (-1e154, -10**154),
                                              (1e308, 10**308)],
                             ids=["up", "down", "far"])
    def test_radicand_beyond_the_float_range_rejected(self, sigma_ell, m):
        """The true mu is finite here (about 1.7e154 for the first), but
        its radicand overflows to +inf; ring_energy raises the same."""
        with pytest.raises(DomainError, match="exceeds the float range"):
            mu(4, sigma_ell, m)


class TestHarmonicEnergy:
    def test_closed_form(self):
        """E_{n,m} = 2n + mu_m + 1 in units of hbar Omega."""
        assert harmonic_energy(4, 0.0, 0, 0) == 5.0
        assert harmonic_energy(4, 1.0, 0, -1) == pytest.approx(1.0 + math.sqrt(15.0), rel=1e-15)
        assert harmonic_energy(4, 1.0, 1, -1) == pytest.approx(3.0 + math.sqrt(15.0), rel=1e-15)

    def test_radial_ladder_spacing_is_two(self):
        e0 = harmonic_energy(6, 2.0, 0, -2)
        e1 = harmonic_energy(6, 2.0, 1, -2)
        assert e1 - e0 == pytest.approx(2.0, rel=1e-15)

    def test_rejects_negative_n(self):
        with pytest.raises(DomainError):
            harmonic_energy(4, 0.0, -1, 0)

    @pytest.mark.parametrize("n", [2**1023, 2**1100], ids=["2^1023", "2^1100"])
    def test_level_beyond_the_float_range_rejected(self, n):
        """2 n overflowed to inf at n = 2^1023 and raised a bare OverflowError at
        n = 2^1100; n = 2^1022 still has a level."""
        with pytest.raises(DomainError, match=f"^2 n \\+ mu_m \\+ 1 exceeds the float "
                                              f"range at n={n}$"):
            harmonic_energy(4, 1.0, n, -1)
        assert harmonic_energy(4, 1.0, 2**1022, -1) == float(2**1023)

    @pytest.mark.parametrize("n", [0.5, math.nan, "1"])
    def test_rejects_a_fractional_n(self, n):
        """harmonic_energy(4, 1.0, 0.5, 0) read 6.0 before n took the integer rule."""
        with pytest.raises(DomainError, match="^n must be an integer, got "):
            harmonic_energy(4, 1.0, n, 0)


class TestGroundQuantumNumbers:
    def test_known_points(self):
        assert ground_quantum_numbers(0.0) == (0, 0)
        assert ground_quantum_numbers(3.2) == (0, -3)
        assert ground_quantum_numbers(-1.8) == (0, 2)

    def test_matches_brute_force(self):
        """The trap ground state is always n = 0 at the ring's m_check."""
        for sl in np.linspace(-5.6, 5.6, 57):
            sl = float(sl)
            best = min(
                ((n, m) for n in range(4) for m in range(-20, 21)),
                key=lambda nm: (harmonic_energy(8, sl, *nm), nm))
            assert ground_quantum_numbers(sl) == best


class TestHarmonicGap:
    def test_sigma_zero_closed_form(self):
        assert harmonic_gap(4, 0.0) == pytest.approx(math.sqrt(17.0) - 4.0, abs=1e-15)
        assert harmonic_gap(10, 0.0) == pytest.approx(math.sqrt(101.0) - 10.0, abs=1e-15)

    def test_closes_at_half_integers(self):
        assert harmonic_gap(4, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert harmonic_gap(4, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_shrinks_with_winding(self):
        gaps = [harmonic_gap(ell, 0.0) for ell in range(1, 12)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestSpectrumSweep:
    def test_rows_per_grid_point_and_ground_flags(self):
        rows = harmonic_spectrum_sweep(4, [0.0, 1.2], m_window=2)
        assert rows[0]._fields == ("sigma_ell", "n", "m", "mu", "energy",
                                   "is_ground", "gap")
        assert len(rows) == 2 * 3 * 5  # n in 0..2, m in -2..2
        assert [(r.sigma_ell, r.n, r.m) for r in rows if r.is_ground] == [
            (0.0, 0, 0), (1.2, 0, -1)]
        for r in rows:
            assert r.energy == harmonic_energy(4, r.sigma_ell, r.n, r.m)
            assert r.gap == harmonic_gap(4, r.sigma_ell)

    def test_window_rule_matches_the_ring(self):
        assert len(harmonic_spectrum_sweep(4, [-1.6, 2.2])) == 2 * 3 * 11  # ceil(2.2) + 2
        for grid, window in (([], None), ([0.0], 0), ([3.0], 3)):
            with pytest.raises(UsageError):
                harmonic_spectrum_sweep(4, grid, m_window=window)


class TestLaguerre:
    def test_low_orders(self):
        assert laguerre_gen(0, 0.7, 1.3) == 1.0
        assert laguerre_gen(1, 0.7, 1.3) == pytest.approx(1.7 - 1.3, rel=1e-15)
        assert laguerre_gen(2, 1.0, 2.0) == pytest.approx(-1.0, rel=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 9))
            a = float(rng.uniform(-0.9, 12.0))
            x = float(rng.uniform(0.0, 60.0))
            want = scipy.special.eval_genlaguerre(n, a, x)
            np.testing.assert_allclose(laguerre_gen(n, a, x), want, rtol=1e-9, atol=1e-9)

    def test_array_input(self):
        x = np.linspace(0.0, 10.0, 11)
        vals = laguerre_gen(3, 0.5, x)
        assert vals.shape == x.shape
        np.testing.assert_allclose(vals, scipy.special.eval_genlaguerre(3, 0.5, x), rtol=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            laguerre_gen(-1, 0.5, 1.0)
        with pytest.raises(DomainError):
            laguerre_gen(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre_gen(2, 0.5, -1.0)

    @pytest.mark.parametrize("n, a, x", [(math.nan, 1.0, 1.0), (2, math.nan, 1.0),
                                         (2, 1.0, math.nan), (2, 1.0, [1.0, math.nan])])
    def test_nan_is_a_domain_error(self, n, a, x):
        with pytest.raises(DomainError):
            laguerre_gen(n, a, x)

    @pytest.mark.parametrize("n", [10_001, 2**1100])
    def test_order_past_the_bound_is_refused_at_once(self, n):
        """laguerre_gen(2**1100, 1.0, 2.0) ran its recurrence for 2**1100 steps and
        never returned; 10000 steps take 5 ms."""
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^n exceeds the 10000-step recurrence limit$"):
            laguerre_gen(n, 1.0, 2.0)
        assert time.perf_counter() - start < 0.1
        assert laguerre_gen(10_000, 1.0, 2.0) == pytest.approx(
            scipy.special.eval_genlaguerre(10_000, 1.0, 2.0), rel=1e-9)


    def test_values_keep_their_bits(self):
        """L_n^a(x) for n = 0..6, a in {-0.5, 0, 0.7, 3} and x in {0, 0.3, 2, 11},
        from each scalar x and from the array of all four."""
        xs = [0.0, 0.3, 2.0, 11.0]
        values = []
        for n in range(7):
            for a in (-0.5, 0.0, 0.7, 3.0):
                values += [laguerre_gen(n, a, x) for x in xs]
                values += laguerre_gen(n, a, np.array(xs)).tolist()
        assert len(values) == 224
        assert _hex_digest(values) == LAGUERRE_DIGEST

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_return_types(self, n):
        """A scalar gives a float, an array an ndarray of its shape, and a 0-d array
        a 0-d ndarray at n = 0 but a numpy float64 from n = 1."""
        for x in (2.0, 2, np.float64(2.0)):
            assert type(laguerre_gen(n, 1.0, x)) is float
        zero_d = laguerre_gen(n, 1.0, np.array(2.0))
        if n == 0:
            assert type(zero_d) is np.ndarray and zero_d.shape == ()
        else:
            assert type(zero_d) is np.float64
        for x in ([[1.0, 2.0, 3.0]], np.array([1, 2, 3])):
            out = laguerre_gen(n, 1.0, x)
            assert type(out) is np.ndarray and out.dtype == np.float64
            assert out.shape == np.shape(x)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(LN_SQRT_PI, rel=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_recurrence(self):
        """log Gamma(x + 1) = log Gamma(x) + log x."""
        for x in (0.3, 1.7, 8.5, 40.0):
            assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.5)
        with pytest.raises(DomainError):
            log_gamma(math.nan)


class TestRadialWavefunction:
    def test_vanishes_at_origin_for_positive_mu(self):
        f = radial_wavefunction(4, 1.0, 0, -1)
        assert f(0.0) == 0.0

    def test_positive_near_origin(self):
        """Sign convention: f approaches zero from above as r -> 0+."""
        for n in range(4):
            f = radial_wavefunction(4, 1.0, n, -1)
            assert f(1e-3) > 0.0

    def test_mu_zero_axis_value(self):
        """With ell = 0, m = 0 the profile is a bare Gaussian, f(0) = 1."""
        f = radial_wavefunction(0, 0.0, 0, 0)
        assert f(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_ground_state_peak(self):
        """The n = 0 profile peaks at r = sqrt(2 mu)."""
        f = radial_wavefunction(4, 1.0, 0, -1)
        r = np.linspace(0.01, 12.0, 12000)
        r_star = r[np.argmax(f(r))]
        assert r_star == pytest.approx(math.sqrt(2 * f.mu), abs=2e-3)

    @pytest.mark.parametrize("n", [math.nan, 1.5, -1])
    def test_n_takes_the_integer_rule(self, n):
        with pytest.raises(DomainError, match="^n must be (an integer|>= 0), got "):
            radial_wavefunction(4, 1.0, n, 0)

    @pytest.mark.parametrize("n", [10_001, 10**300, 2**1100])
    def test_n_takes_the_laguerre_bound(self, n):
        """n = 10**300 built a profile whose first evaluation never returned, and
        2**1100 raised a bare OverflowError."""
        with pytest.raises(DomainError, match="^n exceeds the 10000-step recurrence limit$"):
            radial_wavefunction(4, 1.0, n, -1)

    def test_nan_radius_is_a_domain_error(self):
        f = radial_wavefunction(4, 1.0, 0, -1)
        with pytest.raises(DomainError):
            f(math.nan)

    @pytest.mark.parametrize("n, r", [(2, 1e200), (0, 1e155), (0, math.inf), (0, -0.5),
                                      (0, math.nan), (0, [0.0, 2.0e154])])
    def test_one_message_for_every_refused_radius(self, n, r):
        """1e200 and 1e155 gave NaN with overflow and invalid-value warnings: r^2/2
        overflowed.  Every r past the largest radius whose r^2/2 is finite is refused."""
        with pytest.raises(DomainError, match=r"^r must be in \[0, 1\.8961503816218352e\+154\]$"):
            radial_wavefunction(4, 1.0, n, -1)(r)

    def test_largest_radius_is_the_last_with_a_finite_half_square(self):
        from fluxring.harmonic import _R_MAX

        assert math.isfinite(0.5 * _R_MAX * _R_MAX)
        beyond = math.nextafter(_R_MAX, math.inf)
        assert 0.5 * beyond * beyond == math.inf
        for ell, sigma_ell, m in ((4, 1.0, -1), (0, 0.0, 0)):
            f = radial_wavefunction(ell, sigma_ell, 0, m)
            assert f(_R_MAX) == 0.0 and f([1e154, _R_MAX]).tolist() == [0.0, 0.0]
        with pytest.raises(DomainError):
            f(beyond)

    def test_node_count(self):
        """The n-th radial state crosses zero n times away from the axis."""
        r = np.linspace(1e-3, 16.0, 20000)
        for n in range(4):
            f = radial_wavefunction(4, 1.0, n, -1)
            signs = np.sign(f(r))
            crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert crossings == n

    def test_unit_norms(self):
        """int_0^inf f^2 r dr = 1 for a spread of quantum numbers."""
        for ell, m, n in [(1, 0, 0), (4, -1, 0), (4, -1, 3), (6, 3, 1), (6, -6, 2), (0, 0, 1)]:
            f = radial_wavefunction(ell, 1.0 if ell else 0.0, n, m)
            val, _ = scipy.integrate.quad(lambda r: f(r) ** 2 * r, 0.0, f.mu * 2.0 + 40.0,
                                          limit=200)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality_in_n(self):
        f0 = radial_wavefunction(4, 1.0, 0, -1)
        f2 = radial_wavefunction(4, 1.0, 2, -1)
        val, _ = scipy.integrate.quad(lambda r: f0(r) * f2(r) * r, 0.0, 40.0, limit=200)
        assert abs(val) < 1e-8

    def test_rejects_negative_radius(self):
        f = radial_wavefunction(4, 1.0, 0, -1)
        with pytest.raises(DomainError):
            f(-0.5)

    def test_values_keep_their_bits(self):
        """Seeded profiles on r = 0 and the quadrature nodes, as one array and at
        every 16th node as a scalar."""
        values = []
        for f, r in _pinned_profiles():
            values += f(r).tolist()
            values += [f(float(x)) for x in r[::16]]
        assert len(values) == 12 * (194 + 13)
        assert _hex_digest(values) == PROFILE_DIGEST

    def test_return_types(self):
        """A scalar gives a float, a 0-d array a numpy float64 and an array an
        ndarray of its shape."""
        for n in (0, 2):
            f = radial_wavefunction(4, 1.0, n, -1)
            for r in (2.0, 2, np.float64(2.0)):
                assert type(f(r)) is float
            assert type(f(np.array(2.0))) is np.float64
            out = f([[0.0, 1.0, 2.0]])
            assert type(out) is np.ndarray and out.shape == (1, 3)

    def test_rejects_overflowing_normalization(self):
        with pytest.raises(DomainError):
            radial_wavefunction(400, 0.0, 0, 0)


class TestRadialFunctionType:
    """RadialFunction is a frozen record defined in this module."""

    def test_is_a_frozen_record_of_this_module(self):
        import fluxring
        import fluxring.harmonic as harmonic

        f = radial_wavefunction(4, 1.0, 0, -1)
        cls = harmonic.RadialFunction
        assert type(f) is cls is fluxring.RadialFunction
        assert (cls.__module__, cls.__qualname__) == ("fluxring.harmonic", "RadialFunction")
        assert "RadialFunction" in dir(harmonic)
        with pytest.raises(AttributeError):
            f.mu = 2.0
        assert f == radial_wavefunction(4, 1.0, 0, -1) and hash(f) == hash(
            radial_wavefunction(4, 1.0, 0, -1))
        assert repr(f) == f"RadialFunction(ell=4, sigma_ell=1.0, n=0, m=-1, mu={f.mu!r})"

    def test_pickles_by_name(self):
        import pickle

        f = radial_wavefunction(4, 1.0, 2, -1)
        assert pickle.loads(pickle.dumps(f)) == f
