"""Ring spectrum: energies, ground state selection, gap law, sweeps."""

import math
import re

import numpy as np
import pytest

from fluxring import (
    DomainError,
    UsageError,
    ground_m,
    harmonic_gap,
    harmonic_spectrum_sweep,
    ring_energy,
    ring_gap,
    ring_spectrum_sweep,
    ring_wavefunction,
)


class TestRingEnergy:
    def test_closed_form(self):
        """E_m = ell^2 + m^2 + 2 sigma_ell m in units of hbar^2/2I."""
        assert ring_energy(4, 0.0, 0) == 16.0
        assert ring_energy(4, 1.0, -1) == 15.0
        assert ring_energy(0, 0.0, 3) == 9.0

    def test_flux_reversal_degeneracy(self):
        """Flipping sigma_ell and m together leaves the energy unchanged."""
        for sl in (-2.7, -0.5, 0.3, 1.9):
            for m in range(-5, 6):
                assert ring_energy(4, sl, m) == ring_energy(4, -sl, -m)

    def test_rejects_negative_winding(self):
        with pytest.raises(DomainError):
            ring_energy(-1, 0.5, 0)

    @pytest.mark.parametrize("ell", [4.5, math.nan, math.inf, "4", None])
    def test_winding_must_be_an_integer(self, ell):
        """4.5 gave 20.25, and "4" or None a bare TypeError."""
        with pytest.raises(DomainError, match="^ell must be an integer, got "):
            ring_energy(ell, 0.0, 0)

    def test_an_integral_float_winding_is_an_integer(self):
        assert ring_energy(4.0, 1.0, -1) == ring_energy(4, 1.0, -1) == 15.0

    @pytest.mark.parametrize("m", [0.5, math.nan, math.inf, "x", None])
    def test_state_must_be_an_integer(self, m):
        """0.5 gave 17.25, and "x" or None a bare TypeError; -1.0 is -1."""
        with pytest.raises(DomainError, match=f"^m must be an integer, got {re.escape(repr(m))}$"):
            ring_energy(4, 1.0, m)
        assert ring_energy(4, 1.0, -1.0) == 15.0


class TestGroundM:
    @pytest.mark.parametrize("sigma_ell, expected", [
        (0.0, 0), (0.4, 0), (0.6, -1), (1.0, -1), (2.4, -2), (3.0, -3),
        (-0.4, 0), (-0.6, 1), (-2.4, 2),
    ])
    def test_nearest_integer_rule(self, sigma_ell, expected):
        assert ground_m(sigma_ell) == expected

    def test_half_integer_ties_take_lower_m(self):
        """At sigma_ell = k + 1/2 the degenerate pair resolves downward."""
        assert ground_m(0.5) == -1
        assert ground_m(-0.5) == 0
        assert ground_m(1.5) == -2

    def test_matches_brute_force(self):
        for sl in np.linspace(-6.0, 6.0, 241):
            sl = float(sl)
            candidates = range(-50, 51)
            best = min(candidates, key=lambda m: (ring_energy(0, sl, m), m))
            assert ground_m(sl) == best

    def test_counter_rotation(self):
        """sgn(sigma_ell * m_check) <= 0: the ground state opposes the flux."""
        for sl in np.linspace(-6.0, 6.0, 97):
            assert float(sl) * ground_m(float(sl)) <= 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ground_m(math.nan)

    @pytest.mark.parametrize("sigma_ell", ["1.0", 1j, None, 10**400],
                             ids=["str", "complex", "none", "int-without-float"])
    def test_rejects_what_has_no_finite_float(self, sigma_ell):
        with pytest.raises(DomainError, match="^sigma_ell must be finite, got "):
            ground_m(sigma_ell)

    @pytest.mark.parametrize("sigma_ell, expected", [
        (0.49999999999999994, 0), (-0.49999999999999994, 0),
        (0.5000000000000001, -1), (-0.5000000000000001, 1),
        (2.0**52 + 1.0, -(2**52 + 1)), (-(2.0**52 + 1.0), 2**52 + 1),
        (2.0**52 - 0.5, -(2**52)), (-(2.0**52 - 0.5), 2**52 - 1),
        (1e300, -int(1e300)),
    ])
    def test_no_rounding_in_the_nearest_integer(self, sigma_ell, expected):
        """sigma_ell + 1/2 rounds at these values and picked the wrong m."""
        assert ground_m(sigma_ell) == expected


class TestRingGap:
    def test_maximum_at_integers(self):
        for sl in (0.0, 1.0, -1.0, 2.0, 3.0, -3.0):
            assert ring_gap(4, sl) == 1.0

    def test_closes_at_half_integers(self):
        for sl in (0.5, -0.5, 1.5, 2.5, -2.5):
            assert ring_gap(4, sl) == 0.0

    def test_quarter_point(self):
        assert ring_gap(4, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_independent_of_winding(self):
        """ell only shifts the spectrum; gaps are winding-independent."""
        for sl in (0.1, 0.7, 1.3, 2.9):
            assert ring_gap(0, sl) == pytest.approx(ring_gap(7, sl), abs=1e-12)

    def test_unit_periodic(self):
        for sl in (0.13, 0.37, 0.71):
            assert ring_gap(4, sl) == pytest.approx(ring_gap(4, sl + 1.0), abs=1e-12)
            assert ring_gap(4, sl) == pytest.approx(ring_gap(4, sl - 2.0), abs=1e-12)

    @pytest.mark.parametrize("gap", [ring_gap, harmonic_gap])
    def test_winding_must_be_an_integer(self, gap):
        """ell = 4.5 gave 1.0 on the ring and 0.1098 in the trap; the sweeps reject it."""
        with pytest.raises(DomainError, match="^ell must be an integer, got 4.5$"):
            gap(4.5, 0.0)

    @pytest.mark.parametrize("gap", [ring_gap, harmonic_gap])
    def test_an_integral_float_winding_is_an_integer(self, gap):
        assert gap(4.0, 0.3) == gap(4, 0.3)


class TestRingSweep:
    def test_single_point_window_one(self):
        rows = ring_spectrum_sweep(4, [0.0], m_window=1)
        got = [(r.sigma_ell, r.m, r.energy, r.is_ground, r.gap) for r in rows]
        assert got == [
            (0.0, -1, 17.0, False, 1.0),
            (0.0, 0, 16.0, True, 1.0),
            (0.0, 1, 17.0, False, 1.0),
        ]

    def test_row_count_and_ordering(self):
        grid = np.linspace(-2.0, 2.0, 5)
        rows = ring_spectrum_sweep(4, grid, m_window=3)
        assert len(rows) == 5 * 7
        # outer loop over sigma_ell, inner over ascending m
        assert [r.m for r in rows[:7]] == list(range(-3, 4))
        assert rows[0].sigma_ell == -2.0 and rows[-1].sigma_ell == 2.0

    def test_ground_flags_match_ground_m(self):
        rows = ring_spectrum_sweep(4, np.linspace(-2.0, 2.0, 41))
        for r in rows:
            if r.m == ground_m(r.sigma_ell):
                assert r.is_ground

    def test_degenerate_pair_both_flagged(self):
        rows = ring_spectrum_sweep(4, [0.5], m_window=2)
        flagged = sorted(r.m for r in rows if r.is_ground)
        assert flagged == [-1, 0]

    def test_default_window_covers_ground_state(self):
        rows = ring_spectrum_sweep(4, np.linspace(-6.0, 6.0, 25))
        ms = {r.m for r in rows}
        assert ground_m(6.0) in ms and ground_m(-6.0) in ms

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            ring_spectrum_sweep(4, [])
        with pytest.raises(UsageError):
            ring_spectrum_sweep(4, [0.0], m_window=0)
        with pytest.raises(UsageError):
            ring_spectrum_sweep(4, [3.0], m_window=1)

    @pytest.mark.parametrize("sweep", [ring_spectrum_sweep, harmonic_spectrum_sweep])
    def test_winding_must_be_an_integer(self, sweep):
        """ell = 4.5 tabulated ell^2 = 20.25 before the sweeps took the integer rule."""
        with pytest.raises(DomainError, match="^ell must be an integer, got 4.5$"):
            sweep(4.5, [0.0])

    @pytest.mark.parametrize("m_window", [2.5, math.nan, math.inf, "2"])
    def test_window_must_be_an_integer(self, m_window):
        """2.5 no longer tabulates |m| <= 2, and NaN is no bare ValueError."""
        with pytest.raises(UsageError, match="^m_window must be an integer, got "):
            ring_spectrum_sweep(4, [0.0], m_window=m_window)


class TestRingWavefunction:
    def test_uniform_magnitude(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        psi = ring_wavefunction(3, phi)
        np.testing.assert_allclose(np.abs(psi), 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-15)

    def test_normalized_on_the_circle(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 2001)
        psi = ring_wavefunction(2, phi)
        norm = np.trapezoid(np.abs(psi) ** 2, phi)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_periodicity(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 17)
        for m in (-5, -1, 0, 2):
            np.testing.assert_allclose(
                ring_wavefunction(m, phi + 2.0 * math.pi),
                ring_wavefunction(m, phi), rtol=0, atol=1e-12)

    def test_orthogonality(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        f = ring_wavefunction(1, phi)
        g = ring_wavefunction(4, phi)
        overlap = np.conj(f) @ g * (2.0 * math.pi / phi.size)
        assert abs(overlap) < 1e-12
