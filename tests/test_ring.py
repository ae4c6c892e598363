"""Ring spectrum: energies, ground state selection, gap law, sweeps."""

import math
import re

import numpy as np
import pytest

import fluxring.ring
from fluxring import (
    ConfigError,
    DomainError,
    FieldConfig,
    UsageError,
    build_block,
    feasibility_boundary,
    feasibility_sweep,
    ground_m,
    harmonic_energy,
    harmonic_gap,
    harmonic_spectrum_sweep,
    laguerre_gen,
    mu,
    radial_fd_spectrum,
    radial_wavefunction,
    ring_energy,
    ring_fd_spectrum,
    ring_gap,
    ring_spectrum_sweep,
    run_verification,
    superpose_harmonic,
    superpose_ring,
    superposition_block_scan,
)

# An integer past Python's 4300-digit limit on int-to-str conversion
HUGE = 10**5000


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

    @pytest.mark.parametrize("sweep, levels", [(ring_spectrum_sweep, 1),
                                               (harmonic_spectrum_sweep, 3)],
                             ids=["ring", "trap"])
    def test_row_cap_is_exact(self, monkeypatch, sweep, levels):
        """The cap counts grid points times the 2 m_window + 1 window times the
        levels: a table of exactly the cap is built, one row more is refused."""
        rows = 2 * 7 * levels
        monkeypatch.setattr(fluxring.ring, "_MAX_TABLE_ROWS", rows)
        assert len(sweep(4, [0.0, 1.0], m_window=3)) == rows
        monkeypatch.setattr(fluxring.ring, "_MAX_TABLE_ROWS", rows - 1)
        with pytest.raises(UsageError, match=f"^the sigma_ell grid times the m window "
                                             f"exceeds the {rows - 1}-row table limit$"):
            sweep(4, [0.0, 1.0], m_window=3)

    @pytest.mark.parametrize("m_window", [2.5, math.nan, math.inf, "2"])
    def test_window_must_be_an_integer(self, m_window):
        """2.5 no longer tabulates |m| <= 2, and NaN is no bare ValueError."""
        with pytest.raises(UsageError, match="^m_window must be an integer, got "):
            ring_spectrum_sweep(4, [0.0], m_window=m_window)


SQUARE_SUM = (r"^ell\^2 \+ m\^2 exceeds the float range at ell=an integer of 16610 bits, "
              r"sigma_ell=1\.0$")
NEGATIVE_ELL = "^ell must be >= 0, got a negative integer of 16610 bits$"
HUGE_GRID = "^n_grid = an integer of 16610 bits exceeds the 1000000-row table limit$"
HUGE_M = r"^ell\^2 \+ m\^2 exceeds the float range at ell=4, sigma_ell=1\.0$"
HUGE_ORDER = "^n exceeds the 10000-step recurrence limit$"


@pytest.mark.parametrize("call, error, message", [
    (lambda: ring_energy(HUGE, 1.0, -1), DomainError, SQUARE_SUM),
    (lambda: mu(HUGE, 1.0, -1), DomainError, SQUARE_SUM),
    (lambda: ring_gap(HUGE, 1.0), DomainError, SQUARE_SUM),
    (lambda: harmonic_gap(HUGE, 1.0), DomainError, SQUARE_SUM),
    (lambda: ring_spectrum_sweep(HUGE, [1.0]), DomainError, SQUARE_SUM),
    (lambda: build_block("i", "ring", HUGE, 1.0, 0.1), DomainError, SQUARE_SUM),
    (lambda: ring_gap(-HUGE, 1.0), DomainError, NEGATIVE_ELL),
    (lambda: ring_energy(-HUGE, 1.0, -1), DomainError, NEGATIVE_ELL),
    (lambda: radial_fd_spectrum(4, 1.0, -1, n_grid=HUGE), UsageError, HUGE_GRID),
    (lambda: ring_fd_spectrum(4, 1.0, n_grid=HUGE), UsageError, HUGE_GRID),
    (lambda: harmonic_spectrum_sweep(HUGE, [1.0]), DomainError, SQUARE_SUM),
    (lambda: build_block("i", "harmonic", HUGE, 1.0, 0.1), DomainError, SQUARE_SUM),
    (lambda: mu(-HUGE, 1.0, -1), DomainError, NEGATIVE_ELL),
    (lambda: harmonic_gap(-HUGE, 1.0), DomainError, NEGATIVE_ELL),
    (lambda: harmonic_energy(HUGE, 1.0, 0, -1), DomainError, SQUARE_SUM),
    (lambda: harmonic_energy(4, 1.0, HUGE, -1), DomainError,
     "^2 n \\+ mu_m \\+ 1 exceeds the float range at n=an integer of 16610 bits$"),
    (lambda: harmonic_energy(4, 1.0, -HUGE, -1), DomainError,
     "^n must be >= 0, got a negative integer of 16610 bits$"),
    (lambda: radial_fd_spectrum(HUGE, 1.0, -1), DomainError, SQUARE_SUM),
    (lambda: ring_fd_spectrum(HUGE, 1.0), DomainError, SQUARE_SUM),
    (lambda: ring_fd_spectrum(4, 1.0, k_lowest=HUGE), UsageError,
     r"^k_lowest must be in \[1, 1024\], got an integer of 16610 bits$"),
    (lambda: radial_fd_spectrum(4, 1.0, -1, k_lowest=HUGE), UsageError,
     r"^k_lowest must be in \[1, 3999\], got an integer of 16610 bits$"),
    (lambda: ring_energy(4, 1.0, HUGE), DomainError, HUGE_M),
    (lambda: mu(4, 1.0, HUGE), DomainError, HUGE_M),
    (lambda: build_block("i", "ring", 4, 1.0, 0.1, m=HUGE), DomainError, HUGE_M),
    (lambda: radial_fd_spectrum(4, 1.0, HUGE), DomainError, HUGE_M),
    (lambda: superpose_ring("i", HUGE, 1.0, 0.1), DomainError, SQUARE_SUM),
    (lambda: superpose_harmonic("i", HUGE, 1.0, 0.1), DomainError, SQUARE_SUM),
    (lambda: feasibility_sweep("i", "ring", HUGE, [1.0], [0.1]), DomainError, SQUARE_SUM),
    (lambda: feasibility_boundary("i", "ring", HUGE, 1.0), DomainError, SQUARE_SUM),
    (lambda: superposition_block_scan("i", "ring", HUGE, 1.0, 0.1), DomainError,
     SQUARE_SUM),
    (lambda: radial_wavefunction(HUGE, 1.0, 0, -1), DomainError, SQUARE_SUM),
    (lambda: radial_wavefunction(4, 1.0, HUGE, -1), DomainError, HUGE_ORDER),
    (lambda: laguerre_gen(HUGE, 1.0, 2.0), DomainError, HUGE_ORDER),
    (lambda: ring_spectrum_sweep(4, [1.0], m_window=HUGE), UsageError,
     "^the sigma_ell grid times the m window exceeds the 1000000-row table limit$"),
    (lambda: ring_spectrum_sweep(4, [1.0], m_window=-HUGE), UsageError,
     "^m_window must be >= 1, got a negative integer of 16610 bits$"),
    (lambda: run_verification(ring_grid=HUGE), UsageError, HUGE_GRID),
    (lambda: run_verification(radial_grid=HUGE), UsageError, HUGE_GRID),
    (lambda: FieldConfig(2.0, 0.5, 1j, ell=-HUGE), ConfigError,
     "^ell must be >= 0, got a negative integer of 16610 bits$"),
    (lambda: FieldConfig(HUGE, 0.5, 1j), ConfigError,
     "^alpha_plus must be finite, got an integer of 16610 bits$"),
    (lambda: FieldConfig(2.0, -HUGE, 1j), ConfigError,
     "^alpha_minus must be finite, got a negative integer of 16610 bits$"),
    (lambda: FieldConfig(2.0, 0.5, HUGE), ConfigError,
     r"^beta and \|beta\|\^2 must be finite, got an integer of 16610 bits$"),
    (lambda: FieldConfig(2.0, 0.5, 1j, HUGE), ConfigError,
     "^theta must be finite, got an integer of 16610 bits$"),
], ids=["ring_energy", "mu", "ring_gap", "harmonic_gap", "ring_spectrum_sweep",
        "build_block", "ring_gap-negative", "ring_energy-negative", "radial_fd_spectrum",
        "ring_fd_spectrum", "harmonic_spectrum_sweep", "build_block-harmonic",
        "mu-negative", "harmonic_gap-negative", "harmonic_energy", "harmonic_energy-n",
        "harmonic_energy-negative-n", "radial_fd_spectrum-ell", "ring_fd_spectrum-ell",
        "ring_fd_spectrum-k_lowest", "radial_fd_spectrum-k_lowest", "ring_energy-m", "mu-m",
        "build_block-m", "radial_fd_spectrum-m", "superpose_ring", "superpose_harmonic",
        "feasibility_sweep", "feasibility_boundary", "superposition_block_scan",
        "radial_wavefunction", "radial_wavefunction-n", "laguerre_gen", "m_window",
        "m_window-negative", "run_verification-ring_grid", "run_verification-radial_grid",
        "FieldConfig-negative-ell", "FieldConfig-alpha_plus", "FieldConfig-alpha_minus",
        "FieldConfig-beta", "FieldConfig-theta"])
def test_an_integer_too_long_for_str_is_a_typed_error(call, error, message):
    """Every integer parameter of the package, at a value past the str limit.
    The first ten raised a bare ValueError from str() of the integer in their
    own error message, ring_fd_spectrum's ell, harmonic_energy's n and
    FieldConfig's real fields a bare OverflowError from float(); each message
    now gives the integer's size in bits."""
    with pytest.raises(error, match=message):
        call()
