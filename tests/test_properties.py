"""Property-based checks of the closed-form invariants."""

import math
import warnings
from fractions import Fraction

import numpy as np
import scipy.special
from hypothesis import assume, example, given, seed
from hypothesis.strategies import (data, floats, integers, just, lists, one_of, sampled_from,
                                   tuples)

from fluxring import (
    DegenerateFieldError,
    DomainError,
    build_block,
    epsilon_param,
    feasibility_sweep,
    gen_eig_2x2,
    ground_m,
    ground_quantum_numbers,
    harmonic_energy,
    harmonic_gap,
    laguerre_gen,
    log_gamma,
    mean_spin,
    mu,
    ring_energy,
    ring_gap,
    superpose_harmonic,
    superpose_ring,
)
from fluxring.cli import _linspace


def away_from_half_integers(sigma_ell):
    doubled = 2.0 * sigma_ell
    return abs(doubled - round(doubled)) > 1e-3


@given(floats(min_value=1e-3, max_value=1e3),
       floats(min_value=1e-3, max_value=1e3))
def test_mean_spin_antisymmetric_under_intensity_swap(alpha, beta):
    """Swapping the two amplitudes flips the sign of sigma exactly."""
    assert mean_spin(alpha, beta * beta) == -mean_spin(beta, alpha * alpha)


@given(floats(min_value=-6.0, max_value=6.0, allow_nan=False),
       integers(min_value=-8, max_value=8))
def test_ring_energy_flux_reversal(sigma_ell, m):
    assert ring_energy(4, sigma_ell, m) == ring_energy(4, -sigma_ell, -m)


@given(floats(min_value=-3.5, max_value=3.5), integers(min_value=-6, max_value=6))
def test_mu_flux_reversal(sigma_ell, m):
    assert mu(7, sigma_ell, m) == mu(7, -sigma_ell, -m)


@given(floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_ground_m_is_the_argmin(sigma_ell):
    best = min(range(-12, 13), key=lambda m: (ring_energy(0, sigma_ell, m), m))
    assert ground_m(sigma_ell) == best


@given(floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_ground_state_opposes_the_flux(sigma_ell):
    assert sigma_ell * ground_m(sigma_ell) <= 0.0


@given(floats(min_value=-4.0, max_value=4.0, allow_nan=False))
def test_trap_ground_state_is_nodeless(sigma_ell):
    n, m = ground_quantum_numbers(sigma_ell)
    assert n == 0 and m == ground_m(sigma_ell)
    # no single quantum jump lowers the energy (1e-12 covers degenerate ties)
    e0 = harmonic_energy(8, sigma_ell, n, m)
    assert harmonic_energy(8, sigma_ell, 1, m) > e0
    assert harmonic_energy(8, sigma_ell, 0, m + 1) >= e0 - 1e-12
    assert harmonic_energy(8, sigma_ell, 0, m - 1) >= e0 - 1e-12


@given(floats(min_value=-6.0, max_value=6.0, allow_nan=False))
def test_ring_gap_bounds(sigma_ell):
    gap = ring_gap(4, sigma_ell)
    assert 0.0 <= gap <= 1.0


@given(floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_ring_gap_unit_periodic(sigma_ell):
    assert abs(ring_gap(4, sigma_ell) - ring_gap(4, sigma_ell + 1.0)) <= 1e-12


@given(integers(min_value=-5, max_value=5),
       floats(min_value=0.0, max_value=0.5, allow_nan=False))
def test_ring_gap_even_about_integers(k, delta):
    assert abs(ring_gap(4, k + delta) - ring_gap(4, k - delta)) <= 1e-12


@given(floats(min_value=0.0, max_value=5.0),
       floats(min_value=-0.999, max_value=0.999))
def test_epsilon_param_range(delta_alpha, sigma):
    eps = epsilon_param(delta_alpha, sigma)
    assert 0.0 <= eps <= math.sqrt(1.0 - sigma * sigma) <= 1.0


@given(integers(min_value=0, max_value=8),
       floats(min_value=-0.9, max_value=15.0),
       floats(min_value=0.0, max_value=50.0))
def test_laguerre_matches_scipy(n, a, x):
    want = scipy.special.eval_genlaguerre(n, a, x)
    got = laguerre_gen(n, a, x)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@given(floats(min_value=0.05, max_value=80.0))
def test_log_gamma_recurrence(x):
    assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) <= 1e-12 * max(
        1.0, abs(log_gamma(x + 1.0)))


@given(sampled_from(["i", "ii"]), sampled_from(["ring", "harmonic"]),
       integers(min_value=1, max_value=8),
       floats(min_value=0.05, max_value=7.95),
       floats(min_value=0.0, max_value=0.8, exclude_max=True),
       integers(min_value=-9, max_value=9))
def test_block_reflection_degeneracy(case, geometry, ell, sigma_ell, epsilon, m):
    """block(m, sigma_ell) and block(-m, -sigma_ell) share their spectrum."""
    assume(sigma_ell <= ell - 0.05)
    assume(away_from_half_integers(sigma_ell))
    if geometry == "harmonic":
        assume(ell * ell + m * m - 2.0 * abs(sigma_ell * m) > 1e-9)
    forward = build_block(case, geometry, ell, sigma_ell, epsilon, m=m)
    mirrored = build_block(case, geometry, ell, -sigma_ell, epsilon, m=-m)
    vals_f, _ = gen_eig_2x2(forward)
    vals_m, _ = gen_eig_2x2(mirrored)
    assert vals_f[0] == vals_m[0] and vals_f[1] == vals_m[1]


@given(sampled_from(["i", "ii"]), sampled_from(["ring", "harmonic"]),
       integers(min_value=1, max_value=8),
       floats(min_value=0.05, max_value=7.95),
       floats(min_value=0.0, max_value=0.9, exclude_max=True))
def test_superposition_orders_the_levels(case, geometry, ell, sigma_ell, epsilon):
    """delta_e <= 0 and E_plus <= E_zero <= E_minus on the whole domain."""
    assume(sigma_ell <= ell - 0.05)
    assume(away_from_half_integers(sigma_ell))
    solve = superpose_ring if geometry == "ring" else superpose_harmonic
    res = solve(case, ell, sigma_ell, epsilon)
    scale = max(1.0, abs(res.e_zero))
    assert res.delta_e <= 0.0
    assert res.e_plus <= res.e_zero + 1e-12 * scale
    assert res.e_minus >= res.e_zero - 1e-12 * scale
    assert 0.0 <= res.mixing_ratio < 1.0
    assert res.feasible == (abs(res.delta_e) < res.gap)


@given(sampled_from(["i", "ii"]), sampled_from(["ring", "harmonic"]),
       integers(min_value=1, max_value=8),
       floats(min_value=0.05, max_value=7.95),
       floats(min_value=0.0, max_value=0.9, exclude_max=True),
       floats(min_value=-3.0, max_value=3.0))
def test_closed_form_matches_pencil(case, geometry, ell, sigma_ell, epsilon, theta):
    assume(sigma_ell <= ell - 0.05)
    assume(away_from_half_integers(sigma_ell))
    solve = superpose_ring if geometry == "ring" else superpose_harmonic
    res = solve(case, ell, sigma_ell, epsilon, theta=theta)
    values, _ = gen_eig_2x2(build_block(case, geometry, ell, sigma_ell,
                                        epsilon, theta=theta))
    scale = max(1.0, abs(values[0]), abs(values[1]))
    assert abs(res.e_plus - values[0]) <= 1e-12 * scale
    assert abs(res.e_minus - values[1]) <= 1e-12 * scale


@given(sampled_from(["ring", "harmonic"]),
       integers(min_value=1, max_value=8),
       floats(min_value=0.05, max_value=7.95),
       floats(min_value=1e-4, max_value=0.9, exclude_max=True))
def test_mixing_ratio_stable_identity(geometry, ell, sigma_ell, epsilon):
    """Case (i) mixing obeys mixing * (1 + s)^2 = eps^2 to rounding."""
    assume(sigma_ell <= ell - 0.05)
    assume(away_from_half_integers(sigma_ell))
    solve = superpose_ring if geometry == "ring" else superpose_harmonic
    res = solve("i", ell, sigma_ell, epsilon)
    s = math.sqrt(1.0 - epsilon * epsilon)
    assert abs(res.mixing_ratio * (1.0 + s) ** 2 - epsilon * epsilon) <= 1e-14


@given(sampled_from(["i", "ii"]), sampled_from(["ring", "harmonic"]),
       integers(min_value=1, max_value=12),
       lists(floats(min_value=1e-3, max_value=6.0), min_size=1, max_size=6),
       sampled_from(["paper", "standard"]), floats(min_value=-7.0, max_value=7.0),
       data())
def test_sweep_rows_equal_single_points(case, geometry, ell, delta_alphas, convention,
                                        theta, draw):
    """Every sweep point is the single point at its epsilon, bit for bit."""
    lowest = 0 if case == "ii" else 1 - ell  # case (ii) needs sigma >= 0
    sigma_ells = draw.draw(lists(integers(min_value=lowest, max_value=ell - 1),
                                 min_size=1, max_size=4))
    solve = superpose_ring if geometry == "ring" else superpose_harmonic
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # case (ii) at sigma_ell = 0
        points = feasibility_sweep(case, geometry, ell, sigma_ells, delta_alphas,
                                   theta, convention)
        assert [(p.sigma_ell, p.delta_alpha) for p in points] == [
            (s, d) for s in sigma_ells for d in delta_alphas]
        for p in points:
            eps = epsilon_param(p.delta_alpha, p.sigma_ell / ell, convention)
            res = solve(case, ell, p.sigma_ell, eps, theta)
            assert (p.epsilon, p.delta_e, p.gap, p.mixing_ratio, p.feasible) == (
                eps, res.delta_e, res.gap, res.mixing_ratio, res.feasible)


@given(floats(allow_nan=False, allow_infinity=False),
       floats(allow_nan=False, allow_infinity=False),
       integers(min_value=2, max_value=5000))
@example(0.0, 1e-323, 7)       # the step underflows to 0
@example(-1e308, 1e308, 3)     # the span overflows to inf
def test_list_grid_is_numpy_linspace_bit_for_bit(lo, hi, count):
    """The CLI's numpy-free range grid reproduces np.linspace to the last bit.

    Extreme endpoints overflow the step to inf and subnormal spans round it
    to 0; both must follow numpy too, so the bytes are compared, NaNs and
    signed zeros included.
    """
    with np.errstate(all="ignore"):
        expected = np.linspace(lo, hi, count)
    got = _linspace(lo, hi, count)
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == expected.tobytes()


@given(floats(allow_nan=False, allow_infinity=False))
@example(0.49999999999999994)
@example(-0.49999999999999994)
@example(2.0**52 + 1.0)
@example(2.5)
@example(-2.5)
def test_ground_m_is_the_exact_nearest_integer(sigma_ell):
    """-floor(sigma_ell + 1/2) evaluated exactly: the nearest integer, and
    the upper one at a tie (the lower m of the degenerate pair)."""
    assert ground_m(sigma_ell) == -math.floor(Fraction(sigma_ell) + Fraction(1, 2))


def _wide_gap(energy, ell, sigma_ell, levels):
    """The gap by the rule the two-neighbour gaps replaced, over a wider
    window: the least energy(n, m) - E_0 over |m - m_check| <= 10 and every
    n in levels, skipping a level that raises."""
    mc = ground_m(sigma_ell)
    e0 = energy(ell, sigma_ell, 0, mc)
    best = math.inf
    for n in levels:
        for m in range(mc - 10, mc + 11):
            if (n, m) == (0, mc):
                continue
            try:
                e = energy(ell, sigma_ell, n, m)
            except DomainError:
                continue
            best = min(best, e - e0)
    return best


def _ring_level(ell, sigma_ell, n, m):
    return ring_energy(ell, sigma_ell, m)


def _half_integers(bound):
    return integers(min_value=-2 * bound, max_value=2 * bound).map(lambda k: k / 2)


@seed(30)
@given(integers(min_value=0, max_value=10**4),
       one_of(floats(min_value=-1e6, max_value=1e6), _half_integers(10**6)))
@example(0, 0.5)
@example(10**4, -999999.5)
def test_ring_gap_is_the_wide_window_minimum(ell, sigma_ell):
    """m_check +- 1 hold the minimum: bit for bit the least over |k| <= 10."""
    assert ring_gap(ell, sigma_ell) == _wide_gap(_ring_level, ell, sigma_ell, levels=(0,))


def _trap_points(max_ell):
    """(ell, sigma_ell) with |sigma_ell| <= ell, half-integers included."""
    return integers(min_value=0, max_value=max_ell).flatmap(lambda ell: tuples(
        just(ell), one_of(floats(min_value=-ell, max_value=ell), _half_integers(ell))))


@seed(30)
@given(_trap_points(10**4))
@example((1, 0.5))
@example((10**4, -9999.5))
@example((10**4, 10**4))
def test_harmonic_gap_is_the_wide_window_minimum(point):
    """(0, m_check +- 1) hold the minimum: bit for bit the least over
    |k| <= 10 and n <= 2, where the wide rule skips levels that raise."""
    ell, sigma_ell = point
    assert harmonic_gap(ell, sigma_ell) == _wide_gap(harmonic_energy, ell, sigma_ell,
                                                     levels=(0, 1, 2))


@seed(30)
@given(floats(allow_nan=False, allow_infinity=False),
       floats(min_value=0.0, allow_infinity=False))
@example(3e-162, 5e-324)            # alpha^2 subnormal
@example(5e-324, 2.5e-323)          # alpha^2 underflows to 0
@example(1.3407807929942596e154, 0.0)
@example(1e154, 1.7976931348623157e308)
def test_mean_spin_needs_no_clamp(alpha, beta_mag2):
    """|fl(a^2 - b)| <= fl(a^2 + b) for b >= 0, so sigma stays in [-1, 1]."""
    try:
        sigma = mean_spin(alpha, beta_mag2)
    except (DomainError, DegenerateFieldError):
        return
    assert -1.0 <= sigma <= 1.0
