"""Dark-state observables: mean spin, case classification, the overlap epsilon."""

import math

import pytest

from fluxring import (
    CaseClassification,
    CaseError,
    DegenerateFieldError,
    DomainError,
    FieldConfig,
    FluxCase,
    SpinPair,
    UsageError,
    case_of,
    classify_flux_case,
    epsilon_param,
    mean_spin,
)

# exp(-1) * sqrt(1 - 0.36) evaluated at 50 digits and rounded to double
EPSILON_PAPER_1_06 = 0.29430355293715387


class TestMeanSpin:
    def test_intensity_imbalance(self):
        """sigma = (alpha^2 - |beta|^2) / (alpha^2 + |beta|^2)."""
        assert mean_spin(2.0, 1.0) == pytest.approx(0.6, rel=1e-15)
        assert mean_spin(1.0, 4.0) == pytest.approx(-0.6, rel=1e-15)

    def test_pure_limits(self):
        assert mean_spin(1.0, 0.0) == 1.0
        assert mean_spin(0.0, 1.0) == -1.0

    def test_zero_total_weight_rejected(self):
        with pytest.raises(DegenerateFieldError):
            mean_spin(0.0, 0.0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(DomainError):
            mean_spin(1.0, -0.5)

    @pytest.mark.parametrize("alpha, beta_mag2, message", [
        (math.nan, 1.0, "alpha\\^2 \\+ beta_mag2 must be finite, got nan"),
        (1.0, math.nan, "beta_mag2 must be >= 0, got nan"),
        (1e200, 1.0, "alpha\\^2 \\+ beta_mag2 must be finite, got inf"),  # alpha^2 overflows
        (-1e200, 0.0, "alpha\\^2 \\+ beta_mag2 must be finite, got inf"),
        (math.inf, 1.0, "alpha\\^2 \\+ beta_mag2 must be finite, got inf"),
        (1.0, math.inf, "alpha\\^2 \\+ beta_mag2 must be finite, got inf"),
        # an int alpha whose square has no float raised a bare OverflowError
        (10**200, 1.0, "alpha\\^2 \\+ beta_mag2 must be finite, got inf"),
    ], ids=["nan-alpha", "nan-beta", "overflowing-alpha", "overflowing-negative-alpha",
            "inf-alpha", "inf-beta", "int-alpha"])
    def test_nan_and_overflowing_amplitudes_are_domain_errors(self, alpha, beta_mag2, message):
        """No NaN comes out: each of these returned NaN before."""
        with pytest.raises(DomainError, match=message):
            mean_spin(alpha, beta_mag2)

    def test_largest_finite_weight_still_evaluates(self):
        assert mean_spin(1e154, 1e300) == pytest.approx(1.0 - 2e-8, rel=1e-15)


class TestCaseClassification:
    def test_case_i_amplitudes(self):
        """|beta|^2 = +alpha_plus alpha_minus puts the fields in case (i)."""
        cfg = FieldConfig(alpha_plus=2.0, alpha_minus=0.5, beta=1.0, ell=4)
        verdict, spins = classify_flux_case(cfg)
        assert verdict.case is FluxCase.CASE_I
        assert verdict.residual <= 1e-15
        # sigma_plus = (a+ - a-) / (a+ + a-) in case (i)
        assert spins.sigma_plus == pytest.approx(1.5 / 2.5, rel=1e-14)
        assert spins.sigma_minus == pytest.approx(-spins.sigma_plus, rel=1e-14)

    def test_case_ii_amplitudes(self):
        """|beta|^2 = -alpha_plus alpha_minus needs opposite-sign amplitudes."""
        cfg = FieldConfig(alpha_plus=2.0, alpha_minus=-0.5, beta=1.0, ell=4)
        verdict, spins = classify_flux_case(cfg)
        assert verdict.case is FluxCase.CASE_II
        # sigma_plus = (a+ + a-) / (a+ - a-) in case (ii)
        assert spins.sigma_plus == pytest.approx(1.5 / 2.5, rel=1e-14)
        assert spins.sigma_minus == pytest.approx(-spins.sigma_plus, rel=1e-14)

    def test_neither(self):
        cfg = FieldConfig(alpha_plus=2.0, alpha_minus=0.5, beta=2.0)
        verdict, _ = classify_flux_case(cfg)
        assert verdict.case is FluxCase.NEITHER
        assert verdict.residual > 0.0
        # beta = 0 with alpha_plus alpha_minus != 0 has no relative residual
        verdict, _ = classify_flux_case(FieldConfig(alpha_plus=2.0, alpha_minus=0.5, beta=0.0))
        assert verdict == CaseClassification(FluxCase.NEITHER, math.inf)

    @pytest.mark.parametrize("record, args, error, message", [
        (CaseClassification, (FluxCase.CASE_I, -0.5), DomainError,
         r"^residual must be >= 0, got -0\.5$"),
        (CaseClassification, (FluxCase.CASE_I, math.nan), DomainError,
         "^residual must be >= 0, got nan$"),
        (CaseClassification, (FluxCase.CASE_I, "x"), DomainError,
         "^residual must be >= 0, got 'x'$"),
        (CaseClassification, ("i", 0.1), CaseError, "^case must be a FluxCase, got 'i'$"),
        (SpinPair, (0.5, -1.5), DomainError, r"^sigma_minus must be in \[-1, 1\], got -1\.5$"),
        (SpinPair, (math.nan, 0.0), DomainError, r"^sigma_plus must be in \[-1, 1\], got nan$"),
        (SpinPair, (1j, 0.0), DomainError, r"^sigma_plus must be in \[-1, 1\], got 1j$"),
    ], ids=["negative-residual", "nan-residual", "str-residual", "str-case", "spin-past-one",
            "nan-spin", "complex-spin"])
    def test_records_reject_what_they_cannot_hold(self, record, args, error, message):
        """A NaN residual or spin constructed silently, since both checks compared
        with < or >, and a string residual or spin raised a bare TypeError.  A
        string case was stored, and case_of then returned the string."""
        with pytest.raises(error, match=message):
            record(*args)

    def test_vanishing_fields_rejected(self):
        cfg = FieldConfig(alpha_plus=1.0, alpha_minus=0.0, beta=0.0)
        with pytest.raises(DegenerateFieldError):
            classify_flux_case(cfg)

    def test_case_of_normalizes(self):
        assert case_of("i") is FluxCase.CASE_I
        assert case_of("II") is FluxCase.CASE_II
        assert case_of(FluxCase.NEITHER) is FluxCase.NEITHER
        cfg = FieldConfig(alpha_plus=2.0, alpha_minus=0.5, beta=1.0)
        verdict, _ = classify_flux_case(cfg)
        assert case_of(verdict) is FluxCase.CASE_I
        with pytest.raises(CaseError):
            case_of("iii")

    @pytest.mark.parametrize("value, expected", [
        ("i", FluxCase.CASE_I), ("ii", FluxCase.CASE_II), ("neither", FluxCase.NEITHER),
        ("I", FluxCase.CASE_I), ("Ii", FluxCase.CASE_II), ("NEITHER", FluxCase.NEITHER),
        (FluxCase.CASE_II, FluxCase.CASE_II),
        (CaseClassification(FluxCase.NEITHER, 0.5), FluxCase.NEITHER),
    ])
    def test_case_of_takes_values_in_any_case_members_and_verdicts(self, value, expected):
        assert case_of(value) is expected

    @pytest.mark.parametrize("value", ["", " i", "iii", "CASE_I", 1, None, 1.5, ["i"]])
    def test_case_of_rejects_everything_else(self, value):
        with pytest.raises(CaseError, match="unknown flux case"):
            case_of(value)


class TestEpsilonParam:
    def test_paper_convention_value(self):
        assert epsilon_param(1.0, 0.6) == pytest.approx(EPSILON_PAPER_1_06, rel=1e-15)

    def test_standard_convention_value(self):
        expected = math.exp(-0.5) * 0.8
        assert epsilon_param(1.0, 0.6, convention="standard") == pytest.approx(
            expected, rel=1e-15)

    def test_zero_separation_gives_bare_root(self):
        assert epsilon_param(0.0, 0.6) == pytest.approx(0.8, rel=1e-15)

    def test_monotone_decreasing_in_delta_alpha(self):
        values = [epsilon_param(da, 0.3) for da in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            epsilon_param(-0.1, 0.5)
        with pytest.raises(DomainError):
            epsilon_param(1.0, 1.5)
        with pytest.raises(UsageError):
            epsilon_param(1.0, 0.5, convention="fancy")

    def test_nan_inputs_are_domain_errors(self):
        """NaN fails each check, and a NaN delta_alpha is reported first, as a
        negative one is: before sigma and before the convention."""
        for sigma, convention in ((0.5, "paper"), (math.nan, "paper"), (1.5, "fancy")):
            with pytest.raises(DomainError, match="^delta_alpha must be >= 0, got nan$"):
                epsilon_param(math.nan, sigma, convention)
        with pytest.raises(DomainError, match="^sigma must lie in \\[-1, 1\\], got nan$"):
            epsilon_param(1.0, math.nan)


class TestNanInputs:
    """An input that is no number ends in a DomainError, not a bare TypeError."""

    @pytest.mark.parametrize("call, message", [
        (lambda: epsilon_param("x", 0.5), "^delta_alpha must be >= 0, got 'x'$"),
        (lambda: epsilon_param(1.0, "x"), r"^sigma must lie in \[-1, 1\], got 'x'$"),
        (lambda: mean_spin("x", 1.0),
         "^alpha must be a real number, got 'x'$"),
    ], ids=["epsilon-delta-alpha", "epsilon-sigma", "mean-spin-alpha"])
    def test_a_non_number_is_a_domain_error(self, call, message):
        """Each of these raised a bare TypeError."""
        with pytest.raises(DomainError, match=message):
            call()
