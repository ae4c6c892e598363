"""Field configuration, geometry specs, and unit bookkeeping."""

import math

import pytest

from fluxring import (
    HBAR,
    ConfigError,
    FieldConfig,
    GeometryKind,
    GeometrySpec,
    as_geometry_kind,
    energy_unit,
    oscillator_length,
)


class TestFieldConfig:
    def test_accepts_real_amplitudes_and_complex_beta(self):
        """Valid amplitudes round-trip; beta is stored as a complex number."""
        cfg = FieldConfig(alpha_plus=2.0, alpha_minus=0.5, beta=1.0 + 0.5j, theta=0.3, ell=4)
        assert cfg.alpha_plus == 2.0
        assert cfg.beta == 1.0 + 0.5j
        assert cfg.beta_mag2 == pytest.approx(1.25, rel=1e-15)

    def test_rejects_complex_alpha(self):
        with pytest.raises(ConfigError):
            FieldConfig(alpha_plus=1.0 + 1.0j, alpha_minus=0.5, beta=1.0)

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ConfigError):
            FieldConfig(alpha_plus=math.nan, alpha_minus=0.5, beta=1.0)
        with pytest.raises(ConfigError):
            FieldConfig(alpha_plus=1.0, alpha_minus=0.5, beta=complex(math.inf, 0.0))

    def test_rejects_bad_winding(self):
        """ell is a photon winding number: integer and nonnegative."""
        with pytest.raises(ConfigError):
            FieldConfig(alpha_plus=1.0, alpha_minus=0.5, beta=1.0, ell=1.5)
        with pytest.raises(ConfigError):
            FieldConfig(alpha_plus=1.0, alpha_minus=0.5, beta=1.0, ell=-2)

    @pytest.mark.parametrize("ell", [math.inf, math.nan, "4", 4.5])
    def test_winding_takes_the_integer_rule(self, ell):
        """ell = inf raised a bare OverflowError before the shared rule."""
        with pytest.raises(ConfigError, match="^ell must be an integer, got "):
            FieldConfig(alpha_plus=1.0, alpha_minus=0.5, beta=1.0, ell=ell)


class TestGeometrySpec:
    def test_ring_derives_inertia_from_mass_and_radius(self):
        geo = GeometrySpec.ring(mass=2.0, radius=3.0, use_dimensionless=False)
        assert geo.inertia_I == pytest.approx(18.0, rel=1e-15)

    def test_kind_field_exclusivity(self):
        with pytest.raises(ConfigError):
            GeometrySpec(GeometryKind.RING, omega=1.0)
        with pytest.raises(ConfigError):
            GeometrySpec(GeometryKind.HARMONIC, radius=1.0)
        with pytest.raises(ConfigError):
            GeometrySpec(GeometryKind.HARMONIC, inertia_I=1.0)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ConfigError):
            GeometrySpec.ring(inertia_I=0.0, use_dimensionless=False)
        with pytest.raises(ConfigError):
            GeometrySpec.harmonic(omega=-1.0, use_dimensionless=False)

    def test_as_geometry_kind_normalizes(self):
        assert as_geometry_kind("ring") is GeometryKind.RING
        assert as_geometry_kind("HARMONIC") is GeometryKind.HARMONIC
        assert as_geometry_kind(GeometryKind.RING) is GeometryKind.RING
        with pytest.raises(ConfigError):
            as_geometry_kind("torus")

    @pytest.mark.parametrize("value, expected", [
        ("ring", GeometryKind.RING), ("harmonic", GeometryKind.HARMONIC),
        ("Ring", GeometryKind.RING), ("HARMONIC", GeometryKind.HARMONIC),
        (GeometryKind.HARMONIC, GeometryKind.HARMONIC),
    ])
    def test_as_geometry_kind_takes_values_in_any_case_and_members(self, value, expected):
        assert as_geometry_kind(value) is expected

    @pytest.mark.parametrize("value", ["", "ring ", "RING_", "torus", 0, None, ["ring"]])
    def test_as_geometry_kind_rejects_everything_else(self, value):
        with pytest.raises(ConfigError, match="unknown geometry"):
            as_geometry_kind(value)


class TestEnergyUnit:
    def test_dimensionless_units_are_one_with_labels(self):
        ring = energy_unit(GeometrySpec.ring())
        trap = energy_unit(GeometrySpec.harmonic())
        assert ring.value == 1.0 and ring.label == "hbar^2/2I"
        assert trap.value == 1.0 and trap.label == "hbar*Omega"

    def test_si_ring_unit(self):
        geo = GeometrySpec.ring(inertia_I=4.0e-45, use_dimensionless=False)
        assert energy_unit(geo).value == pytest.approx(HBAR**2 / 8.0e-45, rel=1e-15)

    def test_si_harmonic_unit(self):
        geo = GeometrySpec.harmonic(omega=2e3, use_dimensionless=False)
        assert energy_unit(geo).value == pytest.approx(HBAR * 2e3, rel=1e-15)

    def test_si_unit_requires_scale(self):
        with pytest.raises(ConfigError):
            energy_unit(GeometrySpec.ring(use_dimensionless=False))
        with pytest.raises(ConfigError):
            energy_unit(GeometrySpec.harmonic(use_dimensionless=False))


class TestOscillatorLength:
    def test_dimensionless_is_unity(self):
        assert oscillator_length(GeometrySpec.harmonic()) == 1.0

    def test_si_value(self):
        geo = GeometrySpec.harmonic(omega=1e3, mass=1e-25, use_dimensionless=False)
        assert oscillator_length(geo) == pytest.approx(
            math.sqrt(HBAR / (2.0 * 1e-25 * 1e3)), rel=1e-15)

    def test_rejects_ring(self):
        with pytest.raises(ConfigError):
            oscillator_length(GeometrySpec.ring())

    def test_si_needs_mass_and_omega(self):
        with pytest.raises(ConfigError):
            oscillator_length(GeometrySpec.harmonic(omega=1e3, use_dimensionless=False))
