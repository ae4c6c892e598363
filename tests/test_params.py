"""Field configuration and the geometry kind."""

import math
from array import array

import pytest

from fluxring import ConfigError, FieldConfig, GeometryKind, as_geometry_kind


class TestFieldConfig:
    def test_accepts_real_amplitudes_and_complex_beta(self):
        """Valid amplitudes round-trip; beta is stored as a complex number."""
        cfg = FieldConfig(alpha_plus=2.0, alpha_minus=0.5, beta=1.0 + 0.5j, theta=0.3, ell=4)
        assert cfg.alpha_plus == 2.0
        assert cfg.beta == 1.0 + 0.5j
        assert cfg.beta_mag2 == pytest.approx(1.25, rel=1e-15)
        # a complex amplitude with zero imaginary part is its real part
        same = FieldConfig(alpha_plus=2 + 0j, alpha_minus=0.5, beta=1.0 + 0.5j, theta=0.3, ell=4)
        assert same == cfg and type(same.alpha_plus) is float

    def test_rejects_complex_alpha(self):
        with pytest.raises(ConfigError):
            FieldConfig(alpha_plus=1.0 + 1.0j, alpha_minus=0.5, beta=1.0)

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ConfigError):
            FieldConfig(alpha_plus=math.nan, alpha_minus=0.5, beta=1.0)
        with pytest.raises(ConfigError):
            FieldConfig(alpha_plus=1.0, alpha_minus=0.5, beta=complex(math.inf, 0.0))

    def test_rejects_beta_whose_weight_overflows(self):
        """beta = 1e200 (1 + i) was accepted, and classify_flux_case then raised a
        bare OverflowError from beta_mag2; 1e154 still fits."""
        with pytest.raises(ConfigError, match=r"^beta and \|beta\|\^2 must be finite, "
                                              r"got \(1e\+200\+1e\+200j\)$"):
            FieldConfig(alpha_plus=1.0, alpha_minus=0.5, beta=1e200 + 1e200j)
        assert FieldConfig(alpha_plus=1.0, alpha_minus=0.5, beta=1e154).beta_mag2 < math.inf

    @pytest.mark.parametrize("name, value, message", [
        ("alpha_plus", "x", "^alpha_plus must be finite, got 'x'$"),
        ("beta", "x", "^beta must be a complex number, got 'x'$"),
        ("beta", None, "^beta must be a complex number, got None$"),
        ("beta", [1], r"^beta must be a complex number, got \[1\]$"),
        ("alpha_plus", "2.0", "^alpha_plus must be finite, got '2.0'$"),
        ("alpha_minus", b"0.5", "^alpha_minus must be finite, got b'0.5'$"),
        ("theta", array("b", b"1"), r"^theta must be finite, got array\('b', \[49\]\)$"),
        ("beta", "1+2j", r"^beta must be a complex number, got '1\+2j'$"),
        ("beta", b"1", "^beta must be a complex number, got b'1'$"),
    ])
    def test_rejects_non_numbers(self, name, value, message):
        """beta = 'x' raised a bare ValueError, and None or [1] a bare TypeError.
        Text or a buffer that float() or complex() parses ('2.0', b'0.5', '1+2j')
        was accepted while ell = '4' raised."""
        fields = {"alpha_plus": 1.0, "alpha_minus": 0.5, "beta": 1.0, name: value}
        with pytest.raises(ConfigError, match=message):
            FieldConfig(**fields)

    @pytest.mark.parametrize("name", ["alpha_plus", "alpha_minus", "theta", "beta"])
    def test_rejects_an_integer_past_the_float_range(self, name):
        """10**400 has no float: every field but beta raised a bare OverflowError."""
        fields = {"alpha_plus": 1.0, "alpha_minus": 0.5, "beta": 1.0, name: 10**400}
        rule = r"beta and \|beta\|\^2" if name == "beta" else name
        with pytest.raises(ConfigError, match=f"^{rule} must be finite, got 10{{400}}$"):
            FieldConfig(**fields)

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


class TestAsGeometryKind:
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

