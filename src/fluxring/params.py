"""Experiment-level parameters: laser amplitudes, trap geometry, energy units.

All downstream spectra are reported in the natural unit of the chosen
geometry: hbar^2/2I for a ring of moment of inertia I = M R^2, and
hbar*Omega for a harmonic trap of frequency Omega.  In dimensionless
mode (the default) both units are 1 and lengths are measured in the
oscillator length r0 = sqrt(hbar / 2 M Omega).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError
from .harmonic import _UNIT_LABEL as _HARMONIC_LABEL
from .ring import _UNIT_LABEL as _RING_LABEL
from .ring import _check_ell

__all__ = [
    "HBAR",
    "FieldConfig",
    "GeometryKind",
    "GeometrySpec",
    "EnergyUnit",
    "energy_unit",
    "oscillator_length",
    "as_geometry_kind",
]

HBAR = 1.054571817e-34  # J s


def _as_real(name: str, value) -> float:
    if isinstance(value, complex):
        if value.imag != 0.0:
            raise ConfigError(f"{name} must be real, got {value!r}")
        value = value.real
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class FieldConfig:
    """Laser field settings for the three-level coupling scheme.

    alpha_plus and alpha_minus are the real amplitudes of the two
    counter-rotating components with phase windings +ell and -ell,
    beta is the complex amplitude of the second leg, and theta is the
    relative phase printed on the coupling of the superposed states.
    chi is the common Rabi-envelope scale and detuning_e31 the two-photon
    detuning, which must stay zero for the dark state to survive.
    """

    alpha_plus: float
    alpha_minus: float
    beta: complex
    theta: float = 0.0
    ell: int = 1
    chi: float = 0.0
    detuning_e31: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_plus", _as_real("alpha_plus", self.alpha_plus))
        object.__setattr__(self, "alpha_minus", _as_real("alpha_minus", self.alpha_minus))
        beta = complex(self.beta)
        if not (math.isfinite(beta.real) and math.isfinite(beta.imag)):
            raise ConfigError(f"beta must be finite, got {beta!r}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta", _as_real("theta", self.theta))
        object.__setattr__(self, "ell", _check_ell(self.ell, ConfigError))
        object.__setattr__(self, "chi", _as_real("chi", self.chi))
        object.__setattr__(self, "detuning_e31", _as_real("detuning_e31", self.detuning_e31))

    @property
    def beta_mag2(self) -> float:
        return abs(self.beta) ** 2


class GeometryKind(enum.Enum):
    RING = "ring"
    HARMONIC = "harmonic"


_GEOMETRY_VALUES = {member.value: member for member in GeometryKind}


def as_geometry_kind(value) -> GeometryKind:
    """Normalize 'ring' / 'harmonic' strings or GeometryKind members."""
    if type(value) is str:  # an exact value string skips the general path below
        kind = _GEOMETRY_VALUES.get(value)
        if kind is not None:
            return kind
    if isinstance(value, GeometryKind):
        return value
    try:
        return GeometryKind(str(value).lower())
    except ValueError as exc:
        raise ConfigError(f"unknown geometry {value!r}") from exc


@dataclass(frozen=True)
class GeometrySpec:
    """Trapping geometry: a stiff ring or a 2D harmonic trap.

    Exactly the fields belonging to the chosen kind may be set.  A ring
    takes inertia_I directly or (mass, radius) with I = M R^2; a harmonic
    trap takes omega and, when the oscillator length is wanted in SI
    units, the atomic mass.  With use_dimensionless (the default) the
    numeric fields are optional and every unit collapses to 1.
    """

    kind: GeometryKind
    inertia_I: float | None = None  # ring only, kg m^2
    omega: float | None = None      # harmonic only, rad/s
    mass: float | None = None       # kg
    radius: float | None = None     # ring only, m
    use_dimensionless: bool = True

    def __post_init__(self) -> None:
        kind = as_geometry_kind(self.kind)
        object.__setattr__(self, "kind", kind)
        for name in ("inertia_I", "omega", "mass", "radius"):
            value = getattr(self, name)
            if value is not None:
                value = _as_real(name, value)
                if value <= 0.0:
                    raise ConfigError(f"{name} must be > 0, got {value}")
                object.__setattr__(self, name, value)
        if kind is GeometryKind.RING:
            if self.omega is not None:
                raise ConfigError("a ring geometry does not take omega")
            if self.inertia_I is None and self.mass is not None and self.radius is not None:
                object.__setattr__(self, "inertia_I", self.mass * self.radius**2)
        else:
            if self.inertia_I is not None or self.radius is not None:
                raise ConfigError("a harmonic geometry does not take inertia_I or radius")

    @classmethod
    def ring(cls, inertia_I: float | None = None, mass: float | None = None,
             radius: float | None = None, use_dimensionless: bool = True) -> "GeometrySpec":
        return cls(GeometryKind.RING, inertia_I=inertia_I, mass=mass,
                   radius=radius, use_dimensionless=use_dimensionless)

    @classmethod
    def harmonic(cls, omega: float | None = None, mass: float | None = None,
                 use_dimensionless: bool = True) -> "GeometrySpec":
        return cls(GeometryKind.HARMONIC, omega=omega, mass=mass,
                   use_dimensionless=use_dimensionless)


@dataclass(frozen=True)
class EnergyUnit:
    """A positive energy scale together with its printable label."""

    value: float
    label: str

    def __post_init__(self) -> None:
        value = _as_real("value", self.value)
        if value <= 0.0:
            raise ConfigError(f"energy unit must be > 0, got {value}")
        object.__setattr__(self, "value", value)


def energy_unit(geometry: GeometrySpec) -> EnergyUnit:
    """Natural energy unit of the geometry.

    Ring: hbar^2/2I.  Harmonic: hbar*Omega.  Dimensionless mode returns 1
    with the same label so downstream tables stay annotated.
    """
    if geometry.kind is GeometryKind.RING:
        if geometry.use_dimensionless:
            return EnergyUnit(1.0, _RING_LABEL)
        if geometry.inertia_I is None:
            raise ConfigError("ring energy unit needs inertia_I (or mass and radius)")
        return EnergyUnit(HBAR**2 / (2.0 * geometry.inertia_I), _RING_LABEL)
    if geometry.use_dimensionless:
        return EnergyUnit(1.0, _HARMONIC_LABEL)
    if geometry.omega is None:
        raise ConfigError("harmonic energy unit needs omega")
    return EnergyUnit(HBAR * geometry.omega, _HARMONIC_LABEL)


def oscillator_length(geometry: GeometrySpec) -> float:
    """Radial length unit r0 = sqrt(hbar / 2 M Omega) of a harmonic trap.

    Rings have no oscillator length; asking for one is a configuration
    error rather than a silent fallback.
    """
    if geometry.kind is not GeometryKind.HARMONIC:
        raise ConfigError("oscillator length is defined only for the harmonic geometry")
    if geometry.use_dimensionless:
        return 1.0
    if geometry.mass is None or geometry.omega is None:
        raise ConfigError("oscillator length needs mass and omega")
    return math.sqrt(HBAR / (2.0 * geometry.mass * geometry.omega))
