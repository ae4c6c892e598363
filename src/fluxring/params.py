"""Request-side parameters: the laser field and the trap geometry.

Every spectrum is reported in the natural unit of its geometry, hbar^2/2I
on a ring and hbar*Omega in a harmonic trap, with trap lengths in the
oscillator length r0 = sqrt(hbar / 2 M Omega); the tables take their
unit labels from the ring and harmonic modules.
"""

from __future__ import annotations

import enum

from .errors import ConfigError
from .ring import _check, _Record, _shown

__all__ = [
    "FieldConfig",
    "GeometryKind",
    "as_geometry_kind",
]


class FieldConfig(_Record):
    """Laser field settings for the three-level coupling scheme.

    alpha_plus and alpha_minus are the real amplitudes of the two
    counter-rotating components with phase windings +ell and -ell,
    beta is the complex amplitude of the second leg, and theta is the
    relative phase printed on the coupling of the superposed states.
    beta must be a number whose |beta|^2 is finite.  Every field takes
    numbers only: text or bytes such as '2.0' or '1+2j' raise ConfigError.
    theta defaults to 0.0 and ell to 1.
    """

    __slots__ = ("alpha_plus", "alpha_minus", "beta", "theta", "ell")
    _DEFAULTS = {"theta": 0.0, "ell": 1}

    def __post_init__(self) -> None:
        for field in self.__slots__:  # each by the rule of its name, in order
            object.__setattr__(self, field, _check(field, getattr(self, field), ConfigError))

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
        raise ConfigError(f"unknown geometry {_shown(value, repr)}") from exc
