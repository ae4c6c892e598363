"""Request-side parameters: the laser field and the trap geometry.

Every spectrum is reported in the natural unit of its geometry, hbar^2/2I
on a ring and hbar*Omega in a harmonic trap, with trap lengths in the
oscillator length r0 = sqrt(hbar / 2 M Omega); the tables take their
unit labels from the ring and harmonic modules.
"""

from __future__ import annotations

import enum
import math

from .errors import ConfigError
from .ring import _check_ell, _Record, _shown

__all__ = [
    "FieldConfig",
    "GeometryKind",
    "as_geometry_kind",
]


def _as_real(name: str, value) -> float:
    if isinstance(value, complex):
        if value.imag != 0.0:
            raise ConfigError(f"{name} must be real, got {value!r}")
        value = value.real
    try:
        if not (hasattr(value, "__float__") or hasattr(value, "__index__")):
            raise TypeError("no number: float() would parse it as text")
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a real number, got {value!r}") from exc
    except OverflowError:  # an int past the float range, 10**400
        raise ConfigError(f"{name} must be finite, got {_shown(value, repr)}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {_shown(value, repr)}")
    return value


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
        object.__setattr__(self, "alpha_plus", _as_real("alpha_plus", self.alpha_plus))
        object.__setattr__(self, "alpha_minus", _as_real("alpha_minus", self.alpha_minus))
        try:
            if isinstance(self.beta, str):
                raise TypeError("no number: complex() would parse it as text")
            beta = complex(self.beta)
            finite = math.isfinite(abs(beta) ** 2)  # NaN and inf parts fail it too
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"beta must be a complex number, got {self.beta!r}") from exc
        except OverflowError:  # 10**400, or a finite beta whose |beta|^2 has no float
            finite = False
        if not finite:
            raise ConfigError(f"beta and |beta|^2 must be finite, got {_shown(self.beta, repr)}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta", _as_real("theta", self.theta))
        object.__setattr__(self, "ell", _check_ell(self.ell, ConfigError))

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
