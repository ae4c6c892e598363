"""Dark-state observables of the three-level coupling scheme.

A resonant Lambda scheme with windings +ell and -ell on the two legs has
one dark eigenstate.  Its mean spin sigma = (alpha^2 - |beta|^2) / N with
N = alpha^2 + |beta|^2 sets the azimuthal gauge potential A_phi =
hbar ell sigma / r and an effective flux 2 pi hbar sigma ell, and the
winding leaves a scalar potential hbar^2 ell^2 / 2 M r^2 (Dalibard et
al., Rev. Mod. Phys. 83 (2011) 1523).  The spectra take these through
the one product sigma_ell = sigma ell.  Two field arrangements admit
macroscopically distinct dark states:

* case (i),  |beta|^2 = +alpha_plus * alpha_minus: the two dark states
  overlap by sqrt(1 - sigma^2) and their gradient coupling vanishes;
* case (ii), |beta|^2 = -alpha_plus * alpha_minus: the dark states are
  orthogonal and couple through the gradient term
  <D+-|grad D-+> = -i ell sqrt(1 - sigma^2) / r (azimuthal component).

Both cases have sigma_plus = -sigma_minus, so superposing them threads
opposite flux tubes through the same trap.
"""

from __future__ import annotations

import enum
import math

from .errors import CaseError, DegenerateFieldError, DomainError, UsageError
from .params import FieldConfig
from .ring import _Record

__all__ = [
    "FluxCase",
    "CaseClassification",
    "SpinPair",
    "case_of",
    "mean_spin",
    "classify_flux_case",
    "epsilon_param",
]


class FluxCase(enum.Enum):
    """Which of the two special field arrangements the amplitudes satisfy."""

    CASE_I = "i"
    CASE_II = "ii"
    NEITHER = "neither"


class CaseClassification(_Record):
    """Classification verdict plus the relative residual it was based on."""

    __slots__ = ("case", "residual")

    def __post_init__(self) -> None:
        if not isinstance(self.case, FluxCase):
            raise CaseError(f"case must be a FluxCase, got {self.case!r}")
        _check(self.residual, "classification residual", _RESIDUAL)


class SpinPair(_Record):
    """Mean spins of the two superposed dark states; always opposite."""

    __slots__ = ("sigma_plus", "sigma_minus")

    def __post_init__(self) -> None:
        _check(self.sigma_plus, "sigma_plus", _SPIN)
        _check(self.sigma_minus, "sigma_minus", _SPIN)


_CASE_VALUES = {member.value: member for member in FluxCase}

# (rule, test) pairs for _check; each test is False for NaN
_NONNEGATIVE = ("finite and >= 0", lambda x: math.isfinite(x) and x >= 0.0)
_RESIDUAL = (">= 0", lambda x: x >= 0.0)  # inf is NEITHER's residual at beta = 0
_SPIN = ("in [-1, 1]", lambda x: -1.0 - 1e-12 <= x <= 1.0 + 1e-12)


def _check(value, name: str, rule: tuple) -> None:
    """DomainError unless value passes the rule's test.  A value the test
    cannot compare ("x", 1j, None, or an int with no float) fails it too."""
    text, holds = rule
    try:
        ok = holds(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{name} must be {text}, got {value!r}")


def case_of(case) -> FluxCase:
    """Normalize FluxCase, CaseClassification, or 'i'/'ii' strings."""
    if type(case) is str:  # an exact value string skips the general path below
        kind = _CASE_VALUES.get(case)
        if kind is not None:
            return kind
    if isinstance(case, CaseClassification):
        return case.case
    if isinstance(case, FluxCase):
        return case
    try:
        return FluxCase(str(case).lower())
    except ValueError as exc:
        raise CaseError(f"unknown flux case {case!r}") from exc


def mean_spin(alpha: float, beta_mag2: float) -> float:
    """Mean spin (alpha^2 - |beta|^2) / (alpha^2 + |beta|^2) of a dark state.

    Parameters
    ----------
    alpha : real amplitude of the wound leg.
    beta_mag2 : squared magnitude of the other leg.

    The result lies in [-1, 1] without a clamp: for |beta|^2 >= 0,
    |alpha^2 - |beta|^2| <= alpha^2 + |beta|^2, and rounding is monotone,
    so the rounded difference never exceeds the rounded norm in size.
    Vanishing total weight raises DegenerateFieldError; a NaN or
    overflowing weight, or an amplitude that is no real number, DomainError.
    """
    try:
        if not beta_mag2 >= 0.0:  # NaN fails both checks
            raise DomainError(f"beta_mag2 must be >= 0, got {beta_mag2}")
        a2 = alpha * alpha
        try:
            norm = a2 + beta_mag2
        except OverflowError:  # an int alpha^2 with no float
            norm = math.inf
        finite = norm < math.inf
    except TypeError:  # "x", None, or a complex alpha
        raise DomainError(f"alpha and beta_mag2 must be real numbers, got {alpha!r} "
                          f"and {beta_mag2!r}") from None
    if not finite:
        raise DomainError(f"alpha^2 + beta_mag2 must be finite, got {norm} at alpha = {alpha}")
    if norm == 0.0:
        raise DegenerateFieldError("field amplitudes carry no weight")
    return (a2 - beta_mag2) / norm


def classify_flux_case(config: FieldConfig) -> tuple[CaseClassification, SpinPair]:
    """Decide whether the amplitudes realize case (i), case (ii), or neither.

    Case (i) holds when |beta|^2 = +alpha_plus*alpha_minus and case (ii)
    when |beta|^2 = -alpha_plus*alpha_minus, both judged relative to
    |beta|^2 with tolerance 1e-9.  beta = 0 satisfies both at once only
    when alpha_plus*alpha_minus = 0 too, which is a degenerate field.
    """
    b2 = config.beta_mag2
    prod = config.alpha_plus * config.alpha_minus
    res_i = abs(b2 - prod)
    res_ii = abs(b2 + prod)
    if b2 == 0.0:
        if prod == 0.0:
            raise DegenerateFieldError("beta = 0 satisfies both flux conditions at once")
        verdict = CaseClassification(FluxCase.NEITHER, math.inf)
    else:
        scale = 1e-9 * b2
        if res_i <= scale:
            verdict = CaseClassification(FluxCase.CASE_I, res_i / b2)
        elif res_ii <= scale:
            verdict = CaseClassification(FluxCase.CASE_II, res_ii / b2)
        else:
            verdict = CaseClassification(FluxCase.NEITHER, min(res_i, res_ii) / b2)
    spins = SpinPair(mean_spin(config.alpha_plus, b2), mean_spin(config.alpha_minus, b2))
    return verdict, spins


def _spin_root(sigma: float) -> float:
    """sqrt(1 - sigma^2), the overlap factor of two dark states of spin +-sigma."""
    try:
        inside = -1.0 <= sigma <= 1.0  # NaN fails it
    except TypeError:  # "x", 1j or None
        inside = False
    if not inside:
        raise DomainError(f"sigma must lie in [-1, 1], got {sigma}")
    return math.sqrt(1.0 - sigma * sigma)


def _damping_scale(convention: str) -> float:
    """k in the coherent-state damping exp(-delta_alpha^2 / k): 1 under the
    paper's convention, 2 under the 'standard' one."""
    if convention == "paper":
        return 1.0
    if convention == "standard":
        return 2.0
    raise UsageError(f"unknown overlap convention {convention!r}")


def _damping(delta_alpha: float, convention: str) -> float:
    """Coherent-state damping exp(-delta_alpha^2), or exp(-delta_alpha^2 / 2)
    under the 'standard' convention; delta_alpha >= 0 (not NaN) is checked first."""
    if not delta_alpha >= 0.0:
        raise DomainError(f"delta_alpha must be >= 0, got {delta_alpha}")
    return math.exp(-delta_alpha * delta_alpha / _damping_scale(convention))


def _delta_alpha_at(epsilon: float, root: float, scale: float) -> float:
    """The inverse of delta_alpha -> exp(-delta_alpha^2 / scale) * root:
    sqrt(scale ln(root / epsilon)), 0.0 for epsilon >= root, inf for epsilon 0."""
    if not epsilon > 0.0:
        return math.inf
    return math.sqrt(scale * math.log(root / epsilon)) if epsilon < root else 0.0


def epsilon_param(delta_alpha: float, sigma: float, convention: str = "paper") -> float:
    """Coherent-state suppressed overlap epsilon entering the 2x2 pencils.

    epsilon = exp(-delta_alpha^2) * sqrt(1 - sigma^2) under the default
    convention; 'standard' keeps the textbook exp(-delta_alpha^2 / 2).
    A feasibility sweep multiplies the same two factors, each computed
    once per grid column or row, so its epsilons carry these bits.

    Examples
    --------
    >>> round(epsilon_param(1.0, 0.6), 7)
    0.2943036
    """
    # a delta_alpha that is negative, NaN or no number is reported before sigma,
    # the convention after it
    try:
        root = _spin_root(sigma) if delta_alpha >= 0.0 else 1.0
    except TypeError:  # "x", 1j or None
        raise DomainError(f"delta_alpha must be >= 0, got {delta_alpha!r}") from None
    return _damping(delta_alpha, convention) * root
