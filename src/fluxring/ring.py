"""Single-particle spectrum on a stiff ring threaded by the effective flux.

In units of hbar^2/2I the dark-state atom on a ring sees

    E_m = ell^2 + m^2 + 2 * sigma_ell * m,   m integer,

where sigma_ell is the product of mean spin and winding.  Everything in
this module treats sigma_ell as one real parameter; that product is the
only combination the spectrum depends on, and the finite-difference
oracle scans it freely even when ell itself is 0.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, UsageError

__all__ = [
    "ring_energy",
    "ground_m",
    "ring_gap",
    "ring_spectrum_sweep",
    "RingSweepRow",
]


# Energy unit of every ring table.
_UNIT_LABEL = "hbar^2/2I"

# Largest table a sweep builds.  The biggest real one (trap spectrum at
# ell = 12) has about 8.4k rows; a request past this limit is refused
# before anything is allocated.
_MAX_TABLE_ROWS = 1_000_000


def _shown(value, text=str) -> str:
    """text(value), str or repr, for an error message, or the size of an int too
    long for them: both raise ValueError past sys.get_int_max_str_digits() digits."""
    try:
        return text(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"


def _check_table_rows(rows: int, what: str) -> None:
    """UsageError when a table of `rows` rows would exceed _MAX_TABLE_ROWS.

    what names the table; a {} in it shows rows, formatted only then.
    """
    if rows > _MAX_TABLE_ROWS:
        raise UsageError(f"{what.format(_shown(rows))} exceeds the {_MAX_TABLE_ROWS}-row "
                         f"table limit")


def _integer(value, name: str, error: type = DomainError) -> int:
    """value as an int when it equals one; error for 2.5, NaN, inf, "3" or [3]."""
    if type(value) is int:  # the common case, without the two int() calls below
        return value
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be an integer, got {value!r}")


def _natural(value, name: str, error: type = DomainError) -> int:
    """value as an int >= 0, by _integer's rule; error otherwise."""
    value = _integer(value, name, error)
    if value < 0:
        raise error(f"{name} must be a nonnegative integer, got {_shown(value)}")
    return value


def _check_ell(ell, error: type = DomainError) -> int:
    """The winding number as an int >= 0: the one rule for every layer."""
    return _natural(ell, "ell", error)


class _Record:
    """Base of the package's frozen records: a fixed tuple of named fields.

    A record lists its fields in order as __slots__, its trailing
    defaults in _DEFAULTS and the fields its repr leaves out in _HIDDEN;
    __post_init__ may check or convert fields through object.__setattr__.
    Records compare and hash by their field values, equal only within
    their own class, and pickle by value.  Unlike a frozen dataclass, a
    record costs no import: dataclasses loads inspect, ast, dis and
    tokenize, several milliseconds of every fresh superpose request.
    """

    __slots__ = ()
    _DEFAULTS: dict = {}
    _HIDDEN: tuple = ()

    def __init_subclass__(cls) -> None:
        # each field's slot setter, called directly: object.__setattr__ would
        # look the slot up again on every field of every record built
        cls._SETTERS = tuple(getattr(cls, field).__set__ for field in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        setters = self._SETTERS
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """One value per field from a call with keywords, defaults or the
        wrong count; TypeError names what is missing, unknown or repeated."""
        fields, name = self.__slots__, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        given = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in given:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            given[field] = value
        values = {**self._DEFAULTS, **given}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[field] for field in fields]

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__qualname__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__
                          if field not in self._HIDDEN)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


def _square_sum(ell: int, sigma_ell: float, m: int) -> float:
    """ell^2 + m^2 as a float; DomainError when the integer has none."""
    try:
        return float(ell * ell + m * m)
    except OverflowError:
        raise _square_sum_error(ell, sigma_ell) from None


def _square_sum_error(ell: int, sigma_ell: float) -> DomainError:
    """The error of an ell^2 + m^2 with no float, for callers that convert it inline."""
    return DomainError(f"ell^2 + m^2 exceeds the float range at ell={_shown(ell)}, "
                       f"sigma_ell={_shown(sigma_ell)}")


def ring_energy(ell: int, sigma_ell: float, m: int) -> float:
    """Energy ell^2 + m^2 + 2 sigma_ell m of angular-momentum state m.

    An energy beyond the float range raises DomainError rather than
    returning an infinity, and so does an ell or m that is no integer.
    """
    if type(ell) is not int:  # 4.5 and "4" are no winding; 4.0 is 4
        ell = _integer(ell, "ell")
    if ell < 0:
        raise DomainError(f"ell must be >= 0, got {_shown(ell)}")
    if type(m) is not int:  # nor are 0.5 and "x" a state
        m = _integer(m, "m")
    energy = _square_sum(ell, sigma_ell, m) + 2.0 * sigma_ell * m
    if not math.isfinite(energy):
        raise DomainError(f"ell^2 + m^2 + 2 sigma_ell m exceeds the float range at "
                          f"ell={ell}, sigma_ell={sigma_ell}")
    return energy


def ground_m(sigma_ell: float) -> int:
    """Angular momentum -n of the ground state, n the integer nearest sigma_ell.

    Ties at half-integer sigma_ell resolve to the lower m of the
    degenerate pair, matching a first-occurrence argmin over ascending m.
    n is never formed as floor(sigma_ell + 1/2): that sum rounds, and
    picks the wrong m at 0.49999999999999994 and at 2^52 + 1.
    """
    try:
        finite = math.isfinite(sigma_ell)
    except (TypeError, OverflowError):  # "1.0", 1j, or an int with no float
        finite = False
    if not finite:
        raise DomainError(f"sigma_ell must be finite, got {sigma_ell!r}")
    n = round(sigma_ell)  # exact; a tie went to the even neighbour
    if sigma_ell - n == 0.5:  # exact too: the tie goes up, to floor(sigma_ell) + 1
        n += 1
    return -n


def ring_gap(ell: int, sigma_ell: float) -> float:
    """Excitation gap min_{m != m_check} E_m - E_m_check, in hbar^2/2I.

    Only the two neighbours m_check +- 1 can hold the minimum: with
    x = sigma_ell + m_check in [-1/2, 1/2], E_{m_check + k} - E_{m_check}
    = k (k + 2 x), which is at most 1 for k = +-1 and at least 2 for
    |k| >= 2.  The result is independent of ell, 1-periodic in sigma_ell,
    and vanishes exactly at half-integer sigma_ell.  ell must be an
    integer; its sign is left to ring_energy.
    """
    _integer(ell, "ell")
    mc = ground_m(sigma_ell)
    e0 = ring_energy(ell, sigma_ell, mc)
    return min(ring_energy(ell, sigma_ell, mc - 1), ring_energy(ell, sigma_ell, mc + 1)) - e0


class RingSweepRow(NamedTuple):
    """One row of the ring spectrum table.

    The field names are its columns and the annotations their types,
    which the CLI's table templates format by.
    """

    sigma_ell: float
    m: int
    energy: float
    is_ground: bool
    gap: float


def _sweep_window(ell: int, sigma_ell_values: Sequence[float] | Iterable[float],
                  m_window: int | None, levels: int) -> tuple[list[float], int]:
    """The sigma_ell grid as floats and the |m| window every spectrum sweep tabulates.

    The window defaults to ceil(max |sigma_ell|) + 2 and must at least
    contain the ground state plus one neighbor at every grid point.  A
    non-integer ell or a ground state whose ell^2 + m^2 has no float
    raises DomainError, and a table of more than _MAX_TABLE_ROWS rows
    (grid x window x levels) raises UsageError, all before any row is
    built.  A negative ell is left for the first energy to reject.
    """
    _integer(ell, "ell")
    grid = [float(s) for s in sigma_ell_values]
    if not grid:
        raise UsageError("sigma_ell grid is empty")
    worst = 0
    for s in grid:
        mc = ground_m(s)
        _square_sum(ell, s, mc)
        worst = max(worst, abs(mc))
    if m_window is None:
        m_window = math.ceil(max(abs(s) for s in grid)) + 2
    m_window = _integer(m_window, "m_window", UsageError)
    if m_window < 1:
        raise UsageError(f"m_window must be >= 1, got {_shown(m_window)}")
    if m_window < worst + 1:
        raise UsageError(
            f"m_window {m_window} does not cover the ground state and one neighbor "
            f"(need >= {worst + 1})")
    _check_table_rows(len(grid) * (2 * m_window + 1) * levels,
                      "the sigma_ell grid times the m window")
    return grid, m_window


def ring_spectrum_sweep(ell: int, sigma_ell_values: Sequence[float] | Iterable[float],
                        m_window: int | None = None) -> list[RingSweepRow]:
    """Tabulate E_m over a sigma_ell grid for |m| <= m_window.

    Every row carries an is_ground flag (both members of a degenerate
    pair are flagged at half-integer sigma_ell) and the gap at that grid
    point.  The window defaults to ceil(max |sigma_ell|) + 2 and must at
    least contain the ground state plus one neighbor.
    """
    grid, m_window = _sweep_window(ell, sigma_ell_values, m_window, levels=1)
    ms = range(-m_window, m_window + 1)
    rows: list[RingSweepRow] = []
    new_row = tuple.__new__  # RingSweepRow(...) without its __new__ frame
    for s in grid:
        gap = ring_gap(ell, s)
        energies = [ring_energy(ell, s, m) for m in ms]
        e_min = energies[ground_m(s) + m_window]
        rows += [new_row(RingSweepRow, (s, m, energy, energy == e_min, gap))
                 for m, energy in zip(ms, energies)]
    return rows
