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

from .errors import DomainError, SingularOverlapError, UsageError

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


def _grid(values, name: str):
    """An iterator over the entries of the name grid, or UsageError naming a value
    that is no grid (None, a number)."""
    try:
        return iter(values)
    except TypeError:
        raise UsageError(f"{name} grid must be iterable, got {_shown(values, repr)}") from None


def _number_array(value, what: str, error: type = DomainError, dtype: type = float):
    """value as an ndarray of dtype, float or complex, or error(f"{what} must hold
    numbers") unless its dtype kind is bool, int, float or (for complex) complex.
    Text, None and other objects are no numbers, although numpy would parse
    text as one; a float64 array passes on its dtype alone."""
    import numpy as np

    try:
        array = np.asarray(value)
    except (TypeError, ValueError, OverflowError):  # a ragged nesting has no array
        array = None
    if array is None or array.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise error(f"{what} must hold numbers")
    return np.asarray(array, dtype=dtype)


def _amplitude(value) -> float:
    """float(value) of a real amplitude, which a complex with no imaginary part is."""
    if isinstance(value, complex) and value.imag == 0.0:
        value = value.real
    return float(value)


# The one rule of each scalar parameter, by name; _check applies it.  An
# integer is (int, lowest, highest, error class): an int, or a value equal
# to one (4.0 is 4; 4.5, NaN, "4" and [4] are not), within bounds that a
# route may tighten.  A real is (float, test, rule, error class), as are a
# real amplitude (_amplitude) and beta (complex): the test reads the value
# converted, an int past the float range as the infinity of its sign, and
# text, None or 1j fail it.  One message format serves every rule, names
# the value through _shown, and is the CLI's: "ell must be >= 0, got -1".
_RULES = {
    "ell": (int, 0, None, DomainError),
    "m": (int, None, None, DomainError),
    "n": (int, 0, None, DomainError),
    "m_window": (int, 1, None, UsageError),
    "n_grid": (int, None, None, UsageError),  # each FD route sets its least grid
    "k_lowest": (int, 1, None, UsageError),  # and its most levels
    "sigma_ell": (float, math.isfinite, "must be finite", DomainError),
    "theta": (float, math.isfinite, "must be finite", DomainError),
    "alpha_plus": (_amplitude, math.isfinite, "must be finite", DomainError),
    "alpha_minus": (_amplitude, math.isfinite, "must be finite", DomainError),
    "alpha": (float, lambda x: True, "must be a real number", DomainError),
    "beta": (complex, lambda b: math.isfinite(abs(b) ** 2), "and |beta|^2 must be finite",
             DomainError),
    "beta_mag2": (float, lambda x: x >= 0.0, "must be >= 0", DomainError),
    "residual": (float, lambda x: x >= 0.0, "must be >= 0", DomainError),  # inf is NEITHER's
    "sigma": (float, lambda x: -1.0 <= x <= 1.0, "must lie in [-1, 1]", DomainError),
    "sigma_plus": (float, lambda x: abs(x) <= 1.0 + 1e-12, "must be in [-1, 1]", DomainError),
    "sigma_minus": (float, lambda x: abs(x) <= 1.0 + 1e-12, "must be in [-1, 1]", DomainError),
    # epsilon >= 1 raises SingularOverlapError instead: the metric is indefinite
    "epsilon": (float, lambda x: 0.0 <= x < 1.0, "must be >= 0", DomainError),
    "delta_alpha": (float, lambda x: x >= 0.0, "must be >= 0", DomainError),
    "a": (float, lambda x: -1.0 < x < math.inf, "must be finite and > -1", DomainError),
    "x": (float, lambda x: x > 0.0, "must be > 0", DomainError),
    "tolerance_scale": (float, lambda x: 0.0 <= x < math.inf, "must be finite and >= 0",
                        DomainError),
}


def _check(name: str, value, error: type | None = None, lo: int | None = None,
           hi: int | None = None):
    """value as the int, float or complex that the rule of its name admits,
    or that rule's error (error, when given) with the rule's message.
    lo and hi replace an integer's bounds for one route.  The hottest
    routes call it only for a value that is no int, or no float that
    passes the rule's test, so the common case costs no call."""
    kind, test, rule, default = _RULES[name]
    error = error or default
    number = value
    if type(value) is not kind:
        try:
            if not (hasattr(value, "__float__") or hasattr(value, "__index__")
                    or hasattr(value, "__complex__")):  # text or a buffer: float() parses it
                raise TypeError
            try:
                number = kind(value)
            except OverflowError:  # an int with no float reads as its infinity
                number = kind(math.inf if value > 0 else -math.inf)
            if kind is int and number != value:  # 4.5, but not 4.0
                raise ValueError
        except (TypeError, ValueError, OverflowError):  # "4", None, 1j; NaN and inf for an int
            if kind is int or kind is complex:
                what = "an integer" if kind is int else "a complex number"
                raise error(f"{name} must be {what}, got {_shown(value, repr)}") from None
            raise error(f"{name} {rule}, got {_shown(value, repr)}") from None
    if kind is int:
        lo, hi = test if lo is None else lo, rule if hi is None else hi
        if (lo is not None and number < lo) or (hi is not None and number > hi):
            bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise error(f"{name} must be {bounds}, got {_shown(number)}")
        return number
    try:
        if test(number):
            return number
    except OverflowError:  # |beta| of a complex with finite parts
        pass
    if name == "epsilon" and number >= 1.0:
        raise SingularOverlapError(f"epsilon = {_shown(value)} >= 1")
    raise error(f"{name} {rule}, got {_shown(value, repr)}")


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
    returning an infinity, and so does a parameter outside its rule.
    """
    if type(ell) is not int or ell < 0:  # 4.5, "4" and -1 are no winding; 4.0 is 4
        ell = _check("ell", ell)
    if type(m) is not int:  # nor are 0.5 and "x" a state
        m = _check("m", m)
    if type(sigma_ell) is not float:  # a NaN or infinite float is caught below
        _check("sigma_ell", sigma_ell)
    energy = _square_sum(ell, sigma_ell, m) + 2.0 * sigma_ell * m
    if not math.isfinite(energy):
        _check("sigma_ell", sigma_ell)
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
    if type(sigma_ell) is not float or sigma_ell - sigma_ell != 0.0:  # NaN for inf and NaN
        _check("sigma_ell", sigma_ell)
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
    and vanishes exactly at half-integer sigma_ell.
    """
    if type(ell) is not int or ell < 0:
        ell = _check("ell", ell)
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
    contain the ground state plus one neighbor at every grid point.  An
    ell or grid entry outside its rule, or a ground state whose
    ell^2 + m^2 has no float, raises DomainError; a grid that is not
    iterable, and a table of more than _MAX_TABLE_ROWS rows (grid x
    window x levels), raise UsageError, all before any row is built.
    """
    _check("ell", ell)
    grid = [s if type(s) is float else _check("sigma_ell", s)
            for s in _grid(sigma_ell_values, "sigma_ell")]
    if not grid:
        raise UsageError("sigma_ell grid is empty")
    worst = 0
    for s in grid:
        mc = ground_m(s)
        _square_sum(ell, s, mc)
        worst = max(worst, abs(mc))
    if m_window is None:
        m_window = math.ceil(max(abs(s) for s in grid)) + 2
    m_window = _check("m_window", m_window)
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
