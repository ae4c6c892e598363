"""Sweep-oriented command line: spectrum | gap | superpose | verify.

All energies are emitted dimensionless with the unit named in a
`# unit:` comment line (CSV) or a "unit" key (JSON).  A table's row type
declares its column types, and each table format builds one %-template
per row type from them: CSV cells are %.12e floats, decimal ints and 1/0
bools; JSON is json.dumps(..., indent=2) of {"unit", "rows"}, floats as
their repr and bools as true/false.  Identical requests produce
byte-identical files.  Exit codes: 0 success, 1 usage, 2 validation,
3 verification failure.  Library warnings print on stderr as one line
each, `fluxring: warning: <message>`, and leave the exit code alone.

Each subcommand imports only what it runs.  spectrum and gap load the
ring and trap spectra alone (no numpy, darkstate or superposition);
superpose adds darkstate and superposition, whose records need no
dataclasses; verify adds the oracle, numpy, scipy.linalg and
dataclasses; json loads where JSON is written.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from itertools import product
from operator import itemgetter
from typing import NamedTuple, Sequence, get_type_hints

from .errors import (CaseError, ConvergenceError, DomainError, UsageError,
                     ValidationError, VerificationError)
from .harmonic import _UNIT_LABEL as _HARMONIC_LABEL
from .harmonic import HarmonicSweepRow, harmonic_gap, harmonic_spectrum_sweep
from .ring import _UNIT_LABEL as _RING_LABEL
from .ring import RingSweepRow, _check_table_rows, ring_gap, ring_spectrum_sweep

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let grid values like -6:6:601 or -2,-1, and -inf or -nan, pass as arguments
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d|^-(inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse would sys.exit(2); we own the exit codes
        raise UsageError(message)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """np.linspace(lo, hi, count) bit for bit, for count >= 2, as a list."""
    span = hi - lo
    step = span / (count - 1)
    if step == 0.0:  # numpy scales by the span when the step underflows
        values = [i / (count - 1) * span + lo for i in range(count)]
    else:
        values = [i * step + lo for i in range(count)]
    values[-1] = hi
    return values


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'min:max:count' (inclusive, count >= 2), comma list, or one value."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise UsageError(f"range must be min:max:count, got {text!r}")
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 2:
                raise UsageError(f"range count must be >= 2, got {count}")
            _check_table_rows(count, "range count {}")
            values = _linspace(lo, hi, count)
        elif "," in text:
            values = [float(p) for p in text.split(",")]
        else:
            values = [float(text)]
    except ValueError as exc:
        raise UsageError(f"could not parse grid {text!r}: {exc}") from exc
    if not values or not all(map(math.isfinite, values)):
        raise UsageError(f"grid {text!r} must be non-empty and finite")
    return values


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)


class _GapRow(NamedTuple):
    """One row of a gap table; the annotations are its column types."""

    sigma_ell: float
    gap: float


# The %-conversion of a cell by its column type.  A JSON float is its repr,
# as json.dumps writes a finite float; a JSON bool is spelled in the template.
_CSV_CELLS = {float: "%.12e", int: "%d", bool: "%d", str: "%s"}
_JSON_CELLS = {float: "%r", int: "%d"}


class _Bare(str):
    """Text that %r writes unquoted: json.dumps's spelling of a non-finite float."""

    __repr__ = str.__str__


_JSON_NON_FINITE = {"inf": _Bare("Infinity"), "-inf": _Bare("-Infinity"), "nan": _Bare("NaN")}


def _column_types(schema: type) -> list[type]:
    hints = get_type_hints(schema)
    return [hints[name] for name in schema._fields]


def _csv_table(unit: str, schema: type, rows: Sequence[tuple], fixed: dict) -> str:
    literals = [(_CSV_CELLS[type(value)] % value).replace("%", "%%")
                for value in fixed.values()]
    template = ",".join(literals + [_CSV_CELLS[t] for t in _column_types(schema)]) + "\n"
    return (f"# unit: {unit}\n" + ",".join([*fixed, *schema._fields]) + "\n"
            + "".join(map(template.__mod__, rows)))


def _json_table(unit: str, schema: type, rows: Sequence[tuple], fixed: dict) -> str:
    import json

    types = _column_types(schema)
    lead = "".join(f"\n      {json.dumps(key)}: {json.dumps(value)},"
                   for key, value in fixed.items()).replace("%", "%%")
    keys = [f"\n      {json.dumps(name)}: ".replace("%", "%%") for name in schema._fields]
    flags = [k for k, t in enumerate(types) if t is bool]
    # one template per spelling of the bool cells, keyed by their values as
    # itemgetter(*flags) returns them; %.0s takes a bool and prints nothing
    templates = {}
    for values in product((False, True), repeat=len(flags)):
        spelled = iter(values)
        cells = ["%.0s" + ("true" if next(spelled) else "false") if t is bool
                 else _JSON_CELLS[t] for t in types]
        key = values[0] if len(flags) == 1 else values
        templates[key] = "\n    {" + lead + ",".join(map(str.__add__, keys, cells)) + "\n    }"

    def body(rows: Sequence[tuple]) -> str:
        if not flags:
            return ",".join(map(templates[()].__mod__, rows))
        pick = itemgetter(*flags)
        return ",".join([templates[pick(row)] % row for row in rows])

    text = body(rows)
    if "inf" in text or "nan" in text:  # a non-finite float (or a key that spells one)
        text = body([tuple(_JSON_NON_FINITE.get(repr(v), v) if type(v) is float else v
                           for v in row) for row in rows])
    return ('{\n  "unit": ' + json.dumps(unit) + ',\n  "rows": ['
            + (text + "\n  ]" if rows else "]") + "\n}\n")


def _emit_table(unit: str, schema: type, rows: Sequence[tuple], fmt: str,
                out: str | None, fixed: dict | None = None) -> None:
    """Write rows of the row type `schema` as a CSV or JSON table.

    The cells of a row are formatted by one %-template built from the
    column types of `schema`.  fixed maps leading columns that hold the
    same value in every row to that value: it is baked into the
    template, and the rows leave it out.
    """
    table = _csv_table if fmt == "csv" else _json_table
    _write(table(unit, schema, rows, fixed or {}), out)


# --geometry is ring or harmonic (argparse choices): the commands dispatch on
# the string, so spectrum and gap never load params
_UNIT_LABELS = {"ring": _RING_LABEL, "harmonic": _HARMONIC_LABEL}


def _sigma_grid(args) -> list[float]:
    if args.sigma_ell is not None:
        return _parse_grid(args.sigma_ell)
    if args.geometry == "ring":
        return _linspace(-6.0, 6.0, 601)
    ell = args.ell
    if ell <= 0:  # a negative ell is left for the trap spectrum to reject
        return [0.0]
    _check_table_rows(8 * ell + 1, "the default sigma_ell grid of {} points")
    return _linspace(-float(ell), float(ell), 8 * ell + 1)


def cmd_spectrum(args) -> int:
    grid = _sigma_grid(args)
    if args.geometry == "ring":
        sweep, schema = ring_spectrum_sweep, RingSweepRow
    else:
        sweep, schema = harmonic_spectrum_sweep, HarmonicSweepRow
    rows = sweep(args.ell, grid, m_window=args.m_window)
    _emit_table(_UNIT_LABELS[args.geometry], schema, rows, args.format, args.out)
    return 0


def cmd_gap(args) -> int:
    grid = _sigma_grid(args)
    gap_of = ring_gap if args.geometry == "ring" else harmonic_gap
    rows = [(s, gap_of(args.ell, s)) for s in grid]
    _emit_table(_UNIT_LABELS[args.geometry], _GapRow, rows, args.format, args.out)
    return 0


def _superpose_point(args) -> int:
    """Amplitude mode: classify the fields, then solve the single point."""
    missing = [flag for flag, value in (("--alpha-plus", args.alpha_plus),
                                        ("--alpha-minus", args.alpha_minus),
                                        ("--beta-mag2", args.beta_mag2))
               if value is None]
    if missing:
        raise UsageError(f"amplitude mode needs {', '.join(missing)}")
    if args.beta_mag2 < 0.0:
        raise DomainError(f"--beta-mag2 must be >= 0, got {args.beta_mag2}")
    from .darkstate import FluxCase, case_of, classify_flux_case, epsilon_param
    from .params import FieldConfig

    config = FieldConfig(args.alpha_plus, args.alpha_minus,
                         beta=math.sqrt(args.beta_mag2),
                         theta=args.theta, ell=args.ell)
    verdict, spins = classify_flux_case(config)
    if verdict.case is FluxCase.NEITHER:
        raise CaseError(
            "amplitudes satisfy neither |beta|^2 = +a+a- nor |beta|^2 = -a+a- "
            f"(relative residual {verdict.residual})")
    if args.case != "auto" and case_of(args.case) is not verdict.case:
        raise CaseError(
            f"amplitudes classify as case ({verdict.case.value}), not ({args.case})")
    sigma = spins.sigma_plus
    delta_alpha = abs(args.alpha_plus - args.alpha_minus)
    eps = epsilon_param(delta_alpha, sigma, args.overlap_convention)
    import json

    from .superposition import superpose_harmonic, superpose_ring

    solve = superpose_ring if args.geometry == "ring" else superpose_harmonic
    try:
        sigma_ell = sigma * args.ell
    except OverflowError:  # an ell with no float has no float ell^2 either
        raise DomainError(f"ell^2 + m^2 exceeds the float range at ell={args.ell}, "
                          f"sigma={sigma}") from None
    result = solve(verdict.case, args.ell, sigma_ell, eps, args.theta)
    _write(json.dumps(result.to_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_superpose(args) -> int:
    if (args.alpha_plus is not None or args.alpha_minus is not None
            or args.beta_mag2 is not None):
        return _superpose_point(args)
    # sweep mode: integer sigma_ell list x delta_alpha grid
    if args.case == "auto":
        raise UsageError("--case auto needs field amplitudes; sweeps take --case i|ii")
    if args.sigma_ell is None or args.delta_alpha is None:
        raise UsageError("sweep mode needs --sigma-ell and --delta-alpha")
    from .superposition import FeasibilityPoint, feasibility_sweep

    points = feasibility_sweep(args.case, args.geometry, args.ell,
                               _parse_grid(args.sigma_ell), _parse_grid(args.delta_alpha),
                               args.theta, args.overlap_convention)
    _emit_table(_UNIT_LABELS[args.geometry], FeasibilityPoint, points, args.format,
                args.out, fixed={"case": args.case, "geometry": args.geometry,
                                 "ell": args.ell})
    return 0


def cmd_verify(args) -> int:
    import json

    from .oracle import run_verification

    report = run_verification(ring_grid=args.ring_grid, radial_grid=args.radial_grid,
                              tolerance_scale=args.tolerance_scale)
    _write(json.dumps(report, indent=2) + "\n", args.out)
    if not report["all_passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def _add_output_flags(sub, with_format: bool = True) -> None:
    if with_format:
        sub.add_argument("--format", choices=["csv", "json"], default="csv",
                         help="table format (default csv)")
    sub.add_argument("--out", metavar="PATH",
                     help="write to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fluxring",
                     description="Spectra, gaps, and flux-tube superpositions of a "
                                 "dark-state atom in a light-induced gauge potential.")
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="energy table over a sigma_ell grid")
    spectrum.add_argument("--geometry", choices=["ring", "harmonic"], required=True)
    spectrum.add_argument("--ell", type=int, required=True, help="winding number")
    spectrum.add_argument("--sigma-ell", metavar="GRID",
                          help="grid min:max:count, comma list, or value "
                               "(default ring -6:6:601, harmonic -ell:ell:8*ell+1)")
    spectrum.add_argument("--m-window", type=int,
                          help="tabulate |m| <= this (default ceil(max|sigma_ell|)+2)")
    _add_output_flags(spectrum)
    spectrum.set_defaults(func=cmd_spectrum)

    gap = sub.add_parser("gap", help="excitation gap over a sigma_ell grid")
    gap.add_argument("--geometry", choices=["ring", "harmonic"], required=True)
    gap.add_argument("--ell", type=int, required=True)
    gap.add_argument("--sigma-ell", metavar="GRID")
    _add_output_flags(gap)
    gap.set_defaults(func=cmd_gap)

    sup = sub.add_parser(
        "superpose",
        help="superposed flux-tube ground state: feasibility sweep or single point")
    sup.add_argument("--geometry", choices=["ring", "harmonic"], required=True)
    sup.add_argument("--case", choices=["i", "ii", "auto"], default="auto",
                     help="flux case; auto classifies from amplitudes")
    sup.add_argument("--ell", type=int, required=True)
    sup.add_argument("--sigma-ell", metavar="LIST",
                     help="integer sigma_ell values for the sweep")
    sup.add_argument("--delta-alpha", metavar="GRID",
                     help="coherent-amplitude separations for the sweep")
    sup.add_argument("--theta", type=float, default=0.0,
                     help="relative phase of the superposition (default 0)")
    sup.add_argument("--alpha-plus", type=float, help="amplitude of the +ell leg")
    sup.add_argument("--alpha-minus", type=float, help="amplitude of the -ell leg")
    sup.add_argument("--beta-mag2", type=float, help="|beta|^2 of the unwound leg")
    sup.add_argument("--overlap-convention", choices=["paper", "standard"],
                     default="paper",
                     help="epsilon damping exp(-da^2) (paper) or exp(-da^2/2)")
    _add_output_flags(sup)
    sup.set_defaults(func=cmd_superpose)

    verify = sub.add_parser("verify", help="run the numerical cross-check suite")
    verify.add_argument("--ring-grid", type=int, default=1024,
                        help="ring FD grid size (default 1024)")
    verify.add_argument("--radial-grid", type=int, default=4000,
                        help="radial FD grid size (default 4000)")
    verify.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="multiply every check tolerance (default 1)")
    _add_output_flags(verify, with_format=False)
    verify.set_defaults(func=cmd_verify)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning replacement: one line, no source location."""
    print(f"fluxring: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except (VerificationError, ConvergenceError) as exc:
            print(f"verification error: {exc}", file=sys.stderr)
            return 3
        except ValidationError as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
