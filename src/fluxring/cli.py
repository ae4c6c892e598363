"""Sweep-oriented command line: spectrum | gap | superpose | verify.

All energies are emitted dimensionless with the unit named in a
`# unit:` comment line (CSV) or a "unit" key (JSON).  Floats print as
%.12e and bools as 1/0, so identical requests produce byte-identical
files.  Exit codes: 0 success, 1 usage, 2 validation, 3 verification
failure.  Library warnings print on stderr as one line each,
`fluxring: warning: <message>`, and leave the exit code alone.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from typing import Sequence

from .darkstate import FluxCase, case_of, classify_flux_case, epsilon_param
from .errors import (CaseError, ConvergenceError, DomainError, UsageError,
                     ValidationError, VerificationError)
from .harmonic import harmonic_gap, harmonic_spectrum_sweep
from .params import FieldConfig, GeometryKind, GeometrySpec, as_geometry_kind, energy_unit
from .ring import ring_gap, ring_spectrum_sweep

# The numpy-backed layers (superposition, oracle) are imported inside the
# commands that use them, so spectrum and gap requests never load numpy.

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


def _fmt_csv(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return "%.12e" % value


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)


def _emit_table(unit: str, header: Sequence[str], rows: Sequence[tuple],
                fmt: str, out: str | None) -> None:
    if fmt == "csv":
        lines = [f"# unit: {unit}", ",".join(header)]
        lines.extend(",".join(_fmt_csv(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "unit": unit,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write(text, out)


def _unit_label(geometry: GeometryKind) -> str:
    spec = (GeometrySpec.ring() if geometry is GeometryKind.RING
            else GeometrySpec.harmonic())
    return energy_unit(spec).label


def _sigma_grid(args, ell: int, geometry: GeometryKind) -> list[float]:
    if args.sigma_ell is not None:
        return _parse_grid(args.sigma_ell)
    if geometry is GeometryKind.RING:
        return _linspace(-6.0, 6.0, 601)
    if ell <= 0:  # a negative ell is left for the trap spectrum to reject
        return [0.0]
    return _linspace(-float(ell), float(ell), 8 * ell + 1)


def cmd_spectrum(args) -> int:
    geometry = as_geometry_kind(args.geometry)
    grid = _sigma_grid(args, args.ell, geometry)
    sweep = (ring_spectrum_sweep if geometry is GeometryKind.RING
             else harmonic_spectrum_sweep)
    rows = sweep(args.ell, grid, m_window=args.m_window)
    _emit_table(_unit_label(geometry), rows[0]._fields, rows, args.format, args.out)
    return 0


def cmd_gap(args) -> int:
    geometry = as_geometry_kind(args.geometry)
    grid = _sigma_grid(args, args.ell, geometry)
    gap_of = ring_gap if geometry is GeometryKind.RING else harmonic_gap
    rows = [(s, gap_of(args.ell, s)) for s in grid]
    _emit_table(_unit_label(geometry), ["sigma_ell", "gap"], rows, args.format, args.out)
    return 0


def _superpose_point(args, geometry: GeometryKind) -> int:
    """Amplitude mode: classify the fields, then solve the single point."""
    missing = [flag for flag, value in (("--alpha-plus", args.alpha_plus),
                                        ("--alpha-minus", args.alpha_minus),
                                        ("--beta-mag2", args.beta_mag2))
               if value is None]
    if missing:
        raise UsageError(f"amplitude mode needs {', '.join(missing)}")
    if args.beta_mag2 < 0.0:
        raise DomainError(f"--beta-mag2 must be >= 0, got {args.beta_mag2}")
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
    from .superposition import superpose_harmonic, superpose_ring

    solve = superpose_ring if geometry is GeometryKind.RING else superpose_harmonic
    result = solve(verdict.case, args.ell, sigma * args.ell, eps, args.theta)
    _write(json.dumps(result.to_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_superpose(args) -> int:
    geometry = as_geometry_kind(args.geometry)
    if (args.alpha_plus is not None or args.alpha_minus is not None
            or args.beta_mag2 is not None):
        return _superpose_point(args, geometry)
    # sweep mode: integer sigma_ell list x delta_alpha grid
    if args.case == "auto":
        raise UsageError("--case auto needs field amplitudes; sweeps take --case i|ii")
    if args.sigma_ell is None or args.delta_alpha is None:
        raise UsageError("sweep mode needs --sigma-ell and --delta-alpha")
    from .superposition import feasibility_sweep

    points = feasibility_sweep(args.case, geometry, args.ell, _parse_grid(args.sigma_ell),
                               _parse_grid(args.delta_alpha), args.theta,
                               args.overlap_convention)
    fixed = (case_of(args.case).value, geometry.value, args.ell)
    _emit_table(_unit_label(geometry), ("case", "geometry", "ell") + points[0]._fields,
                [fixed + point for point in points], args.format, args.out)
    return 0


def cmd_verify(args) -> int:
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
