"""Command-line interface: flags, tables, exit codes, determinism."""

import contextlib
import io
import json
import math
import time
from typing import NamedTuple

import pytest
from hypothesis import given, seed, settings
from hypothesis.strategies import (data, floats, integers, lists, one_of, sampled_from,
                                   tuples)

from fluxring import (FeasibilityPoint, HarmonicSweepRow, RingSweepRow, UsageError,
                      feasibility_sweep, ground_m, harmonic_gap, harmonic_spectrum_sweep,
                      ring_gap, ring_spectrum_sweep)
from fluxring.cli import _column_types, _csv_table, _GapRow, _json_table, main

RING_WINDOW_ONE = """\
# unit: hbar^2/2I
sigma_ell,m,energy,is_ground,gap
0.000000000000e+00,-1,1.700000000000e+01,0,1.000000000000e+00
0.000000000000e+00,0,1.600000000000e+01,1,1.000000000000e+00
0.000000000000e+00,1,1.700000000000e+01,0,1.000000000000e+00
"""


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumRing:
    def test_window_one_golden_output(self, capsys):
        code, out, _ = run(capsys, [
            "spectrum", "--geometry", "ring", "--ell", "4",
            "--sigma-ell", "0", "--m-window", "1"])
        assert code == 0
        assert out == RING_WINDOW_ONE

    def test_grid_row_count(self, capsys):
        code, out, _ = run(capsys, [
            "spectrum", "--geometry", "ring", "--ell", "4",
            "--sigma-ell", "-2:2:5", "--m-window", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# unit: hbar^2/2I"
        assert lines[1] == "sigma_ell,m,energy,is_ground,gap"
        assert len(lines) == 2 + 5 * 7

    def test_ground_column_follows_staircase(self, capsys):
        _, out, _ = run(capsys, [
            "spectrum", "--geometry", "ring", "--ell", "4",
            "--sigma-ell", "-3:3:13"])
        for line in out.splitlines()[2:]:
            sl, m, _, flag, _ = line.split(",")
            if int(flag):
                twice = 2.0 * float(sl)
                if twice != round(twice):  # skip degenerate half-integer points
                    assert int(m) == ground_m(float(sl))

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, [
            "spectrum", "--geometry", "ring", "--ell", "4",
            "--sigma-ell", "0,1", "--m-window", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["unit"] == "hbar^2/2I"
        assert len(payload["rows"]) == 10
        assert payload["rows"][0]["sigma_ell"] == 0.0
        assert isinstance(payload["rows"][0]["is_ground"], bool)


class TestSpectrumHarmonic:
    def test_levels_and_unit(self, capsys):
        code, out, _ = run(capsys, [
            "spectrum", "--geometry", "harmonic", "--ell", "4",
            "--sigma-ell", "0", "--m-window", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# unit: hbar*Omega"
        assert lines[1] == "sigma_ell,n,m,mu,energy,is_ground,gap"
        assert len(lines) == 2 + 3 * 5  # n in 0..2, m in -2..2
        ground = [ln for ln in lines[2:] if ln.split(",")[5] == "1"]
        assert len(ground) == 1
        fields = ground[0].split(",")
        assert fields[1] == "0" and fields[2] == "0"
        assert float(fields[4]) == 5.0

    def test_unphysical_spin_is_a_validation_error(self, capsys):
        code, _, err = run(capsys, [
            "spectrum", "--geometry", "harmonic", "--ell", "1", "--sigma-ell", "5"])
        assert code == 2
        assert "validation error" in err


class TestGap:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, [
            "gap", "--geometry", "ring", "--ell", "4",
            "--sigma-ell", "0,0.25,0.5,1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "sigma_ell,gap"
        gaps = [float(ln.split(",")[1]) for ln in lines[2:]]
        assert gaps == [1.0, 0.5, 0.0, 1.0]

    def test_harmonic_gap_value(self, capsys):
        _, out, _ = run(capsys, [
            "gap", "--geometry", "harmonic", "--ell", "4", "--sigma-ell", "0"])
        gap = float(out.splitlines()[2].split(",")[1])
        assert gap == pytest.approx(math.sqrt(17.0) - 4.0, rel=1e-12)


class TestSuperposeSweep:
    ARGS = ["superpose", "--geometry", "ring", "--case", "i", "--ell", "16",
            "--sigma-ell", "8", "--delta-alpha", "0.5:3:6"]

    def test_columns_and_feasibility_transition(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == ("case,geometry,ell,sigma_ell,delta_alpha,epsilon,"
                            "delta_e,gap,mixing_ratio,feasible")
        flags = [ln.split(",")[-1] for ln in lines[2:]]
        assert flags == ["0", "0", "1", "1", "1", "1"]  # boundary at 1.393

    def test_delta_e_is_theta_independent(self, capsys):
        _, base, _ = run(capsys, self.ARGS)
        _, moved, _ = run(capsys, self.ARGS + ["--theta", "0.7"])
        col = lambda text: [ln.split(",")[6] for ln in text.splitlines()[2:]]
        assert col(base) == col(moved)

    def test_sweep_requires_explicit_case(self, capsys):
        code, _, err = run(capsys, [
            "superpose", "--geometry", "ring", "--ell", "16",
            "--sigma-ell", "8", "--delta-alpha", "1"])
        assert code == 1
        assert "usage error" in err

    def test_sweep_rejects_fractional_winding_ratio(self, capsys):
        code, _, _ = run(capsys, self.ARGS[:7] + ["--sigma-ell", "8.3",
                                                  "--delta-alpha", "1"])
        assert code == 1

    def test_sweep_rejects_saturated_spin(self, capsys):
        code, _, _ = run(capsys, self.ARGS[:7] + ["--sigma-ell", "16",
                                                  "--delta-alpha", "1"])
        assert code == 1

    def test_sweep_needs_delta_alpha(self, capsys):
        code, _, _ = run(capsys, self.ARGS[:9])
        assert code == 1

    def test_sweep_rejects_ell_zero(self, capsys):
        code, _, err = run(capsys, [
            "superpose", "--geometry", "ring", "--case", "i", "--ell", "0",
            "--sigma-ell", "1", "--delta-alpha", "1"])
        assert code == 1
        assert "must stay below ell = 0" in err

    @pytest.mark.parametrize("theta", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("tail", [
        ["--case", "i", "--sigma-ell", "8", "--delta-alpha", "0.5:3:6"],
        ["--alpha-plus", "2", "--alpha-minus", "0.5", "--beta-mag2", "1",
         "--delta-alpha", "1.5"],
    ], ids=["sweep", "point"])
    def test_non_finite_theta_is_a_validation_error(self, capsys, theta, tail):
        code, out, err = run(capsys, ["superpose", "--geometry", "ring", "--ell", "16",
                                      *tail, "--theta", theta])
        assert code == 2
        assert out == ""
        assert "theta must be finite" in err


class TestSuperposeAmplitudes:
    ARGS = ["superpose", "--geometry", "ring", "--ell", "5",
            "--alpha-plus", "2", "--alpha-minus", "0.5", "--beta-mag2", "1",
            "--delta-alpha", "1.5"]

    def test_classifies_and_solves(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "i"
        assert payload["sigma_ell"] == 3.0
        assert payload["m_check"] == -3
        assert payload["e_zero"] == 16.0
        assert payload["epsilon"] == pytest.approx(
            math.exp(-2.25) * 0.8, rel=1e-14)
        assert payload["delta_e"] == pytest.approx(-0.06433105770525595, rel=1e-13)
        assert payload["feasible"] is True

    def test_standard_convention_changes_epsilon(self, capsys):
        _, out, _ = run(capsys, self.ARGS + ["--overlap-convention", "standard"])
        payload = json.loads(out)
        assert payload["epsilon"] == pytest.approx(
            math.exp(-1.125) * 0.8, rel=1e-14)

    def test_amplitude_mode_needs_all_three_flags(self, capsys):
        code, _, err = run(capsys, [
            "superpose", "--geometry", "ring", "--ell", "5",
            "--alpha-plus", "2", "--delta-alpha", "1"])
        assert code == 1
        assert "usage error" in err

    def test_unclassifiable_amplitudes(self, capsys):
        code, _, err = run(capsys, [
            "superpose", "--geometry", "ring", "--ell", "5",
            "--alpha-plus", "2", "--alpha-minus", "0.5", "--beta-mag2", "4",
            "--delta-alpha", "1"])
        assert code == 2
        assert "validation error" in err

    def test_case_override_mismatch(self, capsys):
        code, _, err = run(capsys, self.ARGS + ["--case", "ii"])
        assert code == 2
        assert "validation error" in err

    def test_negative_intensity(self, capsys):
        code, _, _ = run(capsys, self.ARGS[:9] + ["--beta-mag2", "-1",
                                                  "--delta-alpha", "1"])
        assert code == 2


class TestVerifyCommand:
    def test_passes_on_reduced_grids(self, capsys):
        code, out, err = run(capsys, [
            "verify", "--ring-grid", "256", "--radial-grid", "2000"])
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["all_passed"] is True

    def test_zero_tolerance_reports_failure(self, capsys):
        code, out, err = run(capsys, [
            "verify", "--ring-grid", "256", "--radial-grid", "2000",
            "--tolerance-scale", "0"])
        assert code == 3
        assert "verification failed" in err
        assert json.loads(out)["all_passed"] is False

    def test_singular_shift_is_a_verification_error(self, capsys, monkeypatch):
        """A singular inverse-iteration solve exits 3 with the shift named."""
        import scipy.linalg.lapack

        def singular(dl, d, du, b, **kwargs):
            return dl, d, du, b, 1  # ?gtsv's info > 0: a zero pivot, a singular matrix

        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", singular)
        code, out, err = run(capsys, [
            "verify", "--ring-grid", "256", "--radial-grid", "2000"])
        assert code == 3
        assert out == ""
        assert err.startswith("verification error: inverse iteration at shift ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scale", ["-1", "nan", "inf", "-inf"])
    def test_bad_tolerance_scale_is_a_validation_error(self, capsys, scale):
        code, out, err = run(capsys, ["verify", "--tolerance-scale", scale])
        assert code == 2
        assert out == ""
        assert "tolerance_scale must be finite and >= 0" in err


class TestNegativeEll:
    @pytest.mark.parametrize("command", ["spectrum", "gap"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    @pytest.mark.parametrize("grid", [[], ["--sigma-ell", "0.2"]], ids=["default", "explicit"])
    def test_is_a_validation_error(self, capsys, command, geometry, grid):
        code, out, err = run(capsys, [command, "--geometry", geometry, "--ell", "-2", *grid])
        assert code == 2
        assert out == ""
        assert "ell must be >= 0, got -2" in err


class TestSigmaEllBeyondFloatRange:
    """Past |sigma_ell| ~ 1.3e154 the integer m_check^2 has no float."""

    @pytest.mark.parametrize("sigma_ell", ["1e308", "-1e200"])
    @pytest.mark.parametrize("command", ["gap", "spectrum"])
    @pytest.mark.parametrize("geometry", ["ring", "harmonic"])
    def test_is_a_validation_error(self, capsys, geometry, command, sigma_ell):
        code, out, err = run(capsys, [command, "--geometry", geometry, "--ell", "4",
                                      "--sigma-ell", sigma_ell])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("validation error: ell^2 + m^2 exceeds the float range")

    @pytest.mark.parametrize("sigma_ell", ["1.34e154", "-1.34e154"])
    def test_ring_energy_overflow_is_a_validation_error(self, capsys, sigma_ell):
        """m_check^2 still has a float here, but 2 sigma_ell m_check does not."""
        code, out, err = run(capsys, ["gap", "--geometry", "ring", "--ell", "4",
                                      "--sigma-ell", sigma_ell])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("validation error: ell^2 + m^2 + 2 sigma_ell m exceeds the "
                              "float range")


UNBOUNDED_TABLES = [
    ["spectrum", "--geometry", "ring", "--ell", "4", "--sigma-ell", "1.2e154"],
    ["spectrum", "--geometry", "ring", "--ell", "4", "--sigma-ell", "0:1:100000000"],
    ["spectrum", "--geometry", "ring", "--ell", "4", "--sigma-ell", "0",
     "--m-window", "99999999999999999999"],
    # the default trap grid has 8 ell + 1 points, counted before it is built
    ["gap", "--geometry", "harmonic", "--ell", "200000"],
    ["spectrum", "--geometry", "harmonic", "--ell", "100000000"],
]


class TestTableRowCap:
    @pytest.mark.parametrize("argv", UNBOUNDED_TABLES,
                             ids=["window", "count", "m-window", "trap-gap", "trap-spectrum"])
    def test_unbounded_table_is_refused_quickly(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1

    def test_trap_rows_count_three_levels(self):
        """333 335 ring rows fit under the cap; the same window in the trap is 1 000 005 rows."""
        with pytest.raises(UsageError, match="1000000-row table limit"):
            harmonic_spectrum_sweep(4, [0.0], m_window=166667)

    def test_feasibility_grid_is_capped(self):
        with pytest.raises(UsageError, match="delta_alpha grid exceeds"):
            feasibility_sweep("i", "ring", 5000, range(1001), [0.5] * 1000)


# The error surface: every argv below pins its exit code and its whole
# stderr, the way criterion 10 pins stdout.  A nonzero exit prints nothing
# on stdout.
ERROR_SURFACE = [
    ([], 1, "usage error: the following arguments are required: command\n"),
    (["gap", "--geometry", "ring", "--ell", "4", "--sigma-ell", "nan"], 1,
     "usage error: grid 'nan' must be non-empty and finite\n"),
    (["gap", "--geometry", "ring", "--ell", "4", "--sigma-ell", "1.34e154"], 2,
     "validation error: ell^2 + m^2 + 2 sigma_ell m exceeds the float range at ell=4, "
     "sigma_ell=1.34e+154\n"),
    (["gap", "--geometry", "ring", "--ell", "4", "--sigma-ell", "-1.34e154"], 2,
     "validation error: ell^2 + m^2 + 2 sigma_ell m exceeds the float range at ell=4, "
     "sigma_ell=-1.34e+154\n"),
    (["gap", "--geometry", "harmonic", "--ell", "4", "--sigma-ell", "1.34e154"], 2,
     "validation error: ell^2 + m^2 + 2 sigma_ell m exceeds the float range at ell=4, "
     "sigma_ell=1.34e+154\n"),
    (["gap", "--geometry", "ring", "--ell", "4", "--sigma-ell", "1e308"], 2,
     "validation error: ell^2 + m^2 exceeds the float range at ell=4, sigma_ell=1e+308\n"),
    (["spectrum", "--geometry", "harmonic", "--ell", "4", "--sigma-ell", "-1e200"], 2,
     "validation error: ell^2 + m^2 exceeds the float range at ell=4, sigma_ell=-1e+200\n"),
    (UNBOUNDED_TABLES[0], 1,
     "usage error: the sigma_ell grid times the m window exceeds the 1000000-row "
     "table limit\n"),
    (UNBOUNDED_TABLES[1], 1,
     "usage error: range count 100000000 exceeds the 1000000-row table limit\n"),
    (UNBOUNDED_TABLES[2], 1,
     "usage error: the sigma_ell grid times the m window exceeds the 1000000-row "
     "table limit\n"),
    (["spectrum", "--geometry", "ring", "--ell", "-1"], 2,
     "validation error: ell must be >= 0, got -1\n"),
    (["verify", "--ring-grid", "8"], 1, "usage error: n_grid must be >= 64, got 8\n"),
    (["verify", "--radial-grid", "1000"], 1,
     "usage error: n_grid must be >= 2000, got 1000\n"),
    (["superpose", "--geometry", "harmonic", "--case", "ii", "--ell", "3",
      "--sigma-ell", "0", "--delta-alpha", "0.5:1:2"], 0,
     "fluxring: warning: case (ii) with sigma = 0: the small-eps expansion is singular, "
     "exact forms remain valid\n"),
    # a sweep fails where its first failing point fails, row by row: the first
    # row's own checks come before the second column's delta_alpha ...
    (["superpose", "--geometry", "ring", "--case", "ii", "--ell", "4", "--sigma-ell=-1",
      "--delta-alpha=1,-1"], 2,
     "validation error: case (ii) requires sigma > 0, got -0.25\n"),
    # ... and epsilon = 1 in the second column before the third column's
    (["superpose", "--geometry", "ring", "--case", "i", "--ell", "4", "--sigma-ell", "0",
      "--delta-alpha", "1,0,-1"], 2, "validation error: epsilon = 1.0 >= 1\n"),
    # ell^2 has no float: the superposition layer reports it as the spectra do
    (["superpose", "--geometry", "ring", "--case", "i", "--ell", "1" + "0" * 200,
      "--sigma-ell", "0", "--delta-alpha", "1"], 2,
     f"validation error: ell^2 + m^2 exceeds the float range at ell={10**200}, "
     "sigma_ell=0.0\n"),
    # ell itself has no float: a sweep's sigma_ell / ell and a point's sigma * ell
    (["superpose", "--geometry", "ring", "--case", "i", "--ell", "1" + "0" * 400,
      "--sigma-ell", "1", "--delta-alpha", "0.5:1:3"], 2,
     f"validation error: ell^2 + m^2 exceeds the float range at ell={10**400}, "
     "sigma_ell=1.0\n"),
    (["superpose", "--geometry", "ring", "--ell", "1" + "0" * 400, "--alpha-plus", "2",
      "--alpha-minus", "0.5", "--beta-mag2", "1", "--delta-alpha", "1.5"], 2,
     f"validation error: ell^2 + m^2 exceeds the float range at ell={10**400}, "
     "sigma=0.6\n"),
    (UNBOUNDED_TABLES[3], 1,
     "usage error: the default sigma_ell grid of 1600001 points exceeds the 1000000-row "
     "table limit\n"),
    (UNBOUNDED_TABLES[4], 1,
     "usage error: the default sigma_ell grid of 800000001 points exceeds the 1000000-row "
     "table limit\n"),
    # an FD grid is a matrix of n_grid rows, capped like a table before it is built
    (["verify", "--radial-grid", "10000000000"], 1,
     "usage error: n_grid = 10000000000 exceeds the 1000000-row table limit\n"),
    (["verify", "--ring-grid", "100000000000"], 1,
     "usage error: n_grid = 100000000000 exceeds the 1000000-row table limit\n"),
    (["verify", "--radial-grid", "99999999999999999999999"], 1,
     "usage error: n_grid = 99999999999999999999999 exceeds the 1000000-row table limit\n"),
]


@pytest.mark.parametrize("argv, code, stderr", ERROR_SURFACE,
                         ids=[f"err{k}" for k in range(len(ERROR_SURFACE))])
def test_error_surface(capsys, argv, code, stderr):
    got, out, err = run(capsys, argv)
    assert (got, err) == (code, stderr)
    assert (out == "") == (code != 0)


# Argv fuzz: small ell and grids of at most 50 points keep every table small;
# the default trap grid, 8 ell + 1 points, is refused past the row cap
def _mostly(valid, invalid):
    """Each valid value four times as likely as each invalid one."""
    return sampled_from(valid * 4 + invalid)


_VALUES = one_of(
    floats(min_value=-60.0, max_value=60.0).map(repr),
    integers(min_value=-3, max_value=12).map(str),
    sampled_from(["nan", "inf", "-inf", "1e17", "-1e17", "1.34e154", "1e308", "-1e200",
                  "5e-324", "0.5", "-2.5", "x", "", "1+2j"]))
_GRIDS = one_of(
    _VALUES,
    lists(_VALUES, min_size=1, max_size=5).map(",".join),
    tuples(_VALUES, _VALUES, integers(min_value=-1, max_value=50)).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}"),
    sampled_from(["1:2", "1:2:3:4", "0:1:x", ",", "1,,2"]))
_OPTIONS = {
    "--geometry": _mostly(["ring", "harmonic"], ["disk"]),
    "--ell": _mostly([str(ell) for ell in range(-2, 13)],
                     ["200000", "100000000", "1" + "0" * 400, "2.5", "x", ""]),
    "--sigma-ell": _GRIDS,
    "--format": _mostly(["csv", "json"], ["xml"]),
}
_COMMAND_OPTIONS = {
    "spectrum": {"--m-window": _mostly([str(window) for window in range(-2, 61)],
                                       ["99999999999999999999", "2.5"])},
    "gap": {},
    "superpose": {
        "--case": _mostly(["i", "ii", "auto"], ["iii"]),
        "--delta-alpha": _GRIDS,
        "--theta": _VALUES,
        "--overlap-convention": _mostly(["paper", "standard"], ["other"]),
    },
}
_AMPLITUDES = ("--alpha-plus", "--alpha-minus", "--beta-mag2")


@seed(30)
@settings(max_examples=200, deadline=None)
@given(data())
def test_fuzzed_argv_ends_in_an_exit_code(draw):
    """Every argv ends in exit 0-3, never in a traceback, and prints rows only on 0."""
    command = draw.draw(sampled_from(sorted(_COMMAND_OPTIONS)))
    argv = [command]
    for flag, values in {**_OPTIONS, **_COMMAND_OPTIONS[command]}.items():
        if draw.draw(integers(min_value=0, max_value=9)):  # a flag is left out 1 time in 10
            argv.append(f"{flag}={draw.draw(values)}")
    if command == "superpose":  # a sweep, an amplitude point, or a mix of the two
        mode = draw.draw(sampled_from(["sweep", "point", "case-point", "mixed"]))
        if mode != "sweep":
            amplitudes = [draw.draw(_VALUES) for _ in _AMPLITUDES]
            if mode == "case-point":  # |beta|^2 = |a+ a-|: case (i) or (ii) when finite
                try:
                    amplitudes[2] = repr(abs(float(amplitudes[0]) * float(amplitudes[1])))
                except ValueError:
                    pass
            argv += [f"{flag}={value}" for flag, value in zip(_AMPLITUDES, amplitudes)
                     if mode != "mixed" or draw.draw(integers(min_value=0, max_value=1))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    assert (out.getvalue() == "") == (code != 0), argv


class TestWarnings:
    ARGV = ["superpose", "--geometry", "harmonic", "--case", "ii", "--ell", "3",
            "--sigma-ell", "0", "--delta-alpha", "0.5:1:2"]

    def test_library_warning_is_one_stderr_line(self, capsys):
        code, out, err = run(capsys, self.ARGV)
        assert code == 0
        assert err == ("fluxring: warning: case (ii) with sigma = 0: the small-eps "
                       "expansion is singular, exact forms remain valid\n")
        assert out.splitlines()[0] == "# unit: hbar*Omega"
        assert len(out.splitlines()) == 4

    def test_stdout_does_not_depend_on_the_warning(self, capsys):
        """An ignore filter set by the caller still holds inside main."""
        import warnings

        _, shown, _ = run(capsys, self.ARGV)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, silent, err = run(capsys, self.ARGV)
        assert shown == silent
        assert err == ""


class TestHarnessBehavior:
    def test_no_subcommand_is_usage(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_bad_grid_syntax(self, capsys):
        code, _, err = run(capsys, [
            "gap", "--geometry", "ring", "--ell", "4", "--sigma-ell", "1:x:5"])
        assert code == 1
        assert "usage error" in err

    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, [
            "gap", "--geometry", "ring", "--ell", "4",
            "--sigma-ell", "0,1", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# unit: hbar^2/2I\n")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--geometry", "ring", "--ell", "4", "--sigma-ell", "-2:2:41"],
        ["spectrum", "--geometry", "harmonic", "--ell", "4", "--sigma-ell", "-2:2:9"],
        ["gap", "--geometry", "harmonic", "--ell", "6", "--sigma-ell", "-3:3:61"],
        ["superpose", "--geometry", "harmonic", "--case", "ii", "--ell", "16",
         "--sigma-ell", "1,4,8", "--delta-alpha", "0.5:4:8"],
        ["superpose", "--geometry", "ring", "--ell", "5", "--alpha-plus", "2",
         "--alpha-minus", "0.5", "--beta-mag2", "1", "--delta-alpha", "1.5",
         "--theta", "0.3"],
    ])
    def test_reruns_are_byte_identical(self, argv, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestTableTemplates:
    """One %-template per row type writes what json.dumps and the CSV cell rules write."""

    class Edge(NamedTuple):
        x: float
        k: int
        flag: bool
        y: float

    class TwoFlags(NamedTuple):
        a: bool
        x: float
        b: bool

    class NoFlags(NamedTuple):
        x: float
        k: int

    EDGE_ROWS = [
        Edge(-0.0, 2**53 + 1, True, 5e-324),
        Edge(2.2250738585072014e-308 / 3.0, -(2**64), False, 1e308),
        Edge(math.inf, 0, True, -math.inf),
        Edge(math.nan, -1, False, 0.1),
        Edge(-1.7976931348623157e308, 10**30, True, 1.0 / 3.0),
    ]
    FIXED = {"case": "i%d", "geometry": "ring", "ell": 2**60}

    @staticmethod
    def reference_json(schema, rows, fixed):
        return json.dumps({"unit": "hbar^2/2I", "rows": [
            dict(fixed, **dict(zip(schema._fields, row))) for row in rows]}, indent=2) + "\n"

    @staticmethod
    def reference_csv(schema, rows, fixed):
        def cell(value):
            if isinstance(value, bool):
                return "1" if value else "0"
            return str(value) if isinstance(value, (int, str)) else "%.12e" % value

        lines = ["# unit: hbar^2/2I", ",".join([*fixed, *schema._fields])]
        lines += [",".join(map(cell, [*fixed.values(), *row])) for row in rows]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fixed", [{}, FIXED], ids=["plain", "fixed"])
    @pytest.mark.parametrize("schema, rows", [
        (Edge, EDGE_ROWS),
        (Edge, EDGE_ROWS[:2]),  # all finite but the subnormal: no fallback
        (TwoFlags, [(True, 1.5, False), (False, -0.0, True), (True, math.nan, True),
                    (False, 2.0, False)]),
        (NoFlags, [(0.5, 3), (-math.inf, -(2**70))]),
        (Edge, []),
    ], ids=["edges", "finite", "two-flags", "no-flags", "empty"])
    def test_same_text_as_json_dumps_and_the_cell_rules(self, schema, rows, fixed):
        assert _json_table("hbar^2/2I", schema, rows, fixed) == self.reference_json(
            schema, rows, fixed)
        assert _csv_table("hbar^2/2I", schema, rows, fixed) == self.reference_csv(
            schema, rows, fixed)

    @pytest.mark.parametrize("schema, types", [
        (RingSweepRow, (float, int, float, bool, float)),
        (HarmonicSweepRow, (float, int, int, float, float, bool, float)),
        (FeasibilityPoint, (float, float, float, float, float, float, bool)),
        (_GapRow, (float, float)),
    ])
    def test_column_types_are_pinned(self, schema, types):
        """%.12e prints an int unlike str(), so the declared types are pinned."""
        assert tuple(_column_types(schema)) == types

    def test_rows_hold_their_declared_types(self):
        grid = [-2.5, -1.0, 0.0, 0.3, 2]
        tables = [
            (RingSweepRow, ring_spectrum_sweep(4, grid)),
            (HarmonicSweepRow, harmonic_spectrum_sweep(4, grid)),
            (FeasibilityPoint, feasibility_sweep("i", "ring", 16, [1, -3], [0, 0.5, 4])),
            (FeasibilityPoint, feasibility_sweep("ii", "harmonic", 16, [1, 5], [0.5, 4],
                                                 convention="standard")),
            (_GapRow, [(float(s), gap(4, float(s))) for s in grid
                       for gap in (ring_gap, harmonic_gap)]),
        ]
        for schema, rows in tables:
            types = tuple(_column_types(schema))
            assert all(tuple(map(type, row)) == types for row in rows), schema.__name__
