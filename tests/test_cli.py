"""Command-line interface: flags, tables, exit codes, determinism."""

import json
import math

import pytest

from fluxring import ground_m
from fluxring.cli import main

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
        import numpy as np
        import scipy.linalg

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(scipy.linalg, "solve_banded", singular)
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
