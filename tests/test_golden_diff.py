"""tools/golden_diff.py: the cell diff used to re-pin golden outputs."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_diff", ROOT / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def test_reads_the_corpus_of_the_determinism_test():
    from test_acceptance import GOLDEN_OUTPUTS

    assert golden_diff.golden_outputs() == GOLDEN_OUTPUTS


@pytest.mark.parametrize("a, b, distance", [
    (1.0, 1.0, 0),
    (1.0, math.nextafter(1.0, 2.0), 1),
    (1.0, math.nextafter(1.0, 0.0), 1),
    (-0.0, 0.0, 0),
    (-5e-324, 5e-324, 2),
    (1.0, 2.0, 2**52),
    (-1.0, -2.0, 2**52),
])
def test_ulps(a, b, distance):
    assert golden_diff.ulps(a, b) == golden_diff.ulps(b, a) == distance


def test_ulps_of_nan_is_undefined():
    assert golden_diff.ulps(math.nan, 1.0) is None


def test_cells_of_json_and_csv():
    json_text = ('{"checks": [{"name": "gen_eig_residuals", "deviation": 1e-15, '
                 '"passed": true}], "all_passed": true}\n')
    assert golden_diff.cells(json_text) == {
        "checks[gen_eig_residuals].name": "gen_eig_residuals",
        "checks[gen_eig_residuals].deviation": 1e-15,
        "checks[gen_eig_residuals].passed": True,
        "all_passed": True,
    }
    csv_text = "# unit: hbar^2/2I\nsigma_ell,gap\n-6.0e+00,1.0e+00\n-5.9e+00,9.6e-01\n"
    assert golden_diff.cells(csv_text) == {
        "row0.sigma_ell": "-6.0e+00", "row0.gap": "1.0e+00",
        "row1.sigma_ell": "-5.9e+00", "row1.gap": "9.6e-01",
    }


def test_diff_names_each_moved_cell_with_its_ulps():
    old = {"x": 1.0, "flag": True, "gone": 3, "same": "a"}
    new = {"x": math.nextafter(1.0, 2.0), "flag": False, "added": 4, "same": "a"}
    assert golden_diff.diff(old, new) == sorted([
        f"  x: 1.0 -> {math.nextafter(1.0, 2.0)!r} (1 ulps)",
        "  flag: True -> False",
        "  gone: 3 -> (gone)",
        "  added: (new) -> 4",
    ])


def test_same_tree_is_unchanged(capsys):
    assert golden_diff.main([str(ROOT), str(ROOT), "argv10"]) == 0
    out = capsys.readouterr().out
    assert out == f"argv10: unchanged {golden_diff.golden_outputs()[10][1]}\n"
