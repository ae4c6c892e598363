"""Import budget: each request loads only the layers and packages it runs.

A fresh `python -m fluxring` process serves every CLI request, so what a
subcommand imports is part of its latency.  The checks that need an
untouched module table run in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fluxring

SRC = str(Path(fluxring.__file__).resolve().parents[1])


def fresh(code: str) -> dict:
    """Run code in a new interpreter that imports fluxring from this tree; it prints JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("json.dumps(sorted({m.split('.')[0] for m in sys.modules} "
          "& {'numpy', 'scipy'}))")


def cli_run(argv: list[str]) -> str:
    """Code that runs one CLI request with its output discarded, then lists numpy/scipy."""
    return ("import contextlib, io, json, sys\n"
            "from fluxring.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "assert code == 0, code\n"
            f"print({LOADED})\n")


def test_bare_import_loads_neither_numpy_nor_scipy():
    assert fresh(f"import json, sys\nimport fluxring\nprint({LOADED})") == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("geometry", ["ring", "harmonic"])
@pytest.mark.parametrize("command", ["gap", "spectrum"])
def test_gap_and_spectrum_never_load_numpy(command, geometry, fmt):
    """Nor darkstate, superposition, params or dataclasses; json only for JSON."""
    argv = [command, "--geometry", geometry, "--ell", "3", "--format", fmt]
    loaded = fresh("import contextlib, io, sys\n"
                   "from fluxring.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    code = main({argv!r})\n"
                   "assert code == 0, code\n"
                   "loaded = sorted(sys.modules)\n"
                   "import json\n"
                   "print(json.dumps(loaded))\n")
    assert "fluxring.harmonic" in loaded
    banned = {"numpy", "scipy", "fluxring.darkstate", "fluxring.superposition",
              "fluxring.params", "dataclasses", *(["json"] if fmt == "csv" else [])}
    assert banned.isdisjoint(loaded)


def test_radial_function_never_loads_dataclasses():
    assert fresh("import json, sys\n"
                 "import fluxring.harmonic as harmonic\n"
                 "f = harmonic.radial_wavefunction(4, 1.0, 0, -1)\n"
                 "print(json.dumps(['dataclasses' in sys.modules,\n"
                 "                  type(f) is harmonic.RadialFunction]))") == [False, True]


@pytest.mark.parametrize("tail", [
    ["--case", "i", "--sigma-ell", "1:12:12", "--delta-alpha", "0.5:4:36"],
    ["--alpha-plus", "2", "--alpha-minus", "0.5", "--beta-mag2", "1",
     "--delta-alpha", "1.5"],
], ids=["sweep", "point"])
def test_superpose_never_loads_scipy(tail):
    assert fresh(cli_run(["superpose", "--geometry", "ring", "--ell", "16", *tail])) == []


PENCIL_NAMES = {"GenEig2", "gen_eig_2x2", "build_block"}


def test_superpose_loads_neither_numpy_nor_the_oracle():
    """The closed-form engine runs a sweep, an amplitude point and the library
    routes without numpy or dataclasses; the explicit pencil lives in the
    oracle alone."""
    sweep = ["superpose", "--geometry", "ring", "--ell", "16", "--case", "i",
             "--sigma-ell", "1:12:12", "--delta-alpha", "0.5:4:36"]
    point = ["superpose", "--geometry", "harmonic", "--ell", "16", "--alpha-plus", "2",
             "--alpha-minus", "0.5", "--beta-mag2", "1", "--delta-alpha", "1.5"]
    assert fresh("import contextlib, io, json, sys\n"
                 "from fluxring.cli import main\n"
                 "import fluxring.superposition as engine\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    codes = [main({sweep!r}), main({point!r})]\n"
                 "engine.superpose_harmonic('ii', 6, 2.0, 0.3, theta=1.3)\n"
                 "engine.feasibility_boundary('i', 'ring', 16, 8.0)\n"
                 "print(json.dumps([codes, sorted({'numpy', 'scipy', 'fluxring.oracle',\n"
                 "                                 'dataclasses'}\n"
                 "                                & set(sys.modules)),\n"
                 f"                  sorted(set({sorted(PENCIL_NAMES)!r}) & set(vars(engine)))]))"
                 ) == [[0, 0], [], []]


def _imported_names(path: Path) -> set[str]:
    """Every module an import statement in path names, at any depth, with its
    relative imports resolved within the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                assert node.level == 1, "an import that leaves the package"
                base = "fluxring" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_engine_never_imports_numpy_or_the_oracle():
    names = _imported_names(Path(SRC, "fluxring", "superposition.py"))
    assert {"math", "fluxring.darkstate", "fluxring.ring"} <= names  # the walk sees imports
    banned = [name for name in names
              if name.split(".")[0] in ("numpy", "scipy") or name == "fluxring.oracle"
              or name.startswith("fluxring.oracle.")]
    assert banned == []
    assert PENCIL_NAMES <= set(vars(fluxring.oracle))


def test_only_the_oracle_imports_dataclasses():
    """The records are fluxring.ring._Record; only the oracle, which loads numpy
    and scipy anyway, keeps dataclasses for GenEig2 and OracleReport."""
    importers = sorted(path.name for path in Path(SRC, "fluxring").glob("*.py")
                       if any(name.split(".")[0] == "dataclasses"
                              for name in _imported_names(path)))
    assert importers == ["oracle.py"]


def test_every_public_name_and_submodule_resolves_after_a_bare_import():
    resolved = fresh(
        "import json\n"
        "import fluxring\n"
        "listed = all(name in dir(fluxring) for name in fluxring.__all__)\n"
        "missing = [n for n in fluxring.__all__ if getattr(fluxring, n, None) is None]\n"
        "print(json.dumps([listed, missing, fluxring.oracle.__name__,\n"
        "                  fluxring.run_verification.__module__]))")
    assert resolved == [True, [], "fluxring.oracle", "fluxring.oracle"]


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fluxring.no_such_name  # noqa: B018
    assert not hasattr(fluxring, "cli_main")
    with pytest.raises(ImportError):
        from fluxring import no_such_name  # noqa: F401


def test_package_names_follow_their_submodule(monkeypatch):
    """Nothing is cached on the package, so a rebinding shows through and undoes cleanly."""
    original = fluxring.superposition.superpose_ring
    marker = object()
    monkeypatch.setattr(fluxring.superposition, "superpose_ring", marker)
    assert fluxring.superpose_ring is marker
    monkeypatch.undo()
    assert fluxring.superpose_ring is original
    assert "superpose_ring" not in vars(fluxring)


def test_oracle_block_scan_never_loads_scipy():
    """superpose-style callers import the oracle for its block scan alone."""
    assert fresh("import json, sys\n"
                 "import fluxring.oracle\n"
                 "fluxring.oracle.superposition_block_scan('i', 'ring', 4, 1.0, 0.1)\n"
                 f"print({LOADED})") == ["numpy"]


def test_radial_oracle_loads_scipy_linalg_but_not_integrate():
    assert fresh("import json, sys\n"
                 "import fluxring.oracle\n"
                 "fluxring.oracle.radial_fd_spectrum(4, 1.0, -1, n_grid=2000)\n"
                 "print(json.dumps([name in sys.modules\n"
                 "                  for name in ('scipy.linalg', 'scipy.integrate')]))"
                 ) == [True, False]


def test_verification_loads_scipy_linalg_but_not_integrate():
    assert fresh("import json, sys\n"
                 "import fluxring.oracle\n"
                 "assert fluxring.oracle.run_verification()['all_passed']\n"
                 "print(json.dumps([name in sys.modules\n"
                 "                  for name in ('scipy.linalg', 'scipy.integrate')]))"
                 ) == [True, False]


def test_quadrature_norm_never_loads_scipy():
    assert fresh("import json, sys\n"
                 "from fluxring import quadrature_norm, radial_wavefunction\n"
                 "quadrature_norm(radial_wavefunction(4, 1.0, 0, -1))\n"
                 f"print({LOADED})") == ["numpy"]
