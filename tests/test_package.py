"""The package's lazy export table against the modules it resolves names from."""

import ast
import dataclasses
import enum
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import fluxring
from fluxring.ring import _Record

# Every exported callable that has a parameter with a default, with each such
# parameter and its default; a new option shows up here as a one-line diff.
OPTIONS = {
    "FieldConfig": {"theta": 0.0, "ell": 1},
    "epsilon_param": {"convention": "paper"},
    "ring_spectrum_sweep": {"m_window": None},
    "harmonic_spectrum_sweep": {"m_window": None},
    "superpose_ring": {"theta": 0.0},
    "superpose_harmonic": {"theta": 0.0},
    "feasibility_sweep": {"theta": 0.0, "convention": "paper"},
    "feasibility_boundary": {"theta": 0.0, "convention": "paper"},
    "build_block": {"theta": 0.0, "m": None},
    "OracleReport": {"metadata": dict},
    "hermitian_eigs": {"compute_vectors": False},
    "ring_fd_spectrum": {"n_grid": 1024, "k_lowest": 9, "method": "circulant"},
    "radial_fd_spectrum": {"n_grid": 4000, "k_lowest": 4},
    "superposition_block_scan": {"theta": 0.0},
    "run_verification": {"ring_grid": 1024, "radial_grid": 4000, "tolerance_scale": 1.0},
}

# Exports that no module of the package loads, kept on purpose: the paper's
# small-epsilon law, which the acceptance tests check against the exact pencil.
UNCALLED = {"small_eps_delta_e"}


def _options(obj) -> dict:
    """The parameters of obj that have a default, with that default."""
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return {}  # a lookup by value, not a constructor with options
    if isinstance(obj, type) and issubclass(obj, _Record):
        return dict(obj._DEFAULTS)  # its __init__ takes *args, **kwargs
    if dataclasses.is_dataclass(obj):  # a default factory stands for its default
        missing = dataclasses.MISSING
        return {f.name: f.default if f.default_factory is missing else f.default_factory
                for f in dataclasses.fields(obj)
                if f.default is not missing or f.default_factory is not missing}
    return {name: p.default for name, p in inspect.signature(obj).parameters.items()
            if p.default is not p.empty}


@pytest.mark.parametrize("name", sorted(fluxring._EXPORTS))
def test_export_table_matches_the_module(name):
    module = importlib.import_module(f"fluxring.{name}")
    exported = fluxring._EXPORTS[name]
    if hasattr(module, "__all__"):
        assert tuple(module.__all__) == exported
    else:  # errors: every exception and warning class it defines, in order
        assert name == "errors"
        classes = tuple(attr for attr, value in vars(module).items()
                        if inspect.isclass(value) and issubclass(value, BaseException)
                        and value.__module__ == module.__name__)
        assert classes == exported


def test_options_inventory():
    exported = [name for module, names in fluxring._EXPORTS.items() if module != "errors"
                for name in names]
    found = {name: options for name in exported
             if (options := _options(getattr(fluxring, name)))}
    assert found == OPTIONS


def _load_sites() -> dict:
    """Each exported name, errors aside, with the top-level definitions that load
    it as a name or an attribute (None for a load at module level), in the
    package's modules and in the bench and tools scripts that drive it.  The
    package's __init__.py, which only resolves the names, is left out."""
    root = Path(__file__).resolve().parents[1]
    sites = {name: set() for module, names in fluxring._EXPORTS.items()
             if module != "errors" for name in names}
    paths = [*(root / "src" / "fluxring").glob("*.py"), *(root / "bench").glob("*.py"),
             *(root / "tools").glob("*.py")]
    for path in paths:
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)  # a def or class; None at module level
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded = node.attr
                else:
                    continue
                if loaded in sites:
                    sites[loaded].add(owner)
    return sites


def test_every_export_has_a_caller():
    """Every export is loaded outside its own definition and outside the
    definitions of exports that nothing reaches; a name that only its unit tests
    call shows up here instead of growing the public surface."""
    sites = _load_sites()
    uncalled: set = set()
    while True:  # an export loaded only inside uncalled exports is uncalled too
        found = {name for name, owners in sites.items()
                 if not any(owner is None or owner != name and owner not in uncalled
                            for owner in owners)}
        if found == uncalled:
            break
        uncalled = found
    assert uncalled == UNCALLED


def test_bench_tracer_wraps_every_layer_and_restores_it(monkeypatch):
    """bench/spans.py imports each of its LAYERS as fluxring.<layer> and wraps the
    public callables it finds; a layer renamed or removed without it breaks every
    traced bench run, so the tracer is installed here and taken off again."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        wrapped_layers = {name.split(".", 1)[0] for name in tracer.names}
    finally:
        tracer.uninstall()
    assert all(f"fluxring.{layer}" in sys.modules for layer in spans.LAYERS)
    assert wrapped_layers == set(spans.LAYERS)
    assert patches
    assert all(vars(owner)[attr] is original for owner, attr, original in patches)
