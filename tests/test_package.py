"""The package's lazy export table against the modules it resolves names from."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import fluxring


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
