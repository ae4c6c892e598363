"""The package's lazy export table against the modules it resolves names from."""

import importlib
import inspect

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
