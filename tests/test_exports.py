"""Every name a ``dreamrand`` module exports through ``__all__`` exists, so
``from dreamrand.<module> import *`` works and a removal leaves no dangling
export."""
import importlib
import pkgutil

import pytest

import dreamrand

MODULES = sorted(info.name for info in pkgutil.iter_modules(dreamrand.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"dreamrand.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    namespace = {}
    exec(f"from dreamrand.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
