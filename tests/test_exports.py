import importlib
import pkgutil

import pytest

import kolmo_rfn

MODULES = sorted(m.name for m in pkgutil.iter_modules(kolmo_rfn.__path__))


def test_modules_are_found():
    # guards the parametrization below against an empty module list
    assert {"experiments", "fourier", "network", "train"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone breaks `import *`
    module = importlib.import_module(f"kolmo_rfn.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
