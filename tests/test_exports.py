import importlib
import pkgutil

import pytest

import strathom

MODULES = ["strathom"] + [
    f"strathom.{info.name}" for info in pkgutil.iter_modules(strathom.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
