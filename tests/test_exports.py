import importlib
import pkgutil

import eblab


def test_every_exported_name_resolves():
    modules = [eblab] + [
        importlib.import_module(f"eblab.{info.name}") for info in pkgutil.iter_modules(eblab.__path__)
    ]
    assert len(modules) > 5
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
