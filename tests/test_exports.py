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


LIBRARY = ("quadrature", "mixtures", "metrics", "hermite", "orthopoly", "families", "npmle", "reports")


def test_root_exports_are_the_library_exports_in_order():
    modules = [importlib.import_module(f"eblab.{name}") for name in LIBRARY]
    expected = ["__version__"] + [name for module in modules for name in module.__all__]
    assert eblab.__all__ == expected
    # a star import lets a later module shadow an earlier one's name
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(eblab, name) is getattr(module, name), f"eblab.{name}"
