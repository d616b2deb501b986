import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_cli_runs_without_loading_scipy(tmp_path):
    # scipy is a test-only dependency: the CLI must not pull it in
    code = (
        "import sys\n"
        "import eblab.cli\n"
        "out = sys.argv[1]\n"
        "assert eblab.cli.main(['--out', out + '/m', 'metrics', '--prior-g', 'two_point:m=1',"
        " '--prior-h', 'point:u=0', '--rhos', '0.1']) == 0\n"
        "assert eblab.cli.main(['--out', out + '/n', 'npmle', '--n-values', '50', '--n-seeds', '1',"
        " '--grid-size', '40']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = pathlib.Path(eblab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[]"
