"""Every ``eblab`` example in README's CLI block runs and exits 0."""

import pathlib
import shlex

import numpy as np
import pytest

from eblab.cli import main
from eblab.npmle import cell_rng

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples():
    """The ``eblab ...`` commands of the first sh block after '## CLI', continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in commands if line.startswith("eblab ")]


_EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(_EXAMPLES) >= 8


@pytest.mark.parametrize("argv", _EXAMPLES, ids=[f"example-{i}" for i in range(len(_EXAMPLES))])
def test_readme_cli_example_exits_0(tmp_path, capsys, argv):
    data = tmp_path / "observations.txt"
    np.savetxt(data, cell_rng(0, 1).standard_normal(50))
    argv = [str(data) if arg == "observations.txt" else arg for arg in argv]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    else:
        argv = ["--out", str(tmp_path / "run")] + argv
    assert main(argv) == 0, capsys.readouterr().err
