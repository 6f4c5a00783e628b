"""The README's list of public names and its examples stay true."""

import ast
import re
import shlex
from pathlib import Path

from purebetti.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def exported_names():
    """Names that purebetti/__init__.py imports from its modules."""
    init = ROOT / "src" / "purebetti" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_public_names_match_the_package():
    section = README.split("### Public names", 1)[1].split("\n#", 1)[0]
    bullets = "\n".join(line for line in section.splitlines()
                        if line.startswith(("- ", "  ")))
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == exported_names()


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_equivariant_example_is_the_cli_output(capsys):
    command = "$ purebetti equivariant --e 2,3\n"
    block = README.split(command, 1)[1].split("\n\n", 1)[0] + "\n"
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == block
