"""Every name the example scripts import still exists.

Nothing else runs ``examples/``, and the scripts simulate for seconds
to minutes, so this executes only each script's top-level ``import`` /
``from ... import`` statements: a deleted or moved public name fails
here instead of in a reader's hands.
"""

import ast
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(script):
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports, f"{script.name} imports nothing"
    module = ast.Module(body=imports, type_ignores=[])
    exec(compile(module, str(script), "exec"), {"__name__": "example"})
