"""Only `autodiff.py` touches the tape's private names.

Every op returns its result through `autodiff.node`, and `Tensor.backward`
alone applies the vector-Jacobian products and writes gradients. A
standard-library check in the style of `test_imports.py`: no other cmil
module may name `_accumulate`, `_vjps`, `_parents` or `_const`.
"""

import ast
from pathlib import Path

import cmil

PRIVATE = {"_accumulate", "_vjps", "_parents", "_const"}
MODULES = sorted(p for p in Path(cmil.__file__).parent.glob("*.py") if p.name != "autodiff.py")


def private_names(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name in PRIVATE]
    return found


def test_no_module_but_autodiff_names_the_tape_internals():
    assert {"topk.py", "concept_branch.py", "trainer.py"} <= {p.name for p in MODULES}
    found = {p.name: private_names(p.read_text(encoding="utf-8")) for p in MODULES}
    assert not {name: lines for name, lines in found.items() if lines}


def test_a_private_name_is_reported():
    source = "from .autodiff import Tensor, _accumulate\nx = Tensor(1.0)\nx._const = True\n"
    assert private_names(source) == ["line 1: _accumulate", "line 3: _const"]
