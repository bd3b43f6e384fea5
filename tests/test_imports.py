"""Every name a cmil module or test file imports is used in that file.

A standard-library stand-in for a linter's unused-import rule. `from __future__`
imports and the package's `__init__.py` (which re-exports) are exempt. The same
AST walks check that `src/cmil` reads every forward-record field, frames binary
data only in `bagio`, and calls every definition it makes.
"""

import ast
from dataclasses import fields
from pathlib import Path

import cmil
from cmil.concept_branch import ConceptAttention, ConceptForward
from cmil.explain import GlobalExplanation
from cmil.image_branch import ImageForward
from cmil.topk import Selection
from cmil.trainer import JointForward, Prediction

MODULES = sorted(p for p in Path(cmil.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    assert {"trainer.py", "bagio.py", "cli.py"} <= {p.name for p in MODULES}
    assert {"test_imports.py", "gradcheck.py"} <= {p.name for p in TEST_FILES}
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES + TEST_FILES}
    assert not {name: lines for name, lines in found.items() if lines}


def test_an_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 2: os"]


# Every field of the forward-pass records, the inference record and the global
# explanation is read as an attribute somewhere in src/, so no record carries a
# value that only tests see.  The check is by name, as the import rule is.
# `scaled` is kept for the gating worked example, which checks it at 1e-12:
# recovering it from the gate by inverting the sigmoid loses digits.
UNREAD_FIELDS_ALLOWED = {"scaled"}


def attributes_read(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_forward_record_field_has_a_reader_in_src():
    read = set().union(*(attributes_read(p.read_text(encoding="utf-8")) for p in MODULES))
    records = (ImageForward, ConceptForward, ConceptAttention, JointForward, Selection,
               Prediction, GlobalExplanation)
    unread = {f"{r.__name__}.{f.name}" for r in records for f in fields(r)
              if f.name not in read and f.name not in UNREAD_FIELDS_ALLOWED}
    assert not unread


def test_an_attribute_that_is_only_written_is_not_read():
    assert attributes_read("a.x = 1\nb = a.y\n") == {"y"}


# Binary framing (headers, checksums) is decided in one module.
FRAMING_IMPORTS = {"struct", "zlib"}


def imported_modules(source: str) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_only_bagio_packs_binary_headers():
    found = {p.name: sorted(imported_modules(p.read_text(encoding="utf-8")) & FRAMING_IMPORTS)
             for p in MODULES}
    assert found["bagio.py"] == ["struct", "zlib"]
    assert not {name: mods for name, mods in found.items() if mods and name != "bagio.py"}


def test_a_framing_import_is_reported():
    assert imported_modules("import struct as s\nfrom zlib import crc32\nfrom . import x\n") == {"struct", "zlib"}


# Every top-level function and class of src/cmil, and every method of a
# top-level class, is read by name somewhere in src/cmil outside its own
# definition, so no path in src/ is reached only from tests.  Dunder methods
# are called by Python itself.  The check is by name, as the rules above are.
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, FUNCTIONS))


def names_read(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
    return out


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = {name: names_read(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        for d in definitions(tree):
            if d.name.startswith("__") and d.name.endswith("__"):
                continue
            outside = (line for reader, lines in reads.items() for read, line in lines
                       if read == d.name and not (reader == name and d.lineno <= line <= d.end_lineno))
            if next(outside, None) is None:
                found.append(f"{name}:{d.lineno}: {d.name}")
    return found


def test_every_definition_in_src_has_a_caller_in_src():
    assert {"autodiff.py", "trainer.py"} <= {p.name for p in MODULES}
    assert not uncalled_definitions({p.name: p.read_text(encoding="utf-8") for p in MODULES})


def test_a_definition_without_a_caller_is_reported():
    source = ("def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n\n\n"
              "class Box:\n    def __len__(self):\n        return used()\n\n    def size(self):\n"
              "        return self.size\n")
    other = "from m import Box\nBox.size\n"
    assert uncalled_definitions({"m.py": source}) == ["m.py:5: recursive", "m.py:9: Box",
                                                      "m.py:13: size"]
    assert uncalled_definitions({"m.py": source, "n.py": other}) == ["m.py:5: recursive"]
