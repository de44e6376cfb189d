"""Import rules of the package, read from its source without importing it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "csafm"
MODULES = sorted(SRC.glob("*.py"))


def package_imports(path):
    """(line, module, names) of each import from the package in path's source:
    a relative import, or an absolute one of csafm."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "csafm"):
            yield node.lineno, "." * node.level + (node.module or ""), [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "csafm":
                    yield node.lineno, a.name, []


def test_modules_found():
    assert {"oracles.py", "model.py", "config.py"} <= {p.name for p in MODULES}


def test_oracles_import_nothing_from_the_package():
    """The oracles check the kernels, so they may share no code with them."""
    assert list(package_imports(SRC / "oracles.py")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_a_sibling(path):
    """A name with a leading underscore belongs to its module; a sibling that
    needs it needs a public name."""
    bad = [(line, module, name) for line, module, names in package_imports(path)
           for name in names if name.startswith("_")]
    assert bad == []
