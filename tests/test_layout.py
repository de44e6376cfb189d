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


def _is_os(node, attr):
    """node is `os.<attr>`."""
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def environment_names(tree):
    """The string constants read as environment variables in tree: passed to
    os.environ.get or os.getenv, subscripted from os.environ, or tested with
    `in os.environ`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            reads = _is_os(f, "getenv") or (
                isinstance(f, ast.Attribute) and f.attr == "get" and _is_os(f.value, "environ"))
            keys = node.args[:1] if reads else []
        elif isinstance(node, ast.Subscript):
            keys = [node.slice] if _is_os(node.value, "environ") else []
        elif isinstance(node, ast.Compare):
            keys = [node.left for op, right in zip(node.ops, node.comparators)
                    if isinstance(op, (ast.In, ast.NotIn)) and _is_os(right, "environ")]
        else:
            continue
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value


def test_environment_reader_sees_each_form():
    tree = ast.parse('os.environ.get("A", ""); os.getenv("B"); os.environ["C"]\n'
                     '"D" in os.environ; "E" not in os.environ; env.get("F")')
    assert sorted(environment_names(tree)) == ["A", "B", "C", "D", "E"]


def test_no_environment_knob_beyond_the_blas_pins():
    """The package reads no environment variable of its own: the CPUs a run
    may use come from its affinity mask alone. The only names it touches are
    the BLAS thread counts that its training pool pins."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    blas = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_BLAS_VARS"])
    found = {(path.name, name) for path in MODULES
             for name in environment_names(ast.parse(path.read_text(encoding="utf-8")))}
    assert {(f, name) for f, name in found if name not in blas} == set()
