"""Every name a library module imports is used there or re-exported through its __all__."""

import ast
from pathlib import Path

import pytest

import conical_harvest

MODULES = sorted(Path(conical_harvest.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    """(line, name) of each imported name the module never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import x as y` binds y
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_library_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import_and_honours_all():
    source = ("import math\nimport os.path\nfrom .a import b as c, d\n"
              "__all__ = ['d']\nprint(os.sep)\n")
    assert unused_imports(source) == [(1, "math"), (3, "c")]
