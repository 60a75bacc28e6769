"""Import hygiene of every `tm2tf` module: `__all__` names exist, and no
imported name goes unused unless `__all__` re-exports it."""

import ast
import importlib
from pathlib import Path

import pytest

import tm2tf

PACKAGE = Path(tm2tf.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, anywhere in the module, and its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=_module_name)
def test_module_imports_are_used_and_exports_resolve(path):
    tree = ast.parse(path.read_text(), str(path))
    exported = _declared_all(tree)
    module = importlib.import_module(_module_name(path))
    assert [name for name in exported if not hasattr(module, name)] == []
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in _imported_names(tree).items()
        if name not in used and name not in exported
    }
    assert unused == {}
