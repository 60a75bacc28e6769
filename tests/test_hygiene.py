"""Import hygiene of every `tm2tf` module: `__all__` names exist, no
imported name goes unused unless `__all__` re-exports it, no module
imports another's underscore name, and every `tm2tf` import sits at the
top of its module."""

import ast
import importlib
import importlib.util
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


def test_no_module_imports_a_private_name_of_another():
    """An underscore name is private to its module: no other `tm2tf`
    module imports it."""
    private = [
        f"{_module_name(path)}: {alias.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "tm2tf")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _imports_tm2tf(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "tm2tf"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "tm2tf" for alias in node.names
    )


def test_no_function_imports_a_tm2tf_name():
    """`tm2tf` names are imported at module top, where the import graph
    can be read, never inside a function body."""
    local = {
        f"{_module_name(path)}:{node.lineno}"
        for path in MODULES
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if _imports_tm2tf(node)
    }
    assert sorted(local) == []


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_wrapped_names() -> list[tuple[str, str]]:
    """(module, qualname) of every entry of the wrap list in bench/layers.py,
    the tuple that `install_tracer` loops over."""
    tree = ast.parse((BENCH / "layers.py").read_text())
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.For) and isinstance(n.iter, ast.Tuple)]
    return [
        (ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
        for loop in loops
        for entry in loop.iter.elts
    ]


def _bench_harness_patches() -> list[str]:
    """The names bench/run.py reads with getattr(harness, name) to patch them."""
    tree = ast.parse((BENCH / "run.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.DictComp) and ast.unparse(node.value).startswith(
            "getattr(harness, "
        ):
            names += [name for gen in node.generators for name in ast.literal_eval(gen.iter)]
    return names


def test_bench_name_lookups_resolve():
    """The benchmark wraps tm2tf functions by attribute lookup and patches
    harness attributes, so a moved or renamed function would break a traced
    bench run while every other test passes."""
    wrapped = _bench_wrapped_names()
    assert len(wrapped) > 20
    missing = []
    for module, qualname in wrapped:
        owner = importlib.import_module(module)
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{qualname}")
    assert missing == []
    patched = _bench_harness_patches()
    assert patched == ["run_cot", "run_scot"]
    harness = importlib.import_module("tm2tf.harness")
    assert [name for name in patched if not callable(getattr(harness, name, None))] == []


def _bench_count_reads() -> dict[str, tuple[set[int], dict[int, str]]]:
    """Per count hook of bench/layers.py, the positions it reads as
    `args[i]`, and the keyword it falls back on for a position, as in
    `args[i] if len(args) > i else kwargs["name"]`."""
    tree = ast.parse((BENCH / "layers.py").read_text())
    reads = {}
    for fn in ast.walk(tree):
        names = [a.arg for a in fn.args.args] if isinstance(fn, ast.FunctionDef) else []
        if names[1:3] != ["args", "kwargs"]:
            continue
        positions, keywords = set(), {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "args":
                positions.add(ast.literal_eval(node.slice))
            if isinstance(node, ast.IfExp) and ast.unparse(node.orelse).startswith("kwargs["):
                at = ast.literal_eval(node.body.slice)
                keywords[at] = ast.literal_eval(node.orelse.slice)
        reads[fn.name] = positions, keywords
    return reads


def test_bench_counts_read_arguments_the_wrapped_functions_take():
    """Each count hook that bench/layers.py attaches to a tm2tf function
    reads only positions that function takes, and the keyword it falls back
    on names the parameter at that position; so a changed signature fails
    here, not in a traced bench run."""
    import inspect

    tree = ast.parse((BENCH / "layers.py").read_text())
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.For) and isinstance(n.iter, ast.Tuple)]
    hooks = [
        (ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]), entry.elts[3])
        for loop in loops
        for entry in loop.iter.elts
    ]
    reads = _bench_count_reads()
    checked, wrong = 0, []
    for module, qualname, hook in hooks:
        if not isinstance(hook, ast.Name):  # no count hook
            continue
        fn = importlib.import_module(module)
        for attr in qualname.split("."):
            fn = getattr(fn, attr)
        params = list(inspect.signature(fn).parameters)
        positions, keywords = reads[hook.id]
        checked += 1
        if max(positions, default=-1) >= len(params) or any(
            params[at] != name for at, name in keywords.items()
        ):
            wrong.append(f"{hook.id} on {module}.{qualname}{tuple(params)}")
    assert checked > 10 and wrong == []


ROOT = PACKAGE.parents[1]
SOURCES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _references(tree: ast.Module) -> set[str]:
    """The names a module reads, as names, attributes or strings such as
    the bench's lookups by name, outside `__all__` and outside the
    top-level definition of the same name."""
    names = set()
    for top in tree.body:
        if _is_all(top):
            continue
        own = top.name if isinstance(top, _DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found = [node.id]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found = node.value.split(".")
            else:
                continue
            names.update(name for name in found if name != own)
    return names


def test_every_module_level_definition_is_referenced():
    """No unused gadget or helper: each function and class defined at the
    top of a `tm2tf` module is read somewhere in the sources, tests or
    bench scripts."""
    referenced = set().union(*(_references(ast.parse(p.read_text(), str(p))) for p in SOURCES))
    unused = [
        f"{_module_name(path)}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, _DEFINITIONS) and node.name not in referenced
    ]
    assert unused == []


# Library definitions that only tests read, and why each stays.
TEST_ONLY = {
    "tm2tf.automata.dfa_to_json": "writes the machine spec format that load_dfa reads",
    "tm2tf.automata.tm_to_json": "writes the machine spec format; the bench machine files are "
    "checked against it",
    "tm2tf.compilers.rope.build_rope_position_prefix": "acceptance criterion 11",
    "tm2tf.fpcore.representables_between": "reference enumeration of a format's elements",
    "tm2tf.gadgets.decode_pm1": "reference decoder of the +-1 binary codes",
    "tm2tf.harness.rounding_relative_error_suite": "acceptance criterion 10",
    "tm2tf.harness.perturbation_doubling_suite": "acceptance criterion 10",
    "tm2tf.harness.softmax_hardmax_distance_suite": "acceptance criterion 10",
}


def test_definitions_only_tests_read_are_listed():
    """A top-level definition that no `tm2tf` module or bench script reads
    is library code kept for the tests alone; each needs a reason in
    TEST_ONLY, and a listed one that the program reads again leaves it."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    program = set().union(
        *(_references(tree) for path, tree in trees.items() if ROOT / "tests" not in path.parents)
    )
    test_only = [
        f"{_module_name(path)}.{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, _DEFINITIONS) and node.name not in program
    ]
    assert sorted(test_only) == sorted(TEST_ONLY)


def _imported_from_tm2tf(path: Path, tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) of each name that an import statement of `path`
    takes from a `tm2tf` module, relative imports of the package resolved."""
    package = path.parent.relative_to(PACKAGE.parent).parts if PACKAGE in path.parents else ()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module
        if node.level:
            base = package[: len(package) - node.level + 1]
            module = ".".join([*base, *filter(None, [node.module])])
        if module.split(".")[0] == "tm2tf":
            found += [(module, alias.name) for alias in node.names]
    return found


def test_all_lists_every_public_name_that_others_import():
    """A public name that a `tm2tf` module, a test or a bench script imports
    by name from a `tm2tf` module is in that module's `__all__`, if it
    declares one; a submodule imported from its package is not a name of
    the package."""
    missing = set()
    for path in SOURCES:
        for module, name in _imported_from_tm2tf(path, ast.parse(path.read_text(), str(path))):
            target = importlib.import_module(module)
            if name.startswith("_") or (
                hasattr(target, "__path__") and importlib.util.find_spec(f"{module}.{name}")
            ):
                continue
            exported = getattr(target, "__all__", None)  # None: every public name
            if exported is not None and name not in exported:
                missing.add(f"{module}.{name}")
    assert sorted(missing) == []
