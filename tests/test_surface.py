"""Guards for cuts to the package surface.

Removing a function that the benchmark's span tracer wraps breaks only
``perfbench`` runs with ``--trace 1``, an import left behind by a cut, in
the package, its tests or its demos, raises nothing at all, and neither does
a demo that needs scipy, which only the tests install, nor does a private
helper that a cut leaves defined but uncalled; these tests make all four
fail here. A rule restated beside its owner raises nothing either, so one
test checks that the H estimate and the CLI's choice lists stay with theirs.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sarfx"


def _literal(path, names):
    """The literal values bound to ``names`` at the top level of ``path``."""
    values = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                values[target.id] = ast.literal_eval(node.value)
    return [values[name] for name in names]


def test_traced_functions_resolve():
    wrapped, solver = _literal(ROOT / "perfbench" / "spans.py", ("WRAPPED", "SOLVER"))
    assert wrapped and solver
    missing = [f"{module}.{name}" for module, name in [*wrapped, solver]
               if not callable(getattr(importlib.import_module(f"sarfx.{module}"), name, None))]
    assert missing == []


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    scripts = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
    assert len(scripts) > 15
    assert [entry for path in modules + scripts for entry in _unused_imports(path)] == []


def test_no_demo_imports_scipy():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) > 5
    imports = [(path.name, alias.name if isinstance(node, ast.Import) else node.module)
               for path in demos for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [(name, module) for name, module in imports if (module or "").split(".")[0] == "scipy"] == []


def test_each_decision_is_made_by_its_owner():
    # every H of an experiment comes from load_filter, and every CLI choice list from its table
    def estimates(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "estimate_transfer_function"]

    tree = ast.parse((PACKAGE / "experiment.py").read_text())
    load_filter, = (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "load_filter")
    assert len(estimates(tree)) == len(estimates(load_filter)) == 1
    calls = [node for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())) if isinstance(node, ast.Call)]
    choices = [kw.value for call in calls for kw in call.keywords if kw.arg == "choices"]
    assert len(choices) == 4
    assert [ast.unparse(value) for value in choices if isinstance(value, (ast.List, ast.Tuple))
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts)] == []


def _private_definitions(tree):
    """Private (single-underscore) names bound at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_in_the_package_is_used():
    # read as a name, as an attribute or by an import anywhere in the package
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.name, name) for name in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert len(defined) > 50
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []
