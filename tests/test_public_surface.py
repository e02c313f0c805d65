"""src/jointlab keeps only what its commands run: every public module-level
function or class, in the package or a subpackage, is referenced somewhere
in them besides its own definition.  The __init__.py files re-export
nothing, and are skipped all the same."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jointlab"

# name -> why it stays without a caller in the package
ALLOWED = {
    "is_joint": "perfbench/layers.py wraps it by name (ROADMAP item 8)",
    "line_line_intersection": "perfbench/layers.py wraps it by name (ROADMAP item 8)",
    "restrict_to_line": "perfbench/layers.py wraps it by name (ROADMAP item 8)",
    "curve_joint_set": "building block of the curve trace (ROADMAP item 3)",
    "curve_prune": "building block of the curve trace (ROADMAP item 3)",
    "gradient_at_joints_check": "building block of the curve trace (ROADMAP item 3)",
}


def public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node


def references(tree: ast.AST, skip: ast.AST | None = None):
    """Names and attribute names used in tree, outside the subtree skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_public_name_has_a_caller_in_the_package():
    trees = {
        str(path.relative_to(PACKAGE)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }
    assert trees, PACKAGE
    unused = []
    for module, tree in trees.items():
        for node in public_definitions(tree):
            used = any(
                node.name in references(other, skip=node if other is tree else None)
                for other in trees.values()
            )
            if not used and node.name not in ALLOWED:
                unused.append(f"{module}: {node.name}")
    assert unused == []


def test_every_allowed_name_still_exists():
    defined = {
        node.name
        for path in PACKAGE.rglob("*.py")
        for node in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(ALLOWED) <= defined


def measured_names() -> list[str]:
    """The keys of ``MEASURED`` in perfbench/layers.py, "module.attr" each:
    the functions the benchmark's traced run wraps, read without importing
    the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MEASURED" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/layers.py defines no MEASURED")


def test_every_name_the_benchmark_wraps_resolves():
    names = measured_names()
    assert names
    missing = []
    for name in names:
        module, attr = name.rsplit(".", 1)
        found = getattr(importlib.import_module(f"jointlab.{module}"), attr, None)
        if not callable(found):
            missing.append(name)
    assert missing == []
