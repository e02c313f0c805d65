"""src/jointlab keeps only what its commands run: every public module-level
function or class is referenced somewhere in the package besides its own
definition.  __init__.py re-exports nothing, and is skipped all the same."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jointlab"

# name -> why it stays without a caller in the package
ALLOWED = {
    "is_joint": "perfbench/layers.py wraps it by name (ROADMAP item 8)",
    "line_line_intersection": "perfbench/layers.py wraps it by name (ROADMAP item 8)",
    "restrict_to_line": "perfbench/layers.py wraps it by name (ROADMAP item 8)",
    "curve_joint_set": "building block of the curve trace (ROADMAP item 3)",
    "curve_prune": "building block of the curve trace (ROADMAP item 3)",
    "gradient_at_joints_check": "building block of the curve trace (ROADMAP item 3)",
    "line_as_curve": "building block of the curve trace (ROADMAP item 3)",
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
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
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
        for path in PACKAGE.glob("*.py")
        for node in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(ALLOWED) <= defined
