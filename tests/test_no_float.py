"""No float enters a decision: src/jointlab and its subpackages have no
float literal, no float() call, no float format and no math function beyond
the integer ones, except at the display-only sites listed below."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jointlab"

INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "prod", "factorial"}

# "module.function" -> why a float may appear there
ALLOWED = {
    "geometry.bound_constant": "exp and log give the decimal A(d) that `bound` "
    "prints next to its exact integer check",
    "harness._make_row": "the 6-significant-digit ratio column of a sweep CSV; "
    "the row's verdict comes from the integers",
    "commands.bound.run": "prints bound_constant's decimal A(d)",
    "pipeline.trace": "writes bound_constant's decimal A(d) into the trace",
}

FLOAT_FORMAT = re.compile(r"[eEfFgG%]$")


def float_sites(tree: ast.Module, module: str):
    """(site, what) for every float construct; site is "module.function",
    or the module alone at the top level."""
    math_names = {
        alias.asname or "math"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []

    def visit(node, site):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            site = f"{site}.{node.name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((site, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                found.append((site, "float() call"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    found.append((site, f"math.{alias.name}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in math_names and node.attr not in INTEGER_MATH:
                found.append((site, f"math.{node.attr}"))
        elif isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            spec = "".join(
                part.value for part in node.format_spec.values if isinstance(part, ast.Constant)
            )
            if FLOAT_FORMAT.search(spec):
                found.append((site, f"float format {spec!r}"))
        for child in ast.iter_child_nodes(node):
            visit(child, site)

    visit(tree, module)
    return found


def module_name(path: Path) -> str:
    """The dotted module name of a file under the package, such as
    "commands.bound"."""
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def package_sites():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files, PACKAGE
    return [
        hit
        for path in files
        for hit in float_sites(
            ast.parse(path.read_text(encoding="utf-8")), module_name(path)
        )
    ]


def test_floats_only_at_display_sites():
    assert [hit for hit in package_sites() if hit[0] not in ALLOWED] == []


def test_every_display_site_still_uses_a_float():
    assert set(ALLOWED) <= {site for site, _ in package_sites()}


def test_guard_catches_float_constructs():
    source = '''
from math import isqrt, sqrt
import math as m

def bound(modulus):
    return int(sqrt(modulus // 2))

def fine(modulus):
    return isqrt(modulus // 2) + m.gcd(4, 6)

def attr(x):
    return m.sqrt(x)

def lit():
    return 0.5

def call(x):
    return float(x)

def shown(r):
    return f"{r:.3f}"
'''
    assert float_sites(ast.parse(source), "mod") == [
        ("mod", "math.sqrt"),
        ("mod.attr", "math.sqrt"),
        ("mod.lit", "literal 0.5"),
        ("mod.call", "float() call"),
        ("mod.shown", "float format '.3f'"),
    ]
