"""The exact decisions run in integers: the modular kernel behind rank and
nullspace (its primes, walk, reconstruction and certificate) and the
pruning fixpoint name no Fraction, annotations included.  Callers scale
rationals to integers before these decisions and make Fractions after."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jointlab"

# module -> its functions that must not name Fraction
INTEGER_ONLY = {
    "exact": (
        "_is_prime",
        "_primes",
        "_walk",
        "_reduce",
        "_back_substitute",
        "_rational_numerators",
        "_in_kernel",
        "_certified_walk",
        "rank",
        "nullspace_vector",
    ),
    "pipeline": ("peel",),
}


def fraction_names(tree: ast.Module, names) -> dict[str, list[int]]:
    """For each top-level function of the tree listed in names, the lines
    where it names Fraction, bare or as an attribute such as
    ``fractions.Fraction``."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found[node.name] = [
                sub.lineno
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and sub.id == "Fraction"
                or isinstance(sub, ast.Attribute) and sub.attr == "Fraction"
            ]
    return found


def listed_functions():
    return {
        module: fraction_names(
            ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), names
        )
        for module, names in INTEGER_ONLY.items()
    }


def test_integer_decisions_name_no_fraction():
    hits = {
        f"{module}.{name}": lines
        for module, found in listed_functions().items()
        for name, lines in found.items()
        if lines
    }
    assert hits == {}


def test_every_listed_function_still_exists():
    found = listed_functions()
    assert {m: sorted(found[m]) for m in found} == {
        m: sorted(names) for m, names in INTEGER_ONLY.items()
    }


def test_guard_catches_fraction_names():
    source = '''
import fractions
from fractions import Fraction

def annotated(x: int) -> Fraction:
    return x

def built(n):
    return Fraction(n, 2)

def dotted(n):
    return fractions.Fraction(n)

def clean(n):
    """Makes no Fraction."""
    return n // 2

def unlisted(n):
    return Fraction(n)
'''
    tree = ast.parse(source)
    assert fraction_names(tree, {"annotated", "built", "dotted", "clean", "gone"}) == {
        "annotated": [5],
        "built": [9],
        "dotted": [12],
        "clean": [],
    }
