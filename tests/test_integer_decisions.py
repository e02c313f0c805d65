"""The exact decisions run in integers: the lowest terms, equality and
hashing that every value shares, the fraction-free rank, the modular
kernel behind nullspace (its primes, walk, packed lanes, reconstruction
and certificate), the pruning fixpoint, the polynomial's constructor, fit,
derivatives and integer evaluator, the vanishing test on lines and the
cascade and gradient check built on it, and the curve's constructor,
points, tangents, joint test and substitution name no Fraction,
annotations included.  Callers scale rationals to integers before these
decisions and make Fractions after, and on the benchmark inputs the fit,
the vanishing test, the cascade and the verification of their joints as
curve joints build none (the gradient check's count is in
``tests/test_pipeline.py``)."""

import ast
from pathlib import Path

import pytest

from jointlab.constructions import grid
from jointlab.curves import curve_joint_set
from jointlab.geometry import find_joints
from jointlab.pipeline import cascade, prune
from jointlab.polynomial import fit_vanishing, vanishes_on_line

from conftest import curve_joint_groups, nine_hyperplanes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jointlab"

# module -> its functions, and methods as "Class.method", that must not name
# Fraction
INTEGER_ONLY = {
    "exact": (
        "lowest_terms",
        "_Frozen._freeze",
        "_Frozen.__eq__",
        "_Frozen.__hash__",
        "Point.__init__",
        "rank",
        "nullspace_vector",
    ),
    "kernel": (
        "_is_prime",
        "_primes",
        "_walk",
        "_pack",
        "_unpack",
        "_reduce",
        "_back_substitute",
        "_rational_numerators",
        "_combination",
        "_in_kernel",
        "_pivot_block",
        "_lift",
        "_lifted",
        "_certified_walk",
    ),
    "polynomial": (
        "Polynomial.__init__",
        "Polynomial.partial_derivative",
        "_evaluator",
        "vanishes_on_line",
        "vanishes_at",
        "_fit",
    ),
    "pipeline": ("peel", "cascade", "gradient_at_joints_check"),
    "curves": (
        "ParamCurve.__init__",
        "ParamCurve.point_at",
        "_values_at",
        "tangent_at",
        "curve_joint",
        "curve_joint_set",
        "substitute",
    ),
}


def functions(tree: ast.Module):
    """(name, node) for each top-level function of the tree, and for each
    method of a top-level class as "Class.method"."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def fraction_names(tree: ast.Module, names) -> dict[str, list[int]]:
    """For each function of the tree listed in names, the lines where it
    names Fraction, bare or as an attribute such as ``fractions.Fraction``."""
    return {
        name: [
            sub.lineno
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id == "Fraction"
            or isinstance(sub, ast.Attribute) and sub.attr == "Fraction"
        ]
        for name, node in functions(tree)
        if name in names
    }


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

class Form:
    def __init__(self, n: Fraction):
        self.n = n

    def clean(self):
        return self.n
'''
    tree = ast.parse(source)
    listed = {"annotated", "built", "dotted", "clean", "gone", "Form.__init__", "Form.clean"}
    assert fraction_names(tree, listed) == {
        "annotated": [5],
        "built": [9],
        "dotted": [12],
        "clean": [],
        "Form.__init__": [22],
        "Form.clean": [],
    }


@pytest.mark.parametrize(
    "make", [lambda: grid(3, 5), nine_hyperplanes], ids=["grid(3,5)", "hyperplanes"]
)
def test_fit_vanishing_and_cascade_build_no_fractions(make, built):
    """The trace's polynomial steps on the survivors of the prune: the fit,
    the vanishing test on every surviving line and the cascade."""
    config = make()
    survivors = prune(config, find_joints(config))
    lines = survivors.surviving.lines
    built.clear()
    p = fit_vanishing(survivors.survivors.points, config.dim)
    verdicts = [vanishes_on_line(p, line) for line in lines]
    order = cascade(p, lines)
    assert built == []
    # the fit misses some surviving line, so the cascade stops at once
    assert lines and not all(verdicts)
    assert order == -1


@pytest.mark.parametrize(
    "make", [lambda: grid(3, 5), nine_hyperplanes], ids=["grid(3,5)", "hyperplanes"]
)
def test_curve_joint_set_builds_no_fractions(make, built):
    """Every joint verified again as a curve joint: each incident line as a
    degree-1 curve, at its parameter there.  The points, tangents and the
    rank of the tangents run in integers."""
    joints = find_joints(make())
    groups = list(curve_joint_groups(joints).values())
    built.clear()
    curve_joints = curve_joint_set(groups)
    assert built == []
    assert set(curve_joints.incidence) == set(joints.incidence)
