"""The contradiction argument as executable machinery.

Given a configuration, the trace runner replays the whole argument on the
concrete instance as a list of steps: count joints, check the extremal
inequality in exact integers, prune low-incidence lines at a frozen
threshold, bound the degree of a vanishing polynomial, fit one, and drive
the derivative cascade.  Each step is a function of one record of what the
steps before it found; it returns its narrative step and, where the
argument ends there, the outcome.  The interesting output is *which*
hypothesis fails on the instance, recorded step by step in a narrative.
The fit step also checks the fact the argument turns on: a polynomial of
degree D with more than D zeros on a line vanishes on it, so every
surviving line carrying more joints than the fit's degree must be one on
which the fit vanishes.

Every comparison along the way is exact and made in integers: a line
carries fewer than m/(2n) joints when 2n * count < m, the inequality
m <= A * n^(d/(d-1)) is decided in the equivalent form
m^(d-1) <= 2^(d+1) * d! * n^d, and "vanishes identically on a line" is
decided by exact integer values at the base point and, where p is zero
there, at one more point per unit of the restriction's degree bound.
Pruning counts each surviving line's joints once, in :func:`peel`; the
invariant check recounts them, and the trace reports those counts.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    ContradictionBugError,
    InternalInvariantViolation,
    ZeroPolynomialError,
)
from .exact import Point, format_rational
from .geometry import (
    Configuration,
    JointSet,
    Line,
    _rank_once,
    bound_check,
    bound_constant,
    find_joints,
    incident,
)
from .polynomial import (
    Polynomial,
    fit_vanishing,
    min_fit_degree,
    polynomial_to_text,
    vanishes_at,
    vanishes_on_line,
)

BOUND_HOLDS = "BOUND_HOLDS"
ALL_PRUNED = "ALL_PRUNED"
DEGREE_NOT_DOMINATED = "DEGREE_NOT_DOMINATED"
CONTRADICTION_BUG = "CONTRADICTION_BUG"

GRADIENT_ZERO = "GRADIENT_ZERO"
NOT_APPLICABLE = "NOT_APPLICABLE"


class PruneResult(NamedTuple):
    """Fixpoint of removing lines that carry too few surviving joints.

    The threshold m/(2n) is frozen at the start; every surviving line ends up
    with at least that many surviving joints, every surviving joint is still
    a joint among the surviving lines, and fewer than m/2 joints are lost.
    ``counts`` maps each surviving line, in ``sorted_lines()`` order, to its
    number of surviving joints.
    """

    surviving: Configuration
    survivors: JointSet
    removed_lines: tuple[Line, ...]
    removed_points: frozenset[Point]
    threshold: Fraction
    counts: dict[Line, int]


class TraceStep(NamedTuple):
    name: str
    verdict: str
    detail: dict[str, str]


class ProofTrace(NamedTuple):
    outcome: str
    dim: int
    n: int
    m: int
    threshold: Fraction | None
    b: int | None
    per_line_joint_counts: dict[Line, int]
    fitted: Polynomial | None
    cascade_order: int | None
    narrative: tuple[TraceStep, ...]


class GradientCheckReport(NamedTuple):
    """Per-joint status of the orthogonality argument."""

    statuses: dict[Point, str]

    def count(self, status: str) -> int:  # replaces tuple.count
        return sum(1 for s in self.statuses.values() if s == status)


def peel(items: Sequence, joints: JointSet) -> tuple[list, set[Point], JointSet, dict]:
    """Remove items (lines or curves) that carry fewer than m * deg / (2n)
    surviving joints, until none does.

    ``items`` are distinct and in canonical order; each has a ``degree`` (1
    for a line), n is their total degree and m the number of joints.  The
    thresholds are frozen at the start and decided in integers: an item is
    eligible while 2n * count < m * deg.  Among currently eligible items the
    first in canonical order goes, and its surviving joints go with it, so
    surviving joints never reference removed items.  Returns the removed
    items in removal order, the removed points, the surviving joints, and
    each surviving item's number of surviving joints, in canonical order.
    A joint on an item outside ``items`` is the caller's error, a
    ValueError naming the first such joint in point order.

    Counts only fall and thresholds are frozen, so an item once eligible
    stays eligible until removed.  The counts are therefore taken once and
    peeled: a min-heap holds the canonical indices of eligible items, and
    each dying joint decrements the counts of its other items.  Each removal
    loses fewer joints than its threshold, and the thresholds sum to m/2, so
    fewer than m/2 joints are lost; that is checked.
    """
    index = {item: i for i, item in enumerate(items)}
    points_on: list[list[Point]] = [[] for _ in items]
    for p in joints.points:
        for item in joints.lines_through(p):
            i = index.get(item)
            if i is None:
                raise ValueError(
                    f"joint {p} lies on a line or curve not in the configuration"
                )
            points_on[i].append(p)
    two_n = 2 * sum(item.degree for item in items)
    bars = [len(joints) * item.degree for item in items]  # 2n times a threshold
    counts = [len(on) for on in points_on]
    eligible = [i for i, count in enumerate(counts) if two_n * count < bars[i]]
    heapq.heapify(eligible)
    removed: list[int] = []
    removed_points: set[Point] = set()

    while eligible:
        victim = heapq.heappop(eligible)
        removed.append(victim)
        for p in points_on[victim]:
            if p in removed_points:
                continue
            removed_points.add(p)
            for item in joints.lines_through(p):
                i = index[item]
                if i == victim:
                    continue
                counts[i] -= 1
                # push once, when the item just became eligible
                if two_n * counts[i] < bars[i] <= two_n * (counts[i] + 1):
                    heapq.heappush(eligible, i)

    if removed_points and not 2 * len(removed_points) < len(joints):
        raise InternalInvariantViolation(
            f"pruning removed {len(removed_points)} >= m/2 of {len(joints)} joints"
        )
    survivors = JointSet(
        {
            p: joints.lines_through(p)
            for p in joints.points
            if p not in removed_points
        }
    )
    dead = set(removed)
    kept = {item: counts[i] for i, item in enumerate(items) if i not in dead}
    return [items[i] for i in removed], removed_points, survivors, kept


def prune(config: Configuration, joints: JointSet) -> PruneResult:
    """Iteratively remove lines carrying fewer than m/(2n) surviving joints.

    :func:`peel` works the frozen threshold out in integers from the lines'
    degrees, 1 each, fixes the removal order, removes each line's surviving
    joints with it and counts the survivors' joints.  The result keeps the
    threshold as a Fraction, and the invariant check recounts and decides
    again in that arithmetic.
    """
    n = config.n
    if n < 1:
        raise ValueError("cannot prune an empty configuration")
    threshold = Fraction(len(joints), 2 * n)
    removed_lines, removed_points, survivors, counts = peel(
        config.sorted_lines(), joints
    )
    surviving = Configuration(config.dim, counts)
    _check_prune_invariants(surviving, survivors, threshold, counts)
    return PruneResult(
        surviving=surviving,
        survivors=survivors,
        removed_lines=tuple(removed_lines),
        removed_points=frozenset(removed_points),
        threshold=threshold,
        counts=counts,
    )


def _check_prune_invariants(surviving, survivors, threshold, counts):
    """Walk the surviving joints, recounting each surviving line's joints,
    and raise unless the recount equals ``counts`` and meets the threshold."""
    recount = dict.fromkeys(surviving.sorted_lines(), 0)
    # A stored set of surviving lines that all pass through p and whose
    # directions have rank d witnesses that p is a joint among survivors.
    ranks: dict[frozenset, int] = {}
    for p in survivors.points:
        through = survivors.lines_through(p)
        if not through <= surviving.lines:
            raise InternalInvariantViolation(
                f"surviving joint {p} references a removed line"
            )
        for line in through:
            if not incident(line, p):
                raise InternalInvariantViolation(
                    f"surviving joint {p} stores {line!r}, which misses it"
                )
            recount[line] += 1
        if len(through) < surviving.dim or _rank_once(ranks, through) != surviving.dim:
            raise InternalInvariantViolation(
                f"surviving point {p} is no longer a joint among survivors"
            )
    if recount != counts:
        raise InternalInvariantViolation(
            "pruning's joint counts of the surviving lines differ from a recount"
        )
    for line, count in recount.items():
        if count < threshold:
            raise InternalInvariantViolation(
                f"surviving line {line!r} carries {count} < threshold joints"
            )


def cascade(p: Polynomial, lines) -> int:
    """Largest r such that every partial derivative of every order <= r
    vanishes identically on every line; -1 if p itself fails somewhere.
    The lines are checked in the order given; the answer does not depend
    on it.

    Capped at deg p: some derivative of order deg p is a nonzero constant, so
    with at least one line present the check must fail by then; returning the
    cap therefore signals an impossibility the caller should treat as a bug.
    With no lines at all every condition is vacuous and the cap is returned.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cascade needs a nonzero polynomial")
    lines = tuple(lines)
    top = p.degree()
    if not lines:
        return top
    current: dict[tuple[int, ...], Polynomial] = {(0,) * p.dim: p}
    result = -1
    for order in range(top + 1):
        ok = all(
            vanishes_on_line(q, line) for q in current.values() for line in lines
        )
        if not ok:
            return result
        result = order
        nxt: dict[tuple[int, ...], Polynomial] = {}
        for alpha, q in current.items():
            for axis in range(p.dim):
                beta = alpha[:axis] + (alpha[axis] + 1,) + alpha[axis + 1 :]
                if beta not in nxt:
                    nxt[beta] = q.partial_derivative(axis)
        current = nxt
    return result


def gradient_at_joints_check(p: Polynomial, joints: JointSet) -> GradientCheckReport:
    """Check the orthogonality step at each joint.

    Where p vanishes identically on every incident line, the gradient is
    orthogonal to a spanning set of directions and must be exactly zero;
    a nonzero gradient there is an implementation bug, not a data condition.
    Joints where the vanishing hypothesis fails are reported NOT_APPLICABLE.
    The d partial derivatives are derived once per call, and each is
    decided zero at a joint in integers; Fractions are made only for the
    error message.
    """
    if p.is_zero():
        raise ZeroPolynomialError("gradient check needs a nonzero polynomial")
    partials = [p.partial_derivative(axis) for axis in range(p.dim)]
    statuses: dict[Point, str] = {}
    for point in joints.points:
        if all(vanishes_on_line(p, line) for line in joints.lines_through(point)):
            if not all(vanishes_at(q, point) for q in partials):
                raise InternalInvariantViolation(
                    f"gradient {tuple(q.evaluate(point) for q in partials)} "
                    f"nonzero at joint {point} despite vanishing "
                    "on all incident spanning lines"
                )
            statuses[point] = GRADIENT_ZERO
        else:
            statuses[point] = NOT_APPLICABLE
    return GradientCheckReport(statuses)


class _Run:
    """What one trace has found so far.  Each step sets its own fields from
    those of the steps before it; ``b``, ``fitted`` and ``order`` stay None
    when the trace ends before their step."""

    __slots__ = (
        "config", "joints", "check", "pruned", "b",
        "dominated", "fitted", "lines", "order",
    )

    def __init__(self, config: Configuration):
        self.config = config
        self.b = self.fitted = self.order = None


def _joints(run: _Run):
    config = run.config
    run.joints = find_joints(config)
    n, m = config.n, len(run.joints)
    detail = {"n": str(n), "m": str(m), "dim": str(config.dim)}
    return TraceStep("joints", f"{m} joints on {n} lines", detail), None


def _bound(run: _Run):
    d = run.config.dim
    chk = run.check = bound_check(run.config.n, len(run.joints), d)
    detail = {
        "lhs": str(chk.lhs),
        "rhs": str(chk.rhs),
        "constant": f"{bound_constant(d):.6g}",
    }
    return TraceStep("bound", "holds" if chk.holds else "violated", detail), None


def _prune(run: _Run):
    pr = run.pruned = prune(run.config, run.joints)
    verdict = (
        f"removed {len(pr.removed_lines)} line(s) and "
        f"{len(pr.removed_points)} joint(s)"
    )
    detail = {
        "threshold": format_rational(pr.threshold),
        "surviving_lines": str(pr.surviving.n),
        "surviving_joints": str(len(pr.survivors)),
    }
    return TraceStep("prune", verdict, detail), None if pr.survivors else ALL_PRUNED


def _degree(run: _Run):
    b = run.b = min_fit_degree(len(run.pruned.survivors), run.config.dim)
    least = min(run.pruned.counts.values())
    run.dominated = least > b
    verdict = (
        f"every line carries > b joints ({least} > {b})"
        if run.dominated
        else f"some line carries <= b joints ({least} <= {b}): "
        "vanishing on lines is not forced"
    )
    detail = {"b": str(b), "min_line_joints": str(least)}
    return TraceStep("degree", verdict, detail), None


def _fit(run: _Run):
    pr = run.pruned
    fitted = run.fitted = fit_vanishing(pr.survivors.points, run.config.dim)
    top = fitted.degree()
    vanishing, failing = [], []
    for line in pr.surviving.sorted_lines():
        (vanishing if vanishes_on_line(fitted, line) else failing).append(line)
    for line in failing:  # p has a zero at each of the line's surviving joints
        if pr.counts[line] > top:
            raise InternalInvariantViolation(
                f"the degree {top} fit has {pr.counts[line]} zeros on {line!r} "
                "yet does not vanish on it"
            )
    run.lines = failing + vanishing  # a failing line first settles order 0
    verdict = (
        f"degree {top} polynomial vanishes identically on "
        f"{len(vanishing)} of {pr.surviving.n} surviving lines"
    )
    detail = {
        "polynomial": polynomial_to_text(fitted),
        "degree": str(top),
        "vanishing_lines": str(len(vanishing)),
    }
    return TraceStep("fit", verdict, detail), None


def _cascade(run: _Run):
    order = run.order = cascade(run.fitted, run.lines)
    verdict = (
        "the polynomial itself fails to vanish identically on some line"
        if order < 0
        else f"derivatives vanish on all lines through order {order}"
    )
    step = TraceStep("cascade", verdict, {"order": str(order)})
    if order >= run.fitted.degree():
        return step, CONTRADICTION_BUG
    if run.check.holds:
        return step, BOUND_HOLDS
    if not run.dominated:
        return step, DEGREE_NOT_DOMINATED
    # Bound violated yet every surviving line dominated b and the cascade
    # still halted: no consistent reading of the argument allows this.
    raise InternalInvariantViolation(
        "inequality violated but the proof machinery found no failing step"
    )


def trace(config: Configuration) -> ProofTrace:
    """Replay the whole argument on one configuration.

    The steps run in order: joints, bound, prune, degree, fit and cascade.
    Each takes the one record of the run, sets what it found, and returns
    its narrative step and, where the argument ends there, the outcome; the
    trace stops at the first outcome and appends it as the last step.  The
    fit step raises InternalInvariantViolation when a surviving line
    carries more joints than the fit's degree yet the fit does not vanish
    on it, which the argument's core fact rules out.

    The outcome reports how the counterfactual hypothesis fails here:
    ALL_PRUNED when pruning wipes out every joint; BOUND_HOLDS when the
    inequality already holds (the usual case, decided after the cascade so
    that every step runs for demonstration); DEGREE_NOT_DOMINATED when some
    surviving line carries too few joints to force vanishing.  Exhausting
    the cascade instead raises ContradictionBugError, carrying the trace: it
    would mean a nonzero constant vanished identically on a line.
    """
    if config.dim < 3:
        raise ValueError("trace needs dimension >= 3")
    run, steps = _Run(config), []
    for step in (_joints, _bound, _prune, _degree, _fit, _cascade):
        record, outcome = step(run)
        steps.append(record)
        if outcome:
            break
    steps.append(TraceStep("outcome", outcome, {}))
    result = ProofTrace(
        outcome=outcome,
        dim=config.dim,
        n=config.n,
        m=len(run.joints),
        threshold=run.pruned.threshold,
        b=run.b,
        per_line_joint_counts=run.pruned.counts if run.b is not None else {},
        fitted=run.fitted,
        cascade_order=run.order,
        narrative=tuple(steps),
    )
    if outcome == CONTRADICTION_BUG:
        raise ContradictionBugError(
            "every derivative of every order vanished identically on all "
            "surviving lines; a nonzero constant cannot do that",
            trace=result,
        )
    return result


def trace_to_dict(tr: ProofTrace) -> dict:
    """JSON form: integers as decimal strings, polynomial in text form.

    The per-line counts keep their order, that of the surviving lines'
    ``sorted_lines()``, in which :func:`peel` counts them.
    """
    from .files import line_to_dict

    return {
        "outcome": tr.outcome,
        "dim": str(tr.dim),
        "n": str(tr.n),
        "m": str(tr.m),
        "threshold": format_rational(tr.threshold) if tr.threshold is not None else None,
        "b": str(tr.b) if tr.b is not None else None,
        "fitted": polynomial_to_text(tr.fitted) if tr.fitted is not None else None,
        "cascade_order": str(tr.cascade_order)
        if tr.cascade_order is not None
        else None,
        "per_line_joint_counts": [
            {"line": line_to_dict(line), "count": str(count)}
            for line, count in tr.per_line_joint_counts.items()
        ],
        "narrative": [
            {"step": s.name, "verdict": s.verdict, "detail": dict(s.detail)}
            for s in tr.narrative
        ],
    }
