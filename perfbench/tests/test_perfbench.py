"""Tests of the benchmark itself: checker, generator, metric names."""

import json
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def render(terms) -> str:
    """Polynomial text in the form the trace JSON uses."""
    parts = []
    for exps, coeff in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(
            f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
        )
        mag = workloads.fmt(abs(coeff))
        body = mono if mono and abs(coeff) == 1 else (f"{mag}*{mono}" if mono else mag)
        parts.append(("-" if coeff < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def plane_through(p, q, r):
    """Affine polynomial vanishing at three points: n . (x - p)."""
    u = [b - a for a, b in zip(p, q)]
    v = [b - a for a, b in zip(p, r)]
    n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    terms = {(1, 0, 0): n[0], (0, 1, 0): n[1], (0, 0, 1): n[2]}
    terms[(0, 0, 0)] = -sum(a * b for a, b in zip(n, p))
    return {e: c for e, c in terms.items() if c != 0}


def multiply(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def trace_output(dim, n, m, fitted):
    stdout = b"[outcome] BOUND_HOLDS\ntrace written to out.json\n"
    report = {"outcome": "BOUND_HOLDS", "dim": str(dim), "n": str(n), "m": str(m), "fitted": fitted}
    return stdout, json.dumps(report).encode()


def test_grid_checker_accepts_a_right_output_and_rejects_a_wrong_m():
    expect = check.GridExpect(3, 2, orphan=False)
    check.check_job(expect, *trace_output(3, 12, 8, "x1^2 - x1"))
    with pytest.raises(check.CheckError, match="dim, n, m"):
        check.check_job(expect, *trace_output(3, 12, 7, "x1^2 - x1"))


def test_hyperplane_checker_rejects_a_polynomial_that_misses_one_joint():
    ts = (Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(7, 4))
    expect = check.HyperplaneExpect(ts)
    joints = expect.joints()
    assert len(joints) == 4
    three = plane_through(*joints[:3])
    through_all = multiply(three, plane_through(joints[3], joints[0], joints[1]))
    check.check_job(expect, *trace_output(3, 6, 4, render(through_all)))
    with pytest.raises(check.CheckError, match="at joint"):
        check.check_job(expect, *trace_output(3, 6, 4, render(three)))


def test_sweep_checker_rejects_a_wrong_lhs():
    expect = check.SweepExpect(3, 200, 5)
    header = "d,k_or_n,seed,n,m,lhs,rhs,holds,ratio\n"
    row = "3,200,5,200,4,{lhs},768000000,true,0.00141421\n"
    stdout = b"wrote 1 row(s) to out.csv\n"
    check.check_job(expect, stdout, (header + row.format(lhs=16)).encode())
    with pytest.raises(check.CheckError, match="lhs"):
        check.check_job(expect, stdout, (header + row.format(lhs=17)).encode())


def test_polynomial_text_round_trips():
    terms = {(2, 0, 1): Fraction(-3, 2), (0, 1, 0): Fraction(1), (0, 0, 0): Fraction(5)}
    assert check.parse_polynomial(render(terms), 3) == terms
    with pytest.raises(check.CheckError):
        check.parse_polynomial("x1 + x1", 3)


@pytest.mark.parametrize("seed", range(20))
def test_hyperplane_generator_gives_closed_form_joints(seed):
    ts = workloads.hyperplane_parameters(random.Random(seed))
    assert len(set(ts)) == 9 and all(t.denominator <= 4 for t in ts)
    lines, joints = workloads.hyperplane_family(ts)
    assert len(lines) == comb(9, 2) and len({d for _, d in lines}) == comb(9, 2)
    assert len(joints) == comb(9, 3) == len(set(joints))


def test_hyperplane_generator_refuses_a_repeated_parameter():
    ts = (Fraction(0), Fraction(1), Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        workloads.hyperplane_family(ts)


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(30)])
    assert (value, pct) == (19.0, 66)
    assert run.tail([1.0, 2.0]) == (2.0, 100)


def test_end_to_end_names_match_the_benchmark_file():
    samples = [run.Sample(1.0 + i / 10, 0.9, 20000) for i in range(12)]
    metrics = run.end_to_end_metrics([0.5, 0.6, 0.7], samples, ok=12)
    spec = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert [(name, dict(run.END_TO_END)[name]) for name in metrics] == spec


def test_per_layer_names_match_the_benchmark_file(tmp_path):
    import jointlab.cli
    import jointlab.geometry

    original = jointlab.geometry.incident
    config = tmp_path / "g.json"
    workloads.write_config(config, 3, workloads.grid_lines(3, 2, orphan=True))
    tracer = layers.Tracer()
    tracer.begin_pass()
    tracer.install()
    try:
        code = jointlab.cli.main(["trace", str(config), "--json", str(tmp_path / "t.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert jointlab.geometry.incident is original
    summary = tracer.end_pass([1.0])
    assert summary.counts["cli.main.calls"] == 1
    assert summary.counts["pipeline.prune.removed_lines"] == 1
    assert summary.counts["geometry.joints"] == 8
    values = layers.per_layer_metrics([summary], [0.1], 100, 0.05)
    spec = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [(name, dict(layers.PER_LAYER)[name]) for name in values] == spec
    assert values["pipeline.trace.s"] > values["pipeline.trace.self_s"] > 0
