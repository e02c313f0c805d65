import argparse
import csv
import importlib
import json
import logging
import random

import pytest

from jointlab import cli
from jointlab.cli import main
from jointlab.commands.sweep import parse_range
from jointlab.constructions import grid, random_config
from jointlab.errors import ContradictionBugError
from jointlab.exact import format_rational, parse_rational
from jointlab.files import configuration_to_dict

from conftest import affine_grid, nine_hyperplanes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenAndJoints:
    def test_grid_round(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        code, out, _ = run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", path)
        assert code == 0
        assert "12 lines" in out
        code, out, _ = run(capsys, "joints", path)
        assert code == 0
        assert out.splitlines()[0] == "8"
        assert len(out.splitlines()) == 9

    def test_empty_configuration(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dim": 3, "lines": []}))
        code, out, _ = run(capsys, "joints", str(path))
        assert code == 0
        assert out.strip() == "0"

    def test_s_joints_flag(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", path)
        code, out, _ = run(capsys, "joints", path, "--s", "2")
        assert code == 0
        assert out.splitlines()[0] == "8"

    def test_gen_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "gen", "random", "--dim", "3", "--n", "6", "--seed", "9",
                "-o", str(path))
        assert a.read_text() == b.read_text()


class TestBound:
    def test_holds(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", path)
        code, out, _ = run(capsys, "bound", path)
        assert code == 0
        assert "holds" in out

    def test_constant_past_float_range(self, tmp_path, capsys):
        # 2^152 * 151! is too large for a float
        path = tmp_path / "line.json"
        path.write_text(
            json.dumps({"dim": 151, "lines": [{"base": ["0"] * 151, "dir": ["1"] * 151}]})
        )
        code, out, _ = run(capsys, "bound", str(path))
        assert code == 0
        assert "A(151) = 117.837\n" in out

    def test_violation_exits_2(self, tmp_path, capsys, monkeypatch):
        # No real configuration can violate the inequality, so fake the count.
        class FakeJoints:
            def __len__(self):
                return 10**6

            points = ()

        monkeypatch.setattr(
            "jointlab.geometry.find_joints", lambda config: FakeJoints()
        )
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", path)
        code, out, _ = run(capsys, "bound", path)
        assert code == 2
        assert "VIOLATED" in out


class TestFit:
    def test_fit_output(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", path)
        code, out, _ = run(capsys, "fit", path)
        assert code == 0
        assert "joints: 8" in out
        assert "degree bound b: 2" in out
        assert "polynomial: x1^2 - x1" in out

    def test_minimal_flag(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", path)
        code, out, _ = run(capsys, "fit", path, "--minimal")
        assert code == 0
        assert "minimal degree: 2" in out

    def test_no_joints(self, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        run(capsys, "gen", "planar", "--dim", "3", "--n", "5", "-o", path)
        code, out, _ = run(capsys, "fit", path)
        assert code == 0
        assert "nothing to fit" in out


class TestTrace:
    def test_narrative_and_json(self, tmp_path, capsys):
        cfg = str(tmp_path / "g.json")
        out_json = tmp_path / "trace.json"
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", cfg)
        code, out, _ = run(capsys, "trace", cfg, "--json", str(out_json))
        assert code == 0
        assert "[outcome] BOUND_HOLDS" in out
        obj = json.loads(out_json.read_text())
        assert obj["n"] == "12"
        assert obj["outcome"] == "BOUND_HOLDS"

    def test_contradiction_bug_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        def boom(config):
            raise ContradictionBugError("impossible cascade")

        monkeypatch.setattr("jointlab.pipeline.trace", boom)
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", path)
        code, _, err = run(capsys, "trace", path)
        assert code == 3
        assert "internal invariant violation" in err


class TestEmptyConfiguration:
    @pytest.mark.parametrize("command", ["trace", "bound"])
    def test_refused_naming_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dim": 3, "lines": []}))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: the configuration has no lines\n"

    def test_fit_still_accepts_it(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dim": 3, "lines": []}))
        code, out, _ = run(capsys, "fit", str(path))
        assert code == 0 and out == "joints: 0\nnothing to fit\n"


class TestProject:
    def test_project_writes_planar_config(self, tmp_path, capsys):
        cfg = str(tmp_path / "g.json")
        out_path = tmp_path / "proj.json"
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", cfg)
        code, out, _ = run(capsys, "project", cfg, "--s", "2", "--seed", "7",
                           "-o", str(out_path))
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["dim"] == 2
        assert len(obj["lines"]) == 12

    def test_invalid_s(self, tmp_path, capsys):
        cfg = str(tmp_path / "g.json")
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", cfg)
        code, _, err = run(capsys, "project", cfg, "--s", "3", "--seed", "1",
                           "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "error" in err


class TestSweep:
    def test_grid_sweep(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "grid", "--dim", "3", "--k", "2..4",
                           "--csv", str(csv_path))
        assert code == 0
        header, *records = csv.reader(csv_path.read_text().splitlines())
        n_m = [(rec[header.index("n")], rec[header.index("m")]) for rec in records]
        assert n_m == [("12", "8"), ("27", "27"), ("48", "64")]

    @pytest.mark.parametrize(
        "ks, expected",
        [("2,4", ["2", "4"]), ("4,2", ["4", "2"])],
    )
    def test_grid_sweep_runs_exactly_the_listed_k(self, tmp_path, capsys, ks, expected):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "grid", "--dim", "3", "--k", ks,
                           "--csv", str(csv_path))
        assert code == 0
        assert out == f"wrote {len(expected)} row(s) to {csv_path}\n"
        header, *records = csv.reader(csv_path.read_text().splitlines())
        assert [rec[header.index("k_or_n")] for rec in records] == expected

    @pytest.mark.parametrize(
        "argv, text",
        [
            pytest.param(["grid", "--dim", "3", "--k", "6..2"], "6..2", id="grid-6..2"),
            pytest.param(["grid", "--dim", "3", "--k", ","], ",", id="grid-comma"),
            pytest.param(
                ["random", "--dim", "3", "--n", "5..2", "--seeds", "1"], "5..2",
                id="random-n-5..2",
            ),
            pytest.param(
                ["random", "--dim", "3", "--n", "5", "--seeds", ","], ",",
                id="random-seeds-comma",
            ),
        ],
    )
    def test_empty_range_is_refused(self, tmp_path, capsys, argv, text):
        # A sweep of nothing would exit 0 with a header-only CSV.
        csv_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", *argv, "--csv", str(csv_path))
        assert (code, out) == (1, "")
        assert err == f"error: empty range {text!r}: it lists no value\n"
        assert not csv_path.exists()

    def test_random_sweep(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "random", "--dim", "3", "--n", "5,10",
                         "--seeds", "1..3", "--csv", str(csv_path))
        assert code == 0
        assert len(list(csv.reader(csv_path.read_text().splitlines()))) == 1 + 6

    def test_a_range_is_not_listed(self):
        assert parse_range("2..6") == range(2, 7)
        assert parse_range("2,3,6") == [2, 3, 6]
        huge = parse_range("19..1000000000000")
        assert type(huge) is range and len(huge) == 10**12 - 18

    def test_guard_refuses_a_huge_range_at_once(self, tmp_path, capsys):
        # grid(3, 19) has 1,083 lines, so the guard refuses the first k;
        # the range's other values are never made.
        csv_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "grid", "--dim", "3", "--k",
                             "19..1000000000000", "--csv", str(csv_path))
        assert (code, out) == (1, "")
        assert err == (
            "error: 1083 lines mean 1172889 candidate pairs > 1000000; "
            "pass force=True (--force) to run anyway\n"
        )
        assert not csv_path.exists()

    def test_guard_message(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "random", "--dim", "3", "--n", "1001",
                           "--seeds", "1", "--csv", str(tmp_path / "x.csv"))
        assert code == 1
        assert "force" in err

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["grid", "--dim", "3", "--k", "2.."], "2.."),
            (["grid", "--dim", "3", "--k", "a..4"], "a..4"),
            (["random", "--dim", "3", "--n", "5,x", "--seeds", "1"], "5,x"),
            (["random", "--dim", "3", "--n", "5", "--seeds", "1..z"], "1..z"),
            (["random", "--dim", "3", "--n", "5", "--seeds", "1;2"], "1;2"),
        ],
    )
    def test_bad_range_names_the_text(self, tmp_path, capsys, argv, text):
        csv_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", *argv, "--csv", str(csv_path))
        assert code == 1
        assert out == ""
        assert err == (
            f"error: invalid range {text!r}: expected A..B or a comma list "
            "such as 2,3,6\n"
        )
        assert not csv_path.exists()


class TestCurveCommands:
    @pytest.fixture
    def moment_file(self, tmp_path):
        path = tmp_path / "moment.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "curves": [
                        {"coords": [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]},
                        {"coords": [["0", "1"], ["0"], ["0"]]},
                        {"coords": [["0"], ["0", "1"], ["0"]]},
                        {"coords": [["0"], ["0"], ["0", "1"]]},
                    ],
                }
            )
        )
        return str(path)

    def test_restrict(self, moment_file, capsys):
        code, out, _ = run(capsys, "curve", "restrict", moment_file,
                           "--poly", "x2^2 - x1*x3", "--index", "0")
        assert code == 0
        assert out.strip() == "curve 0: 0"

    def test_restrict_all(self, moment_file, capsys):
        code, out, _ = run(capsys, "curve", "restrict", moment_file, "--poly", "x1")
        assert code == 0
        assert out.splitlines()[0] == "curve 0: t"

    def test_stray_sign_exits_1(self, moment_file, capsys):
        code, out, err = run(capsys, "curve", "restrict", moment_file,
                             "--poly", "x1 - - x1")
        assert (code, out) == (1, "")
        assert "'x1 - - x1'" in err

    def test_poly_with_a_leading_sign_in_either_form(self, moment_file, capsys):
        joined = run(capsys, "curve", "restrict", moment_file, "--poly=-x1+2*x3^2")
        separate = run(capsys, "curve", "restrict", moment_file, "--poly", "-x1+2*x3^2")
        assert joined == separate
        code, out, err = separate
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "curve 0: 2*t^6 - t"

    def test_negative_exponent_exits_1(self, moment_file, capsys):
        code, out, err = run(capsys, "curve", "restrict", moment_file, "--poly", "x1^-2")
        assert (code, out) == (1, "")
        assert err == "error: negative exponent in polynomial text 'x1^-2'\n"

    @pytest.mark.parametrize(
        "text,factor",
        [("x1**2", ""), ("x1^2^3", "x1^2^3"), ("2*", ""), ("x1*x", "x")],
    )
    def test_malformed_factor_exits_1(self, moment_file, capsys, text, factor):
        code, out, err = run(capsys, "curve", "restrict", moment_file, "--poly", text)
        assert (code, out) == (1, "")
        assert err == (
            f"error: malformed factor {factor!r} in polynomial text {text!r}\n"
        )

    @pytest.mark.parametrize(
        "argv, index",
        [
            (["restrict", "--poly", "x1", "--index", "4"], 4),
            (["restrict", "--poly", "x1", "--index", "-1"], -1),
            (["joint", "--curves", "1,9,3", "--params", "0,0,0"], 9),
            (["joint", "--curves", "1,-2,3", "--params", "0,0,0"], -2),
        ],
    )
    def test_curve_index_out_of_range_exits_1(self, moment_file, capsys, argv, index):
        code, out, err = run(capsys, "curve", argv[0], moment_file, *argv[1:])
        assert (code, out) == (1, "")
        assert err == f"error: curve index {index} out of range\n"

    def test_joint_verdicts(self, moment_file, capsys):
        code, out, _ = run(capsys, "curve", "joint", moment_file,
                           "--curves", "1,2,3", "--params", "0,0,0")
        assert code == 0
        assert out.strip() == "joint"
        code, out, _ = run(capsys, "curve", "joint", moment_file,
                           "--curves", "1,2", "--params", "0,0")
        assert code == 0
        assert out.strip() == "not a joint"

    @pytest.fixture
    def rational_file(self, tmp_path):
        # Curves 0, 1 and 2 pass (1/2, -3/4, 1/8) at t = 1/2, -3/4 and 2, with
        # tangents (1, -3, 3/4), (0, 1, 2/3) and (-1, 0, -3/4), which span.
        path = tmp_path / "rational.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "curves": [
                        {"coords": [["0", "1"], ["0", "0", "-3"], ["0", "0", "0", "1"]]},
                        {"coords": [["1/2"], ["0", "1"], ["5/8", "2/3"]]},
                        {"coords": [["3/2", "0", "-1/4"], ["-3/4"], ["13/8", "-3/4"]]},
                        {"coords": [["0", "1/2", "0"], ["0"], ["-3/4", "0", "0"]]},
                    ],
                }
            )
        )
        return str(path)

    def test_restrict_rational_coefficients(self, rational_file, capsys):
        code, out, err = run(capsys, "curve", "restrict", rational_file,
                             "--poly", "3/4*x1^3*x2 - 2")
        assert (code, err) == (0, "")
        assert out == (
            "curve 0: -9/4*t^5 - 2\n"
            "curve 1: 3/32*t - 2\n"
            "curve 2: 9/1024*t^6 - 81/512*t^4 + 243/256*t^2 - 499/128\n"
            "curve 3: -2\n"
        )
        code, out, err = run(capsys, "curve", "restrict", rational_file,
                             "--poly", "3/4*x1^3*x2 - 2", "--index", "2")
        assert (code, err) == (0, "")
        assert out == "curve 2: 9/1024*t^6 - 81/512*t^4 + 243/256*t^2 - 499/128\n"
        code, out, err = run(capsys, "curve", "restrict", rational_file,
                             "--poly", "-5/7*x3^2*x1 + 2/3*x2 - x1^2 + 1", "--index", "3")
        assert (code, err) == (0, "")
        assert out == "curve 3: -1/4*t^2 - 45/224*t + 1\n"

    @pytest.mark.parametrize(
        "indices,params,verdict",
        [
            ("0,1,2", "1/2,-3/4,2", "joint"),
            ("2,1,0", "2,-3/4,1/2", "joint"),
            ("0,1,2", "1/2,-6/8,4/2", "joint"),
            ("0,1,2", "1/2,-3/4,3", "not a joint"),
            ("0,1,3", "1/2,-3/4,1", "not a joint"),
        ],
    )
    def test_joint_at_rational_parameters(self, rational_file, capsys,
                                          indices, params, verdict):
        code, out, err = run(capsys, "curve", "joint", rational_file,
                             "--curves", indices, f"--params={params}")
        assert (code, out, err) == (0, f"{verdict}\n", "")

    @pytest.mark.parametrize(
        "params,verdict", [("-3/4,1/2,2", "joint"), ("-1,1/2,2", "not a joint")]
    )
    def test_signed_params_in_either_form(self, rational_file, capsys, params, verdict):
        joined = run(capsys, "curve", "joint", rational_file,
                     "--curves", "1,0,2", f"--params={params}")
        separate = run(capsys, "curve", "joint", rational_file,
                       "--curves", "1,0,2", "--params", params)
        assert separate == joined == (0, f"{verdict}\n", "")


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "joints", "/nonexistent/file.json")
        assert code == 1
        assert "error" in err

    def test_malformed_file_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "lines": [{"base": ["0", "0", "0"],
                                                         "dir": ["0", "0", "0"]}]}))
        code, _, err = run(capsys, "joints", str(path))
        assert code == 1
        assert "lines[0]" in err
        # Line and curve files share one reader, and every command that
        # reads one reports the same error.
        line = {"base": ["0", "0", "0"], "dir": ["1", "0", "0"]}
        curve = {"coords": [["0", "1"], ["0"], ["0"]]}
        line_files = [
            ("[]", "top level: expected an object"),
            ('{"dim": 1, "lines": []}', "dim: expected an integer >= 2"),
            ('{"dim": true, "lines": []}', "dim: expected an integer >= 2"),
            ('{"dim": 3, "lines": {}}', "lines: expected a list"),
            (json.dumps({"dim": 3, "lines": [line, "x"]}), "lines[1]: expected an object"),
            (json.dumps({"dim": 3, "lines": [dict(line, dir=["1", "0"])]}),
             "lines[0].dir: expected a list of 3 rationals"),
            (json.dumps({"dim": 3, "lines": [line, dict(line, dir=["0", "0", "0"])]}),
             "lines[1]: line direction must be nonzero"),
            (json.dumps({"dim": 3, "lines": [dict(line, base=["0", 0, "0"])]}),
             "lines[0].base[1]: rationals must be strings"),
            (json.dumps({"dim": 3, "lines": [dict(line, base=["0", "0", "1/0"])]}),
             "lines[0].base[2]: zero denominator in rational literal '1/0'"),
            ("{not json", "{path}: not valid JSON (Expecting property name "
             "enclosed in double quotes: line 1 column 2 (char 1))"),
            (b"\xff\xfe{}", "{path}: not valid JSON ('utf-8' codec can't decode "
             "byte 0xff in position 0: invalid start byte)"),
        ]
        curve_files = [
            ("[]", "top level: expected an object"),
            ('{"dim": true, "curves": []}', "dim: expected an integer >= 2"),
            ('{"dim": 3, "curves": "x"}', "curves: expected a list"),
            (json.dumps({"dim": 3, "curves": [curve, []]}),
             "curves[1]: expected an object with coords"),
            (json.dumps({"dim": 3, "curves": [{"coeffs": curve["coords"]}]}),
             "curves[0]: expected an object with coords"),
            (json.dumps({"dim": 3, "curves": [{"coords": [["0", "1"]] * 4}]}),
             "curves[0].coords: expected 3 coordinate polynomials"),
            (json.dumps({"dim": 3, "curves": [{"coords": [["2"], ["0", "0"], ["1"]]}]}),
             "curves[0]: curve must have a nonconstant coordinate"),
            (json.dumps({"dim": 3, "curves": [{"coords": [["0", "1/"], ["0"], ["0"]]}]}),
             "curves[0].coords[0][1]: invalid rational literal '1/'"),
            ('{"dim": 3,', "{path}: not valid JSON (Expecting property name "
             "enclosed in double quotes: line 1 column 11 (char 10))"),
            (b"\xff\xfe{}", "{path}: not valid JSON ('utf-8' codec can't decode "
             "byte 0xff in position 0: invalid start byte)"),
        ]
        commands = [(text, message, argv) for text, message in line_files
                    for argv in (["joints"], ["trace"], ["bound"])]
        commands += [(text, message, ["curve", "restrict", "--poly", "x1"])
                     for text, message in curve_files]
        for text, message, argv in commands:
            path.write_bytes(text.encode() if isinstance(text, str) else text)
            code, out, err = run(capsys, *argv, str(path))
            assert (code, out) == (1, ""), (argv, text)
            assert err == f"error: {message.replace('{path}', str(path))}\n", (argv, text)

    def test_numeric_curve_coefficient_names_field(self, tmp_path, capsys):
        path = tmp_path / "curve.json"
        curve = {"coords": [[0, 1], ["0"], ["0"]]}
        path.write_text(json.dumps({"dim": 3, "curves": [curve]}))
        code, out, err = run(capsys, "curve", "restrict", str(path), "--poly", "x1")
        assert code == 1
        assert out == ""
        assert err == "error: curves[0].coords[0][0]: rationals must be strings\n"

    def test_non_ascii_digit_names_field(self, tmp_path, capsys):
        # "\u0663" is ARABIC-INDIC DIGIT THREE; only 0-9 are rational digits.
        path = tmp_path / "arabic.json"
        line = {"base": ["\u0663", "0", "0"], "dir": ["1", "0", "0"]}
        path.write_text(json.dumps({"dim": 3, "lines": [line]}))
        code, out, err = run(capsys, "joints", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: lines[0].base[0]: invalid rational literal '\u0663'\n"

    def test_usage_error(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 1

    def test_bad_gen_parameters(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "grid", "--dim", "2", "--k", "2",
                           "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "dimension" in err

    def test_more_random_lines_than_the_bound_allows(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "random", "--dim", "2", "--n", "17",
                           "--coord-bound", "1", "--seed", "1",
                           "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "found only 16 distinct lines of n = 17" in err


class TestIntegerArguments:
    """Integer options and ranges take ASCII digits with an optional minus
    sign, as rational literals do; int() alone would also take other
    scripts' digits ("٥" is ARABIC-INDIC DIGIT FIVE) and underscores."""

    @pytest.fixture
    def grid_file(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        run(capsys, "gen", "grid", "--dim", "3", "--k", "2", "-o", path)
        return path

    @pytest.mark.parametrize("value", ["٥", "1_0", "+5", "5.0", "", "0x5"])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["gen", "grid", "--dim", "{}", "--k", "2"], "--dim"),
            (["gen", "grid", "--dim", "3", "--k", "{}"], "--k"),
            (["gen", "random", "--dim", "3", "--n", "{}", "--seed", "1"], "--n"),
            (["gen", "random", "--dim", "3", "--n", "5", "--seed", "{}"], "--seed"),
            (
                ["gen", "random", "--dim", "3", "--n", "5", "--seed", "1",
                 "--coord-bound", "{}"],
                "--coord-bound",
            ),
            (["sweep", "grid", "--dim", "{}", "--k", "2"], "--dim"),
        ],
    )
    def test_options_refuse_and_name_the_value(
        self, tmp_path, capsys, argv, option, value
    ):
        out_path = tmp_path / "x.out"
        argv = [a.replace("{}", value) for a in argv]
        flag = "--csv" if argv[0] == "sweep" else "-o"
        code, out, err = run(capsys, *argv, flag, str(out_path))
        assert code == 1
        assert out == ""
        assert f"argument {option}: invalid integer value: {value!r}" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["٢", "1_0"])
    def test_file_commands_refuse_and_name_the_value(
        self, grid_file, tmp_path, capsys, value
    ):
        code, _, err = run(capsys, "joints", grid_file, "--s", value)
        assert code == 1
        assert f"argument --s: invalid integer value: {value!r}" in err
        for option in ("--s", "--seed"):
            argv = {"--s": "2", "--seed": "1", option: value}
            code, _, err = run(capsys, "project", grid_file, "--s", argv["--s"],
                               "--seed", argv["--seed"], "-o", str(tmp_path / "p.json"))
            assert code == 1
            assert f"argument {option}: invalid integer value: {value!r}" in err

    def test_curve_index_and_indices(self, tmp_path, capsys):
        path = tmp_path / "line.json"
        curve = {"coords": [["0", "1"], ["0"], ["0"]]}
        path.write_text(json.dumps({"dim": 3, "curves": [curve]}))
        code, _, err = run(capsys, "curve", "restrict", str(path), "--poly", "x1",
                           "--index", "٠")
        assert code == 1
        assert "argument --index: invalid integer value: '٠'" in err
        code, out, err = run(capsys, "curve", "joint", str(path),
                             "--curves", "0_0", "--params", "0")
        assert code == 1
        assert out == ""
        assert err == "error: invalid integer '0_0'\n"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["--n", "٥", "--seeds", "1"], "٥"),
            (["--n", "5", "--seeds", "1_0"], "1_0"),
            (["--n", "5", "--seeds", "1..٣"], "1..٣"),
            (["--n", "5,+6", "--seeds", "1"], "5,+6"),
        ],
    )
    def test_ranges_refuse_and_name_the_text(self, tmp_path, capsys, argv, text):
        csv_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "random", "--dim", "3", *argv,
                             "--csv", str(csv_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: invalid range {text!r}")
        assert not csv_path.exists()

    def test_ascii_integers_still_accepted(self, tmp_path, capsys):
        csv_path = tmp_path / "x.csv"
        code, _, _ = run(capsys, "sweep", "random", "--dim", " 3", "--n", "5",
                         "--seeds", "-2,-1, 7", "--coord-bound", "010",
                         "--csv", str(csv_path))
        assert code == 0
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert [(r["n"], r["seed"]) for r in rows] == [
            ("5", "-2"), ("5", "-1"), ("5", "7")
        ]


class TestParserParity:
    """main builds one parser in which only the invoked command is filled
    in, and the others are stubs.  What it prints and returns must be what
    a parse by a parser with every command filled in gives: help, usage
    and error text included."""

    INVOCATIONS = [
        [],
        ["-h"],
        ["bogus"],
        ["trace"],
        ["trace", "-h"],
        ["trace", "F", "--bogus"],
        ["sweep"],
        ["sweep", "random"],
        ["sweep", "random", "--dim", "x", "--n", "5", "--seeds", "1", "--csv", "s.csv"],
        ["gen", "grid", "--dim", "3"],
        ["curve", "restrict", "F", "--poly", "-x1"],
    ] + [[command, "-h"] for command in cli._COMMANDS] + [
        ["gen", "grid-orphan", "-h"],
        ["sweep", "random", "-h"],
        ["curve", "joint", "-h"],
        # argparse takes the first argument that names a command, or none
        ["--", "trace"],
        ["-x", "trace"],
        ["bogus", "trace"],
        ["-h", "trace"],
        ["trace", "--", "-h"],
    ]

    @pytest.mark.parametrize(
        "argv", INVOCATIONS, ids=lambda argv: " ".join(argv) or "no-arguments"
    )
    def test_same_output_and_exit_code(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        own = run(capsys, *argv)
        every = {
            name: importlib.import_module(f"jointlab.commands.{name}")
            for name in cli._COMMANDS
        }
        build = cli.build_parser
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda modules: build(every))
            full = run(capsys, *argv)
        assert own == full
        assert own[1] or own[2]
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of every ArgumentParser constructed from now on."""
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return progs

    ROOT_AND_COMMANDS = ["jointlab"] + [f"jointlab {name}" for name in cli._COMMANDS]

    def test_trace_builds_the_root_and_eight_command_parsers(
        self, tmp_path, capsys, built
    ):
        path = tmp_path / "axes.json"
        axes = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        lines = [{"base": ["0", "0", "0"], "dir": v} for v in axes]
        path.write_text(json.dumps({"dim": 3, "lines": lines}))
        assert run(capsys, "trace", str(path))[0] == 0
        assert built == self.ROOT_AND_COMMANDS

    def test_sweep_random_builds_its_two_families_besides(self, tmp_path, capsys, built):
        code, _, _ = run(capsys, "sweep", "random", "--dim", "3", "--n", "5",
                         "--seeds", "1", "--csv", str(tmp_path / "s.csv"))
        assert code == 0
        expected = list(self.ROOT_AND_COMMANDS)
        at = expected.index("jointlab sweep") + 1
        expected[at:at] = ["jointlab sweep grid", "jointlab sweep random"]
        assert built == expected

    def test_help_builds_the_root_and_eight_stubs(self, capsys, built):
        assert run(capsys, "-h")[0] == 0
        assert built == self.ROOT_AND_COMMANDS

    def test_an_error_builds_no_second_parser(self, capsys, built):
        code, out, err = run(capsys, "trace")
        assert (code, out) == (1, "")
        assert "the following arguments are required: file" in err
        assert built == self.ROOT_AND_COMMANDS


def relabelled(lines, rng, how):
    """The line file's entries shuffled, with duplicates, or each line given
    by another base point and a scaled direction: the same configuration."""
    if how == "shuffled":
        out = list(lines)
        rng.shuffle(out)
        return out
    if how == "duplicated":
        return lines + rng.sample(lines, 3)
    out = []
    for line in lines:
        base = [parse_rational(c) for c in line["base"]]
        direction = [parse_rational(c) for c in line["dir"]]
        t = parse_rational(f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}")
        c = parse_rational(f"{rng.choice([-3, -1, 2, 5])}/{rng.randint(1, 3)}")
        out.append(
            {
                "base": [format_rational(b + t * v) for b, v in zip(base, direction)],
                "dir": [format_rational(c * v) for v in direction],
            }
        )
    return out


class TestTraceRelabelling:
    """trace --json depends on the set of lines only: not on their order in
    the file, on duplicates, or on which base point and direction name a
    line."""

    CONFIGS = {
        "grid(3,4)": lambda: grid(3, 4),
        "hyperplanes": nine_hyperplanes,
        "random(d=4)": lambda: random_config(4, 20, 1, 10),
        "affine grid(4,2)": affine_grid,
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_same_stdout_and_json_bytes(self, tmp_path, capsys, caplog, name):
        data = configuration_to_dict(self.CONFIGS[name]())
        out_json = tmp_path / "trace.json"

        def trace(lines):
            path = tmp_path / "lines.json"
            path.write_text(json.dumps({"dim": data["dim"], "lines": lines}))
            code, out, err = run(capsys, "trace", str(path), "--json", str(out_json))
            return code, out, err, out_json.read_bytes()

        expected = trace(data["lines"])
        assert expected[0] == 0
        rng = random.Random(name)
        for how in ("shuffled", "duplicated", "rebased"):
            lines = relabelled(data["lines"], rng, how)
            assert lines != data["lines"], how
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="jointlab.files"):
                assert trace(lines) == expected, how
            warnings = [r.getMessage() for r in caplog.records]
            duplicates = ["deduplicated 3 duplicate line(s)"]
            assert warnings == (duplicates if how == "duplicated" else []), how

    def test_affine_grid_trace_reaches_the_fit(self, tmp_path, capsys):
        # The d = 4 case whose trace runs the prune, the fit and the cascade.
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(configuration_to_dict(affine_grid())))
        out_json = tmp_path / "trace.json"
        assert run(capsys, "trace", str(path), "--json", str(out_json))[0] == 0
        got = json.loads(out_json.read_text())
        assert (got["outcome"], got["m"], got["b"], got["cascade_order"]) == (
            "BOUND_HOLDS", "16", "3", "-1"
        )
        assert got["fitted"] is not None
        assert "fit" in [step["step"] for step in got["narrative"]]
