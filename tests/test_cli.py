"""CLI surface: subcommands, formats, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricext import cli, fileio, pathmetric, tripwire_log
from metricext.cli import main
from metricext.errors import InternalConsistencyError, InvalidParameters, WeightsNotNormalizable
from metricext.fileio import (
    complex_from_dict,
    load_complex,
    metric_from_spec,
    point_from_json,
    points_from_json,
    save_complex,
    slots_from_json,
)
from metricext.generators import cycle_complex, rips_complex


NAN = float("nan")  # json.dumps writes it as NaN, which json.loads reads back


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    assert main(["gen", "-k", "tree", "-p", "2", "-p", "3", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def path3_file(tmp_path):
    path = tmp_path / "p3.json"
    assert main(["gen", "-k", "path", "-p", "3", "-o", str(path)]) == 0
    return str(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.sampled_from(["a", "b", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2),
    max_leaves=12,
)


def _per_simplex_verdict(simplices):
    """The loader's test of maximal_simplices as it ran one generator per simplex: the reference."""
    def is_labels(value):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)

    return isinstance(simplices, list) and all(map(is_labels, simplices))


@given(value=JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_one_pass_label_checks_keep_the_verdicts(value):
    # every JSON-decoded shape: the flattened one-pass checks say what the per-simplex ones said
    for data in (value, [value], [["a"], value], json.loads(json.dumps([value, ["b"]]))):
        assert fileio._is_label_lists(data) == _per_simplex_verdict(data), data
        assert fileio._is_labels(data) == (isinstance(data, list) and all(isinstance(v, str) for v in data))


class TestValidate:
    def test_valid_files(self, tree_file, capsys):
        assert main(["validate", "-c", tree_file, "-m", "word"]) == 0
        out = capsys.readouterr().out
        assert "15 vertices" in out and "C=1" in out

    def test_invalid_complex(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": ["a"], "maximal_simplices": [["a", "b"]]}))
        assert main(["validate", "-c", str(bad)]) == 1

    @pytest.mark.parametrize("data, message", [
        ([1, 2], "must be a JSON object"),
        ({"vertices": "ab", "maximal_simplices": [["a", "b"]]}, "vertices must be a JSON array of strings"),
        ({"vertices": ["a", 1], "maximal_simplices": [["a"]]}, "vertices must be a JSON array of strings"),
        ({"vertices": ["a", "b"], "maximal_simplices": "ab"}, "must be a JSON array of arrays of strings"),
        ({"vertices": ["a", "b"], "maximal_simplices": ["ab"]}, "must be a JSON array of arrays of strings"),
        ({"vertices": ["1", "2"], "maximal_simplices": [[1, 2]]}, "must be a JSON array of arrays of strings"),
        # each offender late in the file: a non-list simplex, a non-string label, a nested list
        ({"vertices": ["a", "b"], "maximal_simplices": [["a"], ["b"], {"b": 1}]}, "must be a JSON array of arrays of strings"),
        ({"vertices": ["a", "b"], "maximal_simplices": [["a"], ["a", "b", None]]}, "must be a JSON array of arrays of strings"),
        ({"vertices": ["a", "b"], "maximal_simplices": [["a", "b"], [["a"]]]}, "must be a JSON array of arrays of strings"),
        ({"vertices": ["a", "b"], "maximal_simplices": [["a"], [True]]}, "must be a JSON array of arrays of strings"),
        ({"vertices": ["a", "b", 2.5], "maximal_simplices": [["a"]]}, "vertices must be a JSON array of strings"),
        ({"vertices": None, "maximal_simplices": [["a"]]}, "vertices must be a JSON array of strings"),
    ])
    def test_malformed_complex_is_validation_error(self, tmp_path, capsys, data, message):
        with pytest.raises(InvalidParameters, match=message):
            complex_from_dict(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "-c", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_bad_metric_matrix(self, path3_file, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({
            "type": "explicit",
            "order": ["p00", "p01", "p02"],
            "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
        }))
        assert main(["validate", "-c", path3_file, "-m", str(bad)]) == 1

    @pytest.mark.parametrize("fields, message", [
        ({"order": 5, "matrix": [[0]]}, "order must be a JSON array of strings"),
        ({"order": ["p00", 1, "p02"]}, "order must be a JSON array of strings"),
        ({"matrix": [[0, 1, 2], [1, 0, 1], "210"]}, "matrix must be a JSON array of arrays of finite numbers"),
        ({"matrix": [[0, 1, 2], [1, 0, 1], [2, "1", 0]]}, "matrix must be a JSON array of arrays of finite numbers"),
        ({"matrix": [[0, 1, 2], [1, 0, 1], [2, True, 0]]}, "matrix must be a JSON array of arrays of finite numbers"),
        ({"matrix": [[0, NAN, 2], [NAN, 0, 1], [2, 1, 0]]}, "matrix must be a JSON array of arrays of finite numbers"),
        ({"C": "2"}, "C must be a finite JSON number, got '2'"),
        ({"C": True}, "C must be a finite JSON number, got True"),
        ({"C": NAN}, "C must be a finite JSON number, got nan"),
        ({"C": math.inf}, "C must be a finite JSON number, got inf"),
        ({"A": None, "B": 1}, "A must be a finite JSON number, got None"),
    ])
    def test_malformed_metric_is_validation_error(self, path3_file, tmp_path, capsys, fields, message):
        spec = {"type": "explicit", "order": ["p00", "p01", "p02"], "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
        spec.update(fields)
        K = load_complex(path3_file)
        with pytest.raises(InvalidParameters, match=re.escape(message)):
            metric_from_spec(K, spec)
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(spec))
        assert main(["validate", "-c", path3_file, "-m", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_well_formed_metric_constants_are_accepted(self, path3_file):
        K = load_complex(path3_file)
        spec = {"type": "explicit", "order": ["p02", "p01", "p00"], "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0.0]]}
        assert metric_from_spec(K, spec).C == 1.0
        assert metric_from_spec(K, {**spec, "C": 2}).C == 2.0

    def test_explicit_metric_on_one_vertex(self, tmp_path, capsys):
        # no vertex pair to bound: C is 1, as for the word metric, and check passes too
        one, m1 = tmp_path / "one.json", tmp_path / "m1.json"
        one.write_text(json.dumps({"vertices": ["a"], "maximal_simplices": [["a"]]}))
        m1.write_text(json.dumps({"type": "explicit", "order": ["a"], "matrix": [[0]]}))
        assert main(["validate", "-c", str(one), "-m", str(m1)]) == 0
        assert "C=1 (minimal 1)" in capsys.readouterr().out
        assert main(["check", "-c", str(one), "-m", str(m1), "--suite", "all"]) == 0

    def test_usage_error_is_64(self):
        with pytest.raises(SystemExit) as info:
            main(["validate"])  # missing -c
        assert info.value.code == 64


class TestGen:
    def test_stdout_json(self, capsys):
        assert main(["gen", "-k", "cycle", "-p", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["vertices"]) == 4

    def test_rips_needs_base(self, capsys):
        assert main(["gen", "-k", "rips", "-p", "1"]) == 1

    @pytest.mark.parametrize("params", [["2.7", "3"], ["2", "3.5"], ["nan", "3"]])
    def test_fractional_count_is_validation_error(self, tmp_path, capsys, params):
        # a count is not truncated: branching 2.7 used to build a binary tree
        out = tmp_path / "tree.json"
        args = ["gen", "-k", "tree", "-o", str(out)]
        for value in params:
            args += ["-p", value]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: parameter ")
        assert not out.exists()
        assert main(["gen", "-k", "random", "-p", "10.5", "-p", "0.3"]) == 1
        assert main(["gen", "-k", "tree", "-p", "2.0", "-p", "3", "-o", str(out)]) == 0

    @pytest.mark.parametrize("args", [
        ["-k", "rips", "-p", "nan", "--base", "cycle6"],
        ["-k", "rips", "-p", "0.5", "--base", "cycle6"],
        ["-k", "random", "-p", "6", "-p", "0.9", "--max-dim", "0"],
        ["-k", "random", "-p", "6", "-p", "0.9", "--max-dim", "-2"],
    ])
    def test_out_of_range_generator_parameter_is_validation_error(self, tmp_path, capsys, args):
        # each once wrote a complex: lone vertices, or a random one past its dimension cap
        base = tmp_path / "c6.json"
        save_complex(cycle_complex(6), str(base))
        out = tmp_path / "out.json"
        args = [str(base) if a == "cycle6" else a for a in args]
        assert main(["gen", *args, "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: need ")
        assert not out.exists()

    def test_deterministic_random(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "-k", "random", "-p", "10", "-p", "0.3", "--seed", "5", "-o", str(a)])
        main(["gen", "-k", "random", "-p", "10", "-p", "0.3", "--seed", "5", "-o", str(b)])
        assert a.read_text() == b.read_text()


class TestDist:
    def test_extended_with_branch(self, path3_file, capsys):
        code = main([
            "dist", "-c", path3_file, "-m", "word", "--kind", "extended",
            "-x", '{"p00": 0.5, "p01": 0.5}', "-y", '{"p02": 1}', "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == pytest.approx(1.5)
        assert data["branch"] == "bilinear"

    def test_l1path_with_witness(self, path3_file, capsys):
        code = main([
            "dist", "-c", path3_file, "--kind", "l1path",
            "-x", '{"p00": 0.5, "p01": 0.5}', "-y", '{"p01": 0.5, "p02": 0.5}', "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == pytest.approx(1.0)
        assert len(data["witness"]["points"]) == 3

    def test_extended_witness_is_not_solved_again(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "rips.json"
        save_complex(rips_complex(cycle_complex(8), 2), str(path))

        def second_solve(*args):
            raise AssertionError("the path was solved a second time")

        monkeypatch.setattr(cli, "l1_path_distance", second_solve)
        code = main([
            "dist", "-c", str(path), "-m", "word", "--kind", "extended", "--json",
            "-x", '{"c00": 0.0625, "c01": 0.46875, "c02": 0.46875}',
            "-y", '{"c01": 0.46875, "c02": 0.46875, "c03": 0.0625}',
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["value"], data["branch"]) == (0.375, "l1path")
        assert len(data["witness"]["points"]) == 3

    @pytest.mark.parametrize("kind, x, y, value", [
        ("vertex", '{"t07":1}', '{"t14":1}', 6.0),
        ("bilinear", '{"t03":0.5,"t07":0.5}', '{"t03":0.25,"t08":0.75}', 1.25),
        # positive on the diagonal off the vertices, where the extension reads 0
        ("bilinear", '{"t03":0.5,"t07":0.5}', '{"t03":0.5,"t07":0.5}', 0.5),
    ])
    def test_vertex_and_bilinear_kinds_keep_their_pinned_values(self, tree_file, capsys, kind, x, y, value):
        capsys.readouterr()
        assert main(["dist", "-c", tree_file, "--kind", kind, "-x", x, "-y", y, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"kind": kind, "value": value}

    def test_vertex_kind_rejects_interior(self, path3_file):
        code = main([
            "dist", "-c", path3_file, "-m", "word", "--kind", "vertex",
            "-x", '{"p00": 0.5, "p01": 0.5}', "-y", '{"p02": 1}',
        ])
        assert code == 1

    def test_non_finite_weight_is_validation_error(self, path3_file, capsys):
        K = load_complex(path3_file)
        with pytest.raises(WeightsNotNormalizable):
            point_from_json(K, '{"p00": NaN, "p01": 1}')
        code = main([
            "dist", "-c", path3_file, "--kind", "l1path",
            "-x", '{"p00": NaN, "p01": 1}', "-y", '{"p02": 1}',
        ])
        assert code == 1
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["true", "false", "null", '"1"'])
    def test_non_number_weight_is_validation_error(self, path3_file, weight):
        point = f'{{"p00": {weight}, "p01": 1}}'
        with pytest.raises(InvalidParameters, match="must be a JSON number"):
            point_from_json(load_complex(path3_file), point)
        code = main(["dist", "-c", path3_file, "--kind", "l1path", "-x", point, "-y", '{"p02": 1}'])
        assert code == 1

    def test_invalid_point_is_validation_error(self, path3_file):
        code = main([
            "dist", "-c", path3_file, "--kind", "l1path",
            "-x", '{"p00": 0.5, "p02": 0.5}', "-y", '{"p02": 1}',
        ])
        assert code == 1


class TestDDandGP:
    def test_dd_extended(self, path3_file, capsys):
        code = main([
            "dd", "-c", path3_file, "-m", "word",
            "--points", '[{"p00":1},{"p01":1},{"p02":1},{"p00":1}]', "--json",
        ])
        assert code == 0
        json.loads(capsys.readouterr().out)

    def test_gp_vertex_matches_extended(self, path3_file, capsys):
        args = ["-c", path3_file, "-m", "word",
                "--points", '[{"p00":1},{"p02":1},{"p01":1}]', "--json"]
        assert main(["gp", *args, "--kind", "vertex"]) == 0
        v1 = json.loads(capsys.readouterr().out)["value"]
        assert main(["gp", *args]) == 0
        v2 = json.loads(capsys.readouterr().out)["value"]
        assert v1 == v2 == pytest.approx(0.0)

    # Every --kind of dd and gp on fixed points, pinned bit for bit: the one formula of each
    # must give every metric's value exactly, with the float operations in the same order.
    TREE_NEAR = '[{"t03":0.5,"t07":0.5},{"t03":0.25,"t07":0.75},{"t03":0.625,"t07":0.375},{"t13":1}]'
    RIPS_NEAR = ('[{"c00":0.25,"c01":0.375,"c02":0.375},{"c01":0.375,"c02":0.375,"c03":0.25},'
                 '{"c04":0.5,"c05":0.5},{"c02":0.2,"c03":0.8}]')

    @pytest.mark.parametrize("command, complex_, kind, points, value", [
        ("dd", "tree", "vertex", '[{"t07":1},{"t13":1},{"t08":1},{"t14":1}]', -4.0),
        ("dd", "tree", "bilinear", '[{"t07":1},{"t13":1},{"t08":1},{"t14":1}]', -4.0),
        ("dd", "tree", "bilinear", TREE_NEAR, 0.09375),
        ("dd", "tree", "extended", TREE_NEAR, 0.03125),
        ("dd", "rips", "vertex", '[{"c00":1},{"c03":1},{"c01":1},{"c05":1}]', -0.5),
        ("dd", "rips", "bilinear", RIPS_NEAR, -0.07499999999999996),
        ("dd", "rips", "extended", RIPS_NEAR, -0.07499999999999996),
        ("gp", "tree", "vertex", '[{"t07":1},{"t10":1},{"t13":1}]', 4.0),
        ("gp", "tree", "extended", '[{"t03":0.5,"t07":0.5},{"t03":0.25,"t07":0.75},{"t10":0.5,"t04":0.5}]', 2.875),
        ("gp", "rips", "extended", '[{"c00":0.25,"c01":0.375,"c02":0.375},{"c04":0.5,"c05":0.5},{"c02":0.2,"c03":0.8}]',
         0.20625000000000004),
    ])
    def test_every_kind_keeps_its_pinned_value(
        self, tree_file, tmp_path, capsys, command, complex_, kind, points, value
    ):
        if complex_ == "rips":
            cycle, complex_ = tmp_path / "cycle.json", str(tmp_path / "rips.json")
            assert main(["gen", "-k", "cycle", "-p", "8", "-o", str(cycle)]) == 0
            assert main(["gen", "-k", "rips", "-p", "2", "--base", str(cycle), "-o", complex_]) == 0
        else:
            complex_ = tree_file
        capsys.readouterr()
        assert main([command, "-c", complex_, "--kind", kind, "--points", points, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"kind": kind, "value": value}


    @pytest.mark.parametrize("command, count", [("dd", 4), ("gp", 3)])
    @pytest.mark.parametrize("points", ["5", "null", '"ab"', '[{"p00":1},{"p01":1}]'])
    def test_points_not_an_array_of_the_count_is_validation_error(
        self, path3_file, capsys, command, count, points
    ):
        message = f"points must be a JSON array of {count} point objects, got "
        with pytest.raises(InvalidParameters, match=re.escape(message)):
            points_from_json(load_complex(path3_file), points, count)
        assert main([command, "-c", path3_file, "--points", points]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestProbeCommands:
    def test_divergence(self, tree_file, capsys):
        # find a root-to-leaf ray by labels: t00 -> t01 -> t03 -> t07
        slots = json.dumps([
            {"ray": ["t00", "t01", "t03", "t07"]},
            {"point": {"t00": 1}},
            {"point": {"t01": 1}},
            {"ray": ["t00", "t01", "t03", "t07"]},
        ])
        code = main(["probe", "divergence", "-c", tree_file, "-m", "word",
                     "--slots", slots, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "+inf-divergent"

    def test_convergence_needs_slots(self, tree_file):
        assert main(["probe", "convergence", "-c", tree_file]) == 1

    @pytest.mark.parametrize("slots, message", [
        ([1, 2, 3, 4], "must be a JSON object"),
        ([{"ray": 5}, {"point": {"t00": 1}}, {"point": {"t01": 1}}, {"point": {"t02": 1}}],
         "must be a JSON array of vertex names"),
        ([{"ray": "t00"}, {"point": {"t00": 1}}, {"point": {"t01": 1}}, {"point": {"t02": 1}}],
         "must be a JSON array of vertex names"),
        ([{"ray": ["t00", 1]}, {"point": {"t00": 1}}, {"point": {"t01": 1}}, {"point": {"t02": 1}}],
         "must be a JSON array of vertex names"),
    ])
    def test_malformed_slot_is_validation_error(self, tree_file, capsys, slots, message):
        with pytest.raises(InvalidParameters, match=message):
            slots_from_json(load_complex(tree_file), json.dumps(slots))
        code = main(["probe", "divergence", "-c", tree_file, "--slots", json.dumps(slots)])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("ray, extra", [
        (["t00"], []),  # a depth-0 ray leaves no default depth from 1 on
        (["t00", "t01"], ["--depth-max", "-1"]),
    ])
    def test_no_depth_is_validation_error(self, tree_file, capsys, ray, extra):
        slots = json.dumps([{"ray": ray}, {"point": {"t00": 1}}, {"point": {"t02": 1}}, {"ray": ray}])
        code = main(["probe", "divergence", "-c", tree_file, "--slots", slots, *extra])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: need at least one depth")

    def test_convergence_probe(self, tree_file, capsys):
        slots = json.dumps([
            {"ray": ["t00", "t02", "t06", "t14"]},
            {"point": {"t01": 1}},
            {"point": {"t03": 1}},
            {"point": {"t04": 1}},
        ])
        code = main(["probe", "convergence", "-c", tree_file, "-m", "word",
                     "--slots", slots, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "converging"

    def test_decay(self, tree_file, capsys):
        code = main(["probe", "decay", "-c", tree_file, "-m", "word",
                     "--samples", "10", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] in ("decay-consistent", "inconclusive")

    @pytest.mark.parametrize("args, name", [
        (["decay", "--lambda-grid", "nan"], "lambda_grid"),
        (["decay", "--lambda-grid", "0.5,inf"], "lambda_grid"),
        (["decay", "--threshold", "nan"], "threshold"),
        (["decay", "--threshold=-inf"], "threshold"),
        (["convergence", "--tol", "nan"], "tol"),
        (["convergence", "--tol", "inf"], "tol"),
    ])
    def test_non_finite_parameter_is_validation_error(self, tree_file, capsys, args, name):
        # accepted, a NaN grid would read "violated" and a NaN threshold would keep every quadruple
        slots = json.dumps([
            {"ray": ["t00", "t02", "t06", "t14"]},
            {"point": {"t01": 1}},
            {"point": {"t03": 1}},
            {"point": {"t04": 1}},
        ])
        mode, *extra = args
        if mode == "convergence":
            extra += ["--slots", slots]
        assert main(["probe", mode, "-c", tree_file, "--samples", "10", *extra]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be a finite number")

    @pytest.mark.parametrize("args, message", [
        (["decay", "--lambda-grid=-0.5"], "lambda_grid entries must lie in (0, 1), got -0.5"),
        (["decay", "--lambda-grid=0.5,2"], "lambda_grid entries must lie in (0, 1), got 2.0"),
        (["decay", "--lambda-grid=1"], "lambda_grid entries must lie in (0, 1), got 1.0"),
        (["convergence", "--tol=-1"], "tol must be positive, got -1.0"),
        (["convergence", "--tol=0"], "tol must be positive, got 0.0"),
    ])
    def test_parameter_out_of_range_is_validation_error(self, tree_file, capsys, args, message):
        # accepted, --lambda-grid=-0.5 read "violated", 2 read "decay-consistent",
        # and --tol=-1 read "inconclusive" on every table
        slots = json.dumps([
            {"ray": ["t00", "t02", "t06", "t14"]},
            {"point": {"t01": 1}},
            {"point": {"t03": 1}},
            {"point": {"t04": 1}},
        ])
        mode, *extra = args
        if mode == "convergence":
            extra += ["--slots", slots]
        assert main(["probe", mode, "-c", tree_file, "--samples", "10", *extra]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("mode, samples", [("decay", "0"), ("decay", "-3"), ("windows", "0")])
    def test_samples_below_one_is_usage_error(self, tree_file, capsys, mode, samples):
        # no sample means no evidence: an empty table is not a verdict
        with pytest.raises(SystemExit) as info:
            main(["probe", mode, "-c", tree_file, "--samples", samples])
        assert info.value.code == 64
        assert "need at least one sample" in capsys.readouterr().err

    def test_windows(self, tree_file, capsys):
        code = main(["probe", "windows", "-c", tree_file, "-m", "word",
                     "--samples", "12", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert list(payload) == ["passed", "worst_margin", "alpha", "beta", "checked", "vertex_checked"]


class TestOracleCompare:
    def test_small_path(self, path3_file, capsys):
        code = main(["oracle-compare", "-c", path3_file, "--samples", "6",
                     "--resolution", "8", "--refine"])
        assert code == 0

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_samples_below_one_is_usage_error(self, path3_file, capsys, samples):
        # comparing nothing used to report a worst excess of 0 and exit 0
        with pytest.raises(SystemExit) as info:
            main(["oracle-compare", "-c", path3_file, "--samples", samples])
        assert info.value.code == 64
        captured = capsys.readouterr()
        assert "need at least one sample" in captured.err and "worst" not in captured.out

    @pytest.mark.parametrize("resolution", ["1", "0", "-2"])
    def test_resolution_below_two_is_usage_error(self, tmp_path, capsys, resolution):
        # the grid oracle needs n >= 2; a coarser grid used to exit 1, blaming a face of the complex
        path = tmp_path / "cycle.json"
        assert main(["gen", "-k", "cycle", "-p", "6", "-o", str(path)]) == 0
        with pytest.raises(SystemExit) as info:
            main(["oracle-compare", "-c", str(path), "--resolution", resolution])
        assert info.value.code == 64
        captured = capsys.readouterr()
        assert f"argument --resolution: need a resolution of at least 2, got {resolution}" in captured.err
        assert "worst" not in captured.out

    def test_resolution_two_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        assert main(["gen", "-k", "cycle", "-p", "6", "-o", str(path)]) == 0
        assert main(["oracle-compare", "-c", str(path), "--resolution", "2", "--samples", "3"]) == 0

    @pytest.mark.parametrize("dim, resolution", [(2, "2"), (3, "2"), (3, "3")])
    def test_resolution_not_above_the_dimension_is_usage_error(self, tmp_path, capsys, dim, resolution):
        # a grid point on a face of dim K + 1 vertices needs n >= dim K + 1; this used to exit 1
        # from the sampler, blaming one drawn face
        cycle, rips = tmp_path / "cycle.json", str(tmp_path / "rips.json")
        assert main(["gen", "-k", "cycle", "-p", "8", "-o", str(cycle)]) == 0
        assert main(["gen", "-k", "rips", "-p", str(dim), "--base", str(cycle), "-o", rips]) == 0
        capsys.readouterr()
        assert main(["oracle-compare", "-c", rips, "--resolution", resolution]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"metricext oracle-compare: error: argument --resolution: need a resolution above "
            f"the complex's dimension {dim}, got {resolution}\n"
        )
        assert main(["oracle-compare", "-c", rips, "--resolution", str(dim + 1), "--samples", "5"]) == 0


class TestCheck:
    def test_all_green_on_tree(self, tree_file, capsys):
        code = main(["check", "-c", tree_file, "-m", "word", "--suite", "all",
                     "--seed", "7", "--triples", "30", "--pairs", "20"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out

    def test_one_vertex_complex_passes(self, tmp_path, capsys):
        # no vertex pair: the minimal-C check has nothing to attain and passes with 0 ok
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"vertices": ["a"], "maximal_simplices": [["a"]]}))
        assert main(["check", "-c", str(path), "--suite", "all", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert not any(r["failed"] for r in rows)
        minimal = next(r for r in rows if r["name"] == "minimal-linear-bound-attained")
        assert minimal["passed"] == 0 and minimal["notes"]

    def test_json_records_keep_their_key_order(self, tree_file, capsys):
        assert main(["check", "-c", tree_file, "--suite", "complex", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(list(r) == ["suite", "name", "passed", "failed", "notes"] for r in rows)

    def test_unknown_suite_is_usage_error(self, tree_file):
        with pytest.raises(SystemExit) as info:
            main(["check", "-c", tree_file, "--suite", "bogus"])
        assert info.value.code == 64

    @pytest.mark.parametrize(
        "flag, count", [("--pairs", "-3"), ("--pairs", "0"), ("--triples", "0"), ("--triples", "-1")]
    )
    def test_counts_below_one_are_usage_errors(self, tree_file, capsys, flag, count):
        # no sampled pair or triple used to pass its checks vacuously and exit 0
        with pytest.raises(SystemExit) as info:
            main(["check", "-c", tree_file, flag, count])
        assert info.value.code == 64
        captured = capsys.readouterr()
        assert f"argument {flag}: need at least one sample, got {count}" in captured.err
        assert "total:" not in captured.out

    def test_runs_only_the_requested_suite(self, tree_file, capsys):
        for suite, tripwire in (("path", False), ("oracle", True)):
            code = main(["check", "-c", tree_file, "--suite", suite, "--json",
                         "--triples", "6", "--pairs", "8"])
            assert code == 0
            rows = json.loads(capsys.readouterr().out)
            assert rows and {r["suite"] for r in rows} == {suite}
            assert any(r["name"] == "lower-bound-tripwire" for r in rows) == tripwire

    def test_same_output_under_every_hash_seed(self, tmp_path):
        path = tmp_path / "random.json"
        assert main(["gen", "-k", "random", "-p", "14", "-p", "0.3", "-o", str(path)]) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-m", "metricext.cli", "check", "-c", str(path), "--json",
                 "--suite", "all", "--seed", "7", "--triples", "30", "--pairs", "20"],
                env=env, capture_output=True, check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_tripwire_reports_only_its_own_run(self, tree_file, capsys):
        notes = []
        for _ in range(2):
            assert main(["check", "-c", tree_file, "--suite", "all", "--json",
                         "--triples", "6", "--pairs", "8"]) == 0
            rows = json.loads(capsys.readouterr().out)
            notes.append(next(r["notes"] for r in rows if r["name"] == "lower-bound-tripwire"))
        assert notes[0] == notes[1]
        assert not notes[0][0].startswith("0 bound checks")

    def test_a_solver_below_its_bound_exits_3(self, tree_file, capsys, monkeypatch):
        # the violation raises out of the run; the log is restored afterwards, for the session guard
        monkeypatch.setattr(tripwire_log(), "violations", [])
        monkeypatch.setattr(pathmetric, "query_bounds", lambda x, y, priced: [("planted", 1e9)])
        assert main(["check", "-c", tree_file, "--suite", "path", "--triples", "6", "--pairs", "8"]) == 3
        assert "internal inconsistency: " in capsys.readouterr().err
        assert tripwire_log().violations

    def test_a_clean_run_after_a_caught_violation_exits_0(self, tree_file, monkeypatch):
        # the exit code is this run's: a violation an earlier call left in the log does not count
        monkeypatch.setattr(tripwire_log(), "violations", [])
        with pytest.raises(InternalConsistencyError):
            pathmetric._assert_above_bounds(0.0, [("planted", 1.0)], "planted")
        assert tripwire_log().violations
        assert main(["check", "-c", tree_file, "--suite", "path", "--triples", "6", "--pairs", "8"]) == 0


class TestSeed:
    @pytest.mark.parametrize("command", [
        ["gen", "-k", "random", "-p", "6", "-p", "0.3"],
        ["check"],
        ["probe", "decay"],
        ["oracle-compare"],
    ])
    def test_negative_seed_is_usage_error(self, tree_file, capsys, command):
        # numpy's own refusal exited 1 with a message that named no flag
        args = command + (["-c", tree_file] if command[0] != "gen" else []) + ["--seed", "-1"]
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 64
        assert "argument --seed: need a seed of at least 0, got -1" in capsys.readouterr().err


# Every option of every subcommand as the CLI declared it before its shared options moved
# into parent parsers: (command, dest) -> (option strings, default, type, choices, required,
# action).  The one change since is --resolution's type: below 2 it is now a usage error.
SURFACE = {
    ('validate', 'complex'): (('-c', '--complex'), None, None, None, True, '_StoreAction'),
    ('validate', 'metric'): (('-m', '--metric'), None, None, None, False, '_StoreAction'),
    ('gen', 'kind'): (('-k', '--kind'), None, None, ('simplex', 'path', 'cycle', 'tree', 'rips', 'random'), True, '_StoreAction'),
    ('gen', 'param'): (('-p', '--param'), [], float, None, False, '_AppendAction'),
    ('gen', 'base'): (('--base',), None, None, None, False, '_StoreAction'),
    ('gen', 'max_dim'): (('--max-dim',), 3, int, None, False, '_StoreAction'),
    ('gen', 'seed'): (('--seed',), 0, cli._seed, None, False, '_StoreAction'),
    ('gen', 'out'): (('-o', '--out'), None, None, None, False, '_StoreAction'),
    ('dist', 'complex'): (('-c', '--complex'), None, None, None, True, '_StoreAction'),
    ('dist', 'metric'): (('-m', '--metric'), 'word', None, None, False, '_StoreAction'),
    ('dist', 'kind'): (('--kind',), 'extended', None, ('vertex', 'bilinear', 'l1path', 'extended'), False, '_StoreAction'),
    ('dist', 'x'): (('-x',), None, None, None, True, '_StoreAction'),
    ('dist', 'y'): (('-y',), None, None, None, True, '_StoreAction'),
    ('dist', 'json'): (('--json',), False, None, None, False, '_StoreTrueAction'),
    ('dd', 'complex'): (('-c', '--complex'), None, None, None, True, '_StoreAction'),
    ('dd', 'metric'): (('-m', '--metric'), 'word', None, None, False, '_StoreAction'),
    ('dd', 'kind'): (('--kind',), 'extended', None, ('vertex', 'bilinear', 'extended'), False, '_StoreAction'),
    ('dd', 'points'): (('--points',), None, None, None, True, '_StoreAction'),
    ('dd', 'json'): (('--json',), False, None, None, False, '_StoreTrueAction'),
    ('gp', 'complex'): (('-c', '--complex'), None, None, None, True, '_StoreAction'),
    ('gp', 'metric'): (('-m', '--metric'), 'word', None, None, False, '_StoreAction'),
    ('gp', 'kind'): (('--kind',), 'extended', None, ('vertex', 'extended'), False, '_StoreAction'),
    ('gp', 'points'): (('--points',), None, None, None, True, '_StoreAction'),
    ('gp', 'json'): (('--json',), False, None, None, False, '_StoreTrueAction'),
    ('probe', 'mode'): ((), None, None, ('convergence', 'divergence', 'decay', 'windows'), True, '_StoreAction'),
    ('probe', 'complex'): (('-c', '--complex'), None, None, None, True, '_StoreAction'),
    ('probe', 'metric'): (('-m', '--metric'), 'word', None, None, False, '_StoreAction'),
    ('probe', 'slots'): (('--slots',), None, None, None, False, '_StoreAction'),
    ('probe', 'depth_max'): (('--depth-max',), None, int, None, False, '_StoreAction'),
    ('probe', 'tol'): (('--tol',), 0.001, float, None, False, '_StoreAction'),
    ('probe', 'samples'): (('--samples',), 40, cli._sample_count, None, False, '_StoreAction'),
    ('probe', 'seed'): (('--seed',), 0, cli._seed, None, False, '_StoreAction'),
    ('probe', 'lambda_grid'): (('--lambda-grid',), None, None, None, False, '_StoreAction'),
    ('probe', 'threshold'): (('--threshold',), None, float, None, False, '_StoreAction'),
    ('probe', 'json'): (('--json',), False, None, None, False, '_StoreTrueAction'),
    ('oracle-compare', 'complex'): (('-c', '--complex'), None, None, None, True, '_StoreAction'),
    ('oracle-compare', 'samples'): (('--samples',), 20, cli._sample_count, None, False, '_StoreAction'),
    ('oracle-compare', 'resolution'): (('--resolution',), 16, cli._resolution, None, False, '_StoreAction'),
    ('oracle-compare', 'refine'): (('--refine',), False, None, None, False, '_StoreTrueAction'),
    ('oracle-compare', 'seed'): (('--seed',), 0, cli._seed, None, False, '_StoreAction'),
    ('oracle-compare', 'json'): (('--json',), False, None, None, False, '_StoreTrueAction'),
    ('check', 'complex'): (('-c', '--complex'), None, None, None, True, '_StoreAction'),
    ('check', 'metric'): (('-m', '--metric'), 'word', None, None, False, '_StoreAction'),
    ('check', 'suite'): (('--suite',), 'all', None, ('complex', 'vertex', 'path', 'extension', 'probes', 'oracle', 'all'), False, '_StoreAction'),
    ('check', 'seed'): (('--seed',), 0, cli._seed, None, False, '_StoreAction'),
    ('check', 'triples'): (('--triples',), 120, cli._sample_count, None, False, '_StoreAction'),
    ('check', 'pairs'): (('--pairs',), 80, cli._sample_count, None, False, '_StoreAction'),
    ('check', 'json'): (('--json',), False, None, None, False, '_StoreTrueAction'),
}


class TestCommandSurface:
    def test_every_option_is_declared_as_before(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["validate", "gen", "dist", "dd", "gp", "probe", "oracle-compare", "check"]
        surface = {
            (command, a.dest): (
                tuple(a.option_strings), a.default, a.type,
                None if a.choices is None else tuple(a.choices), a.required, type(a).__name__,
            )
            for command, p in sub.choices.items()
            for a in p._actions
            if a.dest != "help"
        }
        assert surface == SURFACE

    @pytest.mark.parametrize("command", ["validate", "gen", "dist", "dd", "gp", "probe", "oracle-compare", "check"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: metricext {command} ")
