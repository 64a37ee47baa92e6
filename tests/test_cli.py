"""CLI surface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metricext.cli import main


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


class TestValidate:
    def test_valid_files(self, tree_file, capsys):
        assert main(["validate", "-c", tree_file, "-m", "word"]) == 0
        out = capsys.readouterr().out
        assert "15 vertices" in out and "C=1" in out

    def test_invalid_complex(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": ["a"], "maximal_simplices": [["a", "b"]]}))
        assert main(["validate", "-c", str(bad)]) == 1

    def test_bad_metric_matrix(self, path3_file, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({
            "type": "explicit",
            "order": ["p00", "p01", "p02"],
            "matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
        }))
        assert main(["validate", "-c", path3_file, "-m", str(bad)]) == 1

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

    def test_vertex_kind_rejects_interior(self, path3_file):
        code = main([
            "dist", "-c", path3_file, "-m", "word", "--kind", "vertex",
            "-x", '{"p00": 0.5, "p01": 0.5}', "-y", '{"p02": 1}',
        ])
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

    def test_windows(self, tree_file, capsys):
        code = main(["probe", "windows", "-c", tree_file, "-m", "word",
                     "--samples", "12", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


class TestOracleCompare:
    def test_small_path(self, path3_file, capsys):
        code = main(["oracle-compare", "-c", path3_file, "--samples", "6",
                     "--resolution", "8", "--refine"])
        assert code == 0


class TestCheck:
    def test_all_green_on_tree(self, tree_file, capsys):
        code = main(["check", "-c", tree_file, "-m", "word", "--suite", "all",
                     "--seed", "7", "--triples", "30", "--pairs", "20"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out

    def test_unknown_suite_is_usage_error(self, tree_file):
        with pytest.raises(SystemExit) as info:
            main(["check", "-c", tree_file, "--suite", "bogus"])
        assert info.value.code == 64

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
