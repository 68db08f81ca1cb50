import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

from evohist.cli import main

RUN_FLAGS = ["--pop", "8", "--evaluations", "80", "--seed", "5"]
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One small end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    history = root / "history.jsonl"
    embedding = root / "embedding.csv"
    trace = root / "hv.csv"
    assert main(["run", "--problem", "dtlz2", *RUN_FLAGS, "--out", str(history)]) == 0
    assert main(["embed", "--history", str(history), "--out", str(embedding)]) == 0
    assert main(["hv", "--history", str(history), "--out", str(trace)]) == 0
    return root, history, embedding, trace


def header_of(path):
    return json.loads(path.read_text().splitlines()[0])


class TestRun:
    def test_reports_and_writes(self, tmp_path, capsys):
        out = tmp_path / "h.jsonl"
        code = main(["run", "--problem", "dtlz2", *RUN_FLAGS, "--out", str(out)])
        assert code == 0
        message = capsys.readouterr().out
        assert message.startswith("run: dtlz2 M=3 nsga2 pop=8 generations=10 seed=5")
        assert message.rstrip().endswith(str(out))
        header = header_of(out)
        assert header["problem"] == "dtlz2" and header["seed"] == 5
        assert header["D"] == 12 and header["M"] == 3

    def test_same_flags_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["run", "--problem", "dtlz1", *RUN_FLAGS, "--out", str(a)]) == 0
        assert main(["run", "--problem", "dtlz1", *RUN_FLAGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k_flag_changes_dimension(self, tmp_path):
        out = tmp_path / "h.jsonl"
        assert main(["run", "--problem", "dtlz2", "--k", "4", *RUN_FLAGS, "--out", str(out)]) == 0
        assert header_of(out)["D"] == 6

    def test_operator_flags_recorded(self, tmp_path):
        out = tmp_path / "h.jsonl"
        assert main(["run", "--problem", "dtlz2", *RUN_FLAGS,
                     "--sbx-eta", "20", "--mutation-probability", "0.2",
                     "--out", str(out)]) == 0
        header = header_of(out)
        assert header["sbx_eta"] == 20.0 and header["mutation_probability"] == 0.2

    def test_requires_problem(self, tmp_path, capsys):
        assert main(["run", *RUN_FLAGS, "--out", str(tmp_path / "h.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_problem(self, tmp_path):
        assert main(["run", "--problem", "dtlz9", *RUN_FLAGS,
                     "--out", str(tmp_path / "h.jsonl")]) == 2

    def test_invalid_operator_value(self, tmp_path):
        assert main(["run", "--problem", "dtlz2", *RUN_FLAGS,
                     "--crossover-probability", "1.5",
                     "--out", str(tmp_path / "h.jsonl")]) == 2

    def test_budget_below_population(self, tmp_path):
        assert main(["run", "--problem", "dtlz2", "--pop", "8", "--evaluations", "4",
                     "--out", str(tmp_path / "h.jsonl")]) == 2


class TestEmbed:
    def test_row_count_and_stride(self, artifacts, capsys):
        _, _, embedding, _ = artifacts
        lines = embedding.read_text().splitlines()
        assert lines[0] == "gen,idx,e1,e2,score,space,stride"
        assert len(lines) == 1 + 10 * 8  # every generation fits under the cap
        assert all(line.endswith(",search,1") for line in lines[1:])

    def test_max_points_forces_stride(self, artifacts, tmp_path):
        _, history, _, _ = artifacts
        out = tmp_path / "strided.csv"
        assert main(["embed", "--history", str(history), "--max-points", "32",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 32
        gens = sorted({int(line.split(",")[0]) for line in lines[1:]})
        assert gens == [0, 3, 6, 9]
        assert all(line.endswith(",3") for line in lines[1:])

    def test_space_flag(self, artifacts, tmp_path):
        _, history, search_csv, _ = artifacts
        out = tmp_path / "objective.csv"
        assert main(["embed", "--history", str(history), "--space", "objective",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert all(line.split(",")[5] == "objective" for line in lines[1:])
        assert out.read_text() != search_csv.read_text()

    def test_missing_history(self, tmp_path, capsys):
        assert main(["embed", "--history", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "e.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_reruns_byte_identical(self, artifacts, tmp_path):
        _, history, embedding, _ = artifacts
        again = tmp_path / "again.csv"
        assert main(["embed", "--history", str(history), "--out", str(again)]) == 0
        assert again.read_bytes() == embedding.read_bytes()

    @pytest.mark.parametrize("key", ["space", "metric_space"])
    def test_unknown_space_in_config_rejected_before_reading(self, artifacts, tmp_path, capsys, monkeypatch, key):
        def must_not_read(*args):
            raise AssertionError(f"embed read the history before rejecting {key}")

        monkeypatch.setattr("evohist.cli.read_history", must_not_read)
        _, history, _, _ = artifacts
        cfg = tmp_path / "space.cfg"
        cfg.write_text(f"{key} = bogus\n")
        out = tmp_path / "e.csv"
        assert main(["embed", "--history", str(history), "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown space 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_max_points_below_two_generations_rejected_before_profiling(self, artifacts, tmp_path, capsys,
                                                                        monkeypatch, via_config):
        def must_not_profile(*args):
            raise AssertionError("embed scored exploration before rejecting max_points")

        monkeypatch.setattr("evohist.cli.exploration_profile", must_not_profile)
        _, history, _, _ = artifacts
        if via_config:
            cfg = tmp_path / "points.cfg"
            cfg.write_text("max_points = 15\n")
            flags = ["--config", str(cfg)]
        else:
            flags = ["--max-points", "0"]
        out = tmp_path / "e.csv"
        assert main(["embed", "--history", str(history), *flags, "--out", str(out)]) == 2
        assert "must allow at least two generations of 8" in capsys.readouterr().err
        assert not out.exists()


class TestHv:
    def test_trace_shape(self, artifacts):
        _, _, _, trace = artifacts
        lines = trace.read_text().splitlines()
        assert lines[0] == "gen,hv"
        assert len(lines) == 11
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(v >= 0 for v in values)

    def test_explicit_reference(self, artifacts, tmp_path):
        _, history, _, trace = artifacts
        wide = tmp_path / "wide.csv"
        assert main(["hv", "--history", str(history), "--ref", "2,2,2",
                     "--out", str(wide)]) == 0
        assert wide.read_text() != trace.read_text()
        tight = tmp_path / "tight.csv"
        assert main(["hv", "--history", str(history), "--ref", "0,0,0",
                     "--out", str(tight)]) == 0
        assert all(float(line.split(",")[1]) == 0.0
                   for line in tight.read_text().splitlines()[1:])

    def test_malformed_reference(self, artifacts, tmp_path):
        _, history, _, _ = artifacts
        assert main(["hv", "--history", str(history), "--ref", "a,b",
                     "--out", str(tmp_path / "t.csv")]) == 2

    def test_malformed_reference_rejected_before_reading(self, artifacts, tmp_path, capsys, monkeypatch):
        def must_not_read(*args):
            raise AssertionError("hv read the history before rejecting the reference")

        monkeypatch.setattr("evohist.cli.read_history", must_not_read)
        _, history, _, _ = artifacts
        assert main(["hv", "--history", str(history), "--ref", "a,b",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "malformed reference" in capsys.readouterr().err

    def test_wrong_dimension_reference(self, artifacts, tmp_path):
        _, history, _, _ = artifacts
        assert main(["hv", "--history", str(history), "--ref", "1,1",
                     "--out", str(tmp_path / "t.csv")]) == 2

    def test_corrupt_history(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["hv", "--history", str(bad), "--out", str(tmp_path / "t.csv")]) == 1


class TestRender:
    def test_single_inputs(self, artifacts, tmp_path):
        _, _, embedding, trace = artifacts
        history_svg = tmp_path / "points.svg"
        assert main(["render", "--embedding", str(embedding), "--out", str(history_svg)]) == 0
        root = ET.fromstring(history_svg.read_text())
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 80

        trace_svg = tmp_path / "trace.svg"
        assert main(["render", "--hv-trace", str(trace), "--out", str(trace_svg)]) == 0
        root = ET.fromstring(trace_svg.read_text())
        assert any(e.tag.endswith("polyline") for e in root.iter())

    def test_both_inputs_get_suffixes(self, artifacts, tmp_path):
        _, _, embedding, trace = artifacts
        out = tmp_path / "figure.svg"
        assert main(["render", "--embedding", str(embedding), "--hv-trace", str(trace),
                     "--out", str(out)]) == 0
        assert not out.exists()
        for produced in (tmp_path / "figure.history.svg", tmp_path / "figure.hv.svg"):
            assert produced.exists()
            ET.fromstring(produced.read_text())

    def test_bad_trace_leaves_no_figure(self, artifacts, tmp_path, capsys):
        _, _, embedding, _ = artifacts
        bad = tmp_path / "bad.csv"
        bad.write_text("gen,hv\n0,notanumber\n")
        out = tmp_path / "figure.svg"
        assert main(["render", "--embedding", str(embedding), "--hv-trace", str(bad),
                     "--out", str(out)]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "figure.history.svg").exists()
        assert not (tmp_path / "figure.hv.svg").exists()

    def test_requires_an_input(self, tmp_path, capsys):
        assert main(["render", "--out", str(tmp_path / "x.svg")]) == 2
        assert "nothing to render" in capsys.readouterr().err


class TestPipeline:
    EXPECTED = {
        "history.jsonl",
        "embedding.search.csv",
        "embedding.objective.csv",
        "hv.csv",
        "figure.search.svg",
        "figure.objective.svg",
        "figure.hv.svg",
    }

    def test_writes_exactly_seven_files(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(["pipeline", "--problem", "dtlz2", "--pop", "8", "--evaluations", "40",
                     "--seed", "1", "--outdir", str(outdir)])
        assert code == 0
        assert {p.name for p in outdir.iterdir()} == self.EXPECTED
        assert "(7 files)" in capsys.readouterr().out
        for name in self.EXPECTED:
            if name.endswith(".svg"):
                ET.fromstring((outdir / name).read_text())

    def test_identical_flags_identical_bytes(self, tmp_path):
        flags = ["--problem", "dtlz7", "--pop", "8", "--evaluations", "40", "--seed", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", *flags, "--outdir", str(a)]) == 0
        assert main(["pipeline", *flags, "--outdir", str(b)]) == 0
        for name in self.EXPECTED:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("run_flags, embed_flags, hv_flags", [
        (["--problem", "dtlz2", "--objectives", "3", "--pop", "12", "--evaluations", "120", "--seed", "5"], [], []),
        (["--problem", "dtlz1", "--objectives", "4", "--evaluations", "1000", "--seed", "9"],
         ["--metric-space", "objective", "--max-points", "400"], ["--ref", "500,500,500,500"]),
    ])
    def test_same_bytes_as_its_subcommands(self, tmp_path, run_flags, embed_flags, hv_flags):
        whole, parts = tmp_path / "pipeline", tmp_path / "parts"
        assert main(["pipeline", *run_flags, *embed_flags, *hv_flags, "--outdir", str(whole)]) == 0
        parts.mkdir()
        history, trace = str(parts / "history.jsonl"), str(parts / "hv.csv")
        assert main(["run", *run_flags, "--out", history]) == 0
        for space in ("search", "objective"):
            embedding = str(parts / f"embedding.{space}.csv")
            assert main(["embed", "--history", history, "--space", space, *embed_flags, "--out", embedding]) == 0
            assert main(["render", "--embedding", embedding, "--out", str(parts / f"figure.{space}.svg")]) == 0
        assert main(["hv", "--history", history, *hv_flags, "--out", trace]) == 0
        assert main(["render", "--hv-trace", trace, "--out", str(parts / "figure.hv.svg")]) == 0
        assert {p.name for p in parts.iterdir()} == self.EXPECTED
        for name in self.EXPECTED:
            assert (whole / name).read_bytes() == (parts / name).read_bytes(), name

    @pytest.mark.parametrize("via_config", [False, True])
    def test_too_many_objectives_rejected_before_running(self, tmp_path, capsys, monkeypatch, via_config):
        def must_not_run(*args):
            raise AssertionError("pipeline optimised before rejecting M=6")

        monkeypatch.setattr("evohist.cli.run", must_not_run)
        outdir = tmp_path / "out"
        if via_config:
            cfg = tmp_path / "m6.cfg"
            cfg.write_text("problem = dtlz2\nobjectives = 6\nevaluation_budget = 2000\n")
            argv = ["pipeline", "--config", str(cfg), "--outdir", str(outdir)]
        else:
            argv = ["pipeline", "--problem", "dtlz2", "--objectives", "6",
                    "--evaluations", "2000", "--outdir", str(outdir)]
        assert main(argv) == 2
        assert "at most 5 objectives" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_reference_of_wrong_length_rejected_before_running(self, tmp_path, capsys, monkeypatch, via_config):
        def must_not_run(*args):
            raise AssertionError("pipeline optimised before rejecting the reference")

        monkeypatch.setattr("evohist.cli.run", must_not_run)
        outdir = tmp_path / "out"
        flags = ["--problem", "dtlz2", "--pop", "8", "--evaluations", "40"]
        if via_config:
            cfg = tmp_path / "ref.cfg"
            cfg.write_text("reference = 1, 1\n")
            flags += ["--config", str(cfg)]
        else:
            flags += ["--ref", "1,1"]
        assert main(["pipeline", *flags, "--outdir", str(outdir)]) == 2
        assert "expected 3" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_max_points_below_two_generations_rejected_before_running(self, tmp_path, capsys, monkeypatch,
                                                                      via_config):
        def must_not_run(*args):
            raise AssertionError("pipeline optimised before rejecting max_points")

        monkeypatch.setattr("evohist.cli.run", must_not_run)
        outdir = tmp_path / "out"
        flags = ["--problem", "dtlz2", "--pop", "8", "--evaluations", "40"]
        if via_config:
            cfg = tmp_path / "points.cfg"
            cfg.write_text("max_points = 15\n")
            flags += ["--config", str(cfg)]
        else:
            flags += ["--max-points", "0"]
        assert main(["pipeline", *flags, "--outdir", str(outdir)]) == 2
        assert "must allow at least two generations of 8" in capsys.readouterr().err
        assert not outdir.exists()

    def test_unknown_metric_space_rejected_before_running(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("pipeline optimised before rejecting metric_space")

        monkeypatch.setattr("evohist.cli.run", must_not_run)
        outdir = tmp_path / "out"
        cfg = tmp_path / "space.cfg"
        cfg.write_text("metric_space = bogus\n")
        argv = ["pipeline", "--problem", "dtlz2", "--pop", "8", "--evaluations", "40",
                "--config", str(cfg), "--outdir", str(outdir)]
        assert main(argv) == 2
        assert "unknown space 'bogus'" in capsys.readouterr().err
        assert not outdir.exists()


class TestOutputDirectory:
    STAGES = {"run": "run", "embed": "embed_history", "hv": "hypervolume_trace", "render": "render_history_figure"}

    @pytest.mark.parametrize("command", sorted(STAGES))
    def test_missing_directory_rejected_before_stage(self, artifacts, tmp_path, capsys, monkeypatch, command):
        def must_not_run(*args):
            raise AssertionError(f"{command} ran its stage before checking --out")

        monkeypatch.setattr(f"evohist.cli.{self.STAGES[command]}", must_not_run)
        _, history, embedding, trace = artifacts
        argv = {
            "run": ["run", "--problem", "dtlz2", *RUN_FLAGS],
            "embed": ["embed", "--history", str(history)],
            "hv": ["hv", "--history", str(history)],
            # Both inputs, so the derived .history.svg/.hv.svg names are the ones checked.
            "render": ["render", "--embedding", str(embedding), "--hv-trace", str(trace)],
        }[command]
        missing = tmp_path / "missing"
        assert main([*argv, "--out", str(missing / "out.txt")]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    def test_parent_that_is_a_file_rejected(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("run optimised before checking --out")

        monkeypatch.setattr("evohist.cli.run", must_not_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "--problem", "dtlz2", *RUN_FLAGS, "--out", str(blocker / "h.jsonl")]) == 1
        assert "not an existing directory" in capsys.readouterr().err


class TestConfigFile:
    def write_config(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body)
        return path

    def test_config_supplies_values(self, tmp_path):
        cfg = self.write_config(tmp_path, (
            "# small smoke run\n"
            "problem = dtlz2\n"
            "\n"
            "population_size = 8\n"
            "evaluation_budget = 40\n"
            "seed = 7\n"
        ))
        out = tmp_path / "h.jsonl"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header = header_of(out)
        assert header["seed"] == 7 and header["population_size"] == 8

    def test_flags_beat_config(self, tmp_path):
        cfg = self.write_config(tmp_path, (
            "problem = dtlz2\npopulation_size = 8\nevaluation_budget = 40\nseed = 7\n"
        ))
        out = tmp_path / "h.jsonl"
        assert main(["run", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        assert header_of(out)["seed"] == 9

    def test_unknown_key_fails_closed(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "problem = dtlz2\nbudget = 40\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "h.jsonl")]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        cfg = self.write_config(tmp_path, "problem dtlz2\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "h.jsonl")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "h.jsonl")]) == 2

    def test_non_numeric_config_value(self, tmp_path):
        cfg = self.write_config(tmp_path, "problem = dtlz2\nseed = soon\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "h.jsonl")]) == 2


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "run" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert main(["run", "--problem", "dtlz2", "--turbo", "--out", "x"]) == 2
        capsys.readouterr()


class TestTracedStages:
    """The benchmark's tracer wraps the package functions at the names cli looks them up under.

    Pinning the spans directly under ``cli.main`` keeps every stage on a
    hooked name, and the exploration profile computed once per command.
    """

    STAGES = {
        "pipeline": {
            "optimizer.run": 1, "emit.write_history": 1, "metrics.exploration_profile": 1,
            "embedding.embed_search": 1, "embedding.embed_objective": 1, "emit.write_embedding": 2,
            "emit.render_history_figure": 2, "metrics.hypervolume_trace": 1, "emit.write_hv_trace": 1,
            "emit.render_hv_figure": 1,
        },
        "run": {"optimizer.run": 1, "emit.write_history": 1},
        "embed": {
            "emit.read_history": 1, "metrics.exploration_profile": 1, "embedding.embed_search": 1,
            "emit.write_embedding": 1,
        },
        "hv": {"emit.read_history": 1, "metrics.hypervolume_trace": 1, "emit.write_hv_trace": 1},
        "render": {
            "emit.read_embedding": 1, "emit.render_history_figure": 1, "emit.read_hv_trace": 1,
            "emit.render_hv_figure": 1,
        },
    }

    @pytest.mark.parametrize("command", sorted(STAGES))
    def test_stage_spans_under_main(self, artifacts, tmp_path, command):
        _, history, embedding, trace = artifacts
        argv = {
            "pipeline": ["pipeline", "--problem", "dtlz2", "--pop", "8", "--evaluations", "40", "--seed", "1",
                         "--outdir", str(tmp_path / "out")],
            "run": ["run", "--problem", "dtlz2", *RUN_FLAGS, "--out", str(tmp_path / "h.jsonl")],
            "embed": ["embed", "--history", str(history), "--out", str(tmp_path / "e.csv")],
            "hv": ["hv", "--history", str(history), "--out", str(tmp_path / "t.csv")],
            "render": ["render", "--embedding", str(embedding), "--hv-trace", str(trace),
                       "--out", str(tmp_path / "f.svg")],
        }[command]
        spans_path = tmp_path / "spans.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), "--", *argv],
                       env=env, capture_output=True, text=True, check=True)
        spans = json.loads(spans_path.read_text())["spans"]
        main_ids = {span_id for span_id, _, name, _, _ in spans if name == "cli.main"}
        assert len(main_ids) == 1
        assert Counter(name for _, parent, name, _, _ in spans if parent in main_ids) == self.STAGES[command]


def test_cli_import_leaves_scipy_out():
    """scipy is a test-only dependency; importing it would cost every CLI start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import evohist.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"
