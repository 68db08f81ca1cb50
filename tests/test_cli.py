import argparse
import gc
import io
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_history
from evohist import (FormatVersionError, MalformedRecordError, cli, read_embedding, read_history, read_hv_trace,
                     write_embedding, write_history, write_hv_trace)
from evohist.cli import main
from evohist.core import ContractError, OperatorConfig

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

    def test_operator_defaults_are_operator_configs(self, tmp_path):
        """With no operator flag or key, the header carries exactly ``OperatorConfig()``'s values."""
        out = tmp_path / "h.jsonl"
        assert main(["run", "--problem", "dtlz2", *RUN_FLAGS, "--out", str(out)]) == 0
        header = header_of(out)
        assert {f.name: header[f.name] for f in fields(OperatorConfig)} == asdict(OperatorConfig())

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

    @pytest.mark.parametrize("flag, value", [("--sbx-eta", "nan"), ("--pm-eta", "inf")])
    def test_non_finite_distribution_index_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "h.jsonl"
        assert main(["run", "--problem", "dtlz2", *RUN_FLAGS, flag, value, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

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

    def test_volume_beyond_the_float_range_names_generation_and_reference(self, artifacts, tmp_path, capsys):
        _, history, _, _ = artifacts
        assert main(["hv", "--history", str(history), "--ref", "1e200,1e200,1e200",
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: generation 0: hypervolume against reference [1e+200, 1e+200, 1e+200] exceeds the float range\n")
        assert not (tmp_path / "t.csv").exists()

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


PIPELINE_FLAGS = ["--problem", "dtlz2", "--pop", "8", "--evaluations", "40"]


def contents(directory):
    """Each file's name and bytes in ``directory``, or nothing if it does not exist."""
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


@pytest.fixture(scope="module")
def earlier_run(tmp_path_factory):
    """The 7 files of an earlier pipeline run, at a seed other than the failing runs'."""
    outdir = tmp_path_factory.mktemp("earlier") / "out"
    assert main(["pipeline", *PIPELINE_FLAGS, "--seed", "2", "--outdir", str(outdir)]) == 0
    assert len(contents(outdir)) == 7
    return outdir


class TestAllOrNone:
    """A command that fails while computing leaves its outputs as they were: pipeline's --outdir, render's figures."""

    @staticmethod
    def outdir(tmp_path, earlier_run, prepopulated):
        outdir = tmp_path / "out"
        if prepopulated:
            outdir.mkdir()
            for name, data in contents(earlier_run).items():
                (outdir / name).write_bytes(data)
        return outdir

    # Each compute step of pipeline, by the cli global it is called through, and the call that fails.
    @pytest.mark.parametrize("step, call", [
        ("run", 1), ("exploration_profile", 1), ("embed_history", 1), ("embed_history", 2),
        ("hypervolume_trace", 1), ("render_history_figure", 1), ("render_history_figure", 2),
        ("render_hv_figure", 1),
    ])
    @pytest.mark.parametrize("prepopulated", [False, True], ids=["fresh", "prepopulated"])
    def test_failing_step_leaves_outdir_as_it_was(self, tmp_path, capsys, monkeypatch, earlier_run, prepopulated,
                                                  step, call):
        step_function, calls = getattr(cli, step), []

        def failing(*args):
            calls.append(step)
            if len(calls) == call:
                raise ContractError(f"{step} fails")
            return step_function(*args)

        monkeypatch.setattr(cli, step, failing)
        outdir = self.outdir(tmp_path, earlier_run, prepopulated)
        before = contents(outdir)
        assert main(["pipeline", *PIPELINE_FLAGS, "--seed", "1", "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {step} fails\n"
        assert contents(outdir) == before

    @pytest.mark.parametrize("prepopulated", [False, True], ids=["fresh", "prepopulated"])
    def test_hypervolume_beyond_the_float_range_leaves_outdir_as_it_was(self, tmp_path, capsys, earlier_run,
                                                                      prepopulated):
        outdir = self.outdir(tmp_path, earlier_run, prepopulated)
        before = contents(outdir)
        assert main(["pipeline", "--problem", "dtlz2", "--objectives", "3", "--evaluations", "920", "--seed", "1",
                     "--ref", "1e200,1e200,1e200", "--outdir", str(outdir)]) == 1
        assert "exceeds the float range" in capsys.readouterr().err
        assert outdir.is_dir() and contents(outdir) == before

    def test_render_writes_no_figure_when_the_second_fails(self, artifacts, tmp_path, capsys, monkeypatch):
        def failing(trace):
            raise ContractError("render_hv_figure fails")

        monkeypatch.setattr(cli, "render_hv_figure", failing)
        _, _, embedding, trace = artifacts
        assert main(["render", "--embedding", str(embedding), "--hv-trace", str(trace),
                     "--out", str(tmp_path / "figure.svg")]) == 1
        assert capsys.readouterr().err == "error: render_hv_figure fails\n"
        assert list(tmp_path.iterdir()) == []


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

    def test_out_that_is_a_directory_rejected_before_running(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("run optimised before checking --out")

        monkeypatch.setattr("evohist.cli.run", must_not_run)
        target = tmp_path / "hdr"
        target.mkdir()
        assert main(["run", "--problem", "dtlz2", *RUN_FLAGS, "--out", str(target)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {target}: it is a directory\n"
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []

    def test_pipeline_output_that_is_a_directory_rejected_before_running(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("pipeline optimised before checking its outputs")

        monkeypatch.setattr("evohist.cli.run", must_not_run)
        outdir = tmp_path / "out"
        (outdir / "figure.objective.svg").mkdir(parents=True)
        assert main(["pipeline", "--problem", "dtlz2", *RUN_FLAGS, "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {outdir / 'figure.objective.svg'}: it is a directory\n"
        assert [p.name for p in outdir.iterdir()] == ["figure.objective.svg"]


class TestConfigFile:
    def write_config(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body)
        return path

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_config_supplies_values(self, tmp_path, newline):
        cfg = self.write_config(tmp_path, (
            "# small smoke run\n"
            "problem = dtlz2\n"
            "\n"
            "population_size = 8\n"
            "evaluation_budget = 40\n"
            "seed = 7\n"
        ).replace("\n", newline))
        out = tmp_path / "h.jsonl"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header = header_of(out)
        assert header["seed"] == 7 and header["population_size"] == 8

    def test_config_without_final_lf_loads(self, tmp_path):
        cfg = self.write_config(tmp_path, "problem = dtlz2\npopulation_size = 8\nevaluation_budget = 40\nseed = 7")
        out = tmp_path / "h.jsonl"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert header_of(out)["seed"] == 7

    def test_flags_beat_config(self, tmp_path):
        cfg = self.write_config(tmp_path, (
            "problem = dtlz2\npopulation_size = 8\nevaluation_budget = 40\nseed = 7\n"
        ))
        out = tmp_path / "h.jsonl"
        assert main(["run", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        assert header_of(out)["seed"] == 9

    @pytest.mark.parametrize("body", ["problem = dtlz2  # note\nseed = 42\n",
                                      "problem = dtlz2\nseed = 42  # the seed\n"], ids=["word", "integer"])
    def test_comment_after_a_value(self, tmp_path, body):
        """``#`` starts a comment anywhere in a line, so what follows it is no part of the value."""
        cfg = self.write_config(tmp_path, body + "population_size = 8\nevaluation_budget = 40\n")
        out = tmp_path / "h.jsonl"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header = header_of(out)
        assert header["problem"] == "dtlz2" and header["seed"] == 42

    def test_comment_in_place_of_a_value_fails_closed(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "problem = dtlz2\nseed =  # the seed\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "h.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: expected 'key = value'\n"

    def test_unknown_key_fails_closed(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "problem = dtlz2\nbudget = 40\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "h.jsonl")]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_key_given_twice_fails_closed(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "problem = dtlz2\nseed = 1\nseed = 2\n")
        out = tmp_path / "h.jsonl"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 3: key 'seed' given twice\n"
        assert not out.exists()

    def test_malformed_line(self, tmp_path):
        cfg = self.write_config(tmp_path, "problem dtlz2\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "h.jsonl")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "h.jsonl")]) == 2

    def test_non_numeric_config_value(self, tmp_path):
        cfg = self.write_config(tmp_path, "problem = dtlz2\nseed = soon\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "h.jsonl")]) == 2


def option_flags():
    """(command, key, flag) for every flag that stores under a key of ``cli._OPTIONS``, read off the parser."""
    [commands] = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(command, action.dest, action.option_strings[0])
            for command, parser in commands.choices.items()
            for action in parser._actions if action.dest in cli._OPTIONS]


# Per key, a text its flag and its config line both accept, and the value it must resolve to.
OPTION_TEXTS = {
    "problem": ("dtlz1", "dtlz1"), "objectives": ("4", 4), "k": ("3", 3), "algorithm": ("nsga3", "nsga3"),
    "population_size": ("12", 12), "evaluation_budget": ("48", 48), "seed": ("9", 9),
    "crossover_probability": ("0.5", 0.5), "mutation_probability": ("0.25", 0.25), "sbx_eta": ("20", 20.0),
    "pm_eta": ("9.5", 9.5), "max_points": ("36", 36), "space": ("objective", "objective"),
    "metric_space": ("objective", "objective"), "reference": ("11,11", "11,11"),
}
# The arguments each command needs besides its options; render reads no config file.
REQUIRED = {
    "run": ["--out", "h.jsonl"],
    "embed": ["--history", "h.jsonl", "--out", "e.csv"],
    "hv": ["--history", "h.jsonl", "--out", "t.csv"],
    "pipeline": ["--outdir", "out"],
}
FLAGGED = {(command, key) for command, key, _ in option_flags()}


class TestOptionTable:
    """One key → type table: a config key resolves exactly like its flag, and only where the command has that flag."""

    def options_from_config(self, tmp_path, command, body):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(body)
        return cli._options(cli._build_parser().parse_args([command, "--config", str(cfg), *REQUIRED[command]]))

    def test_every_key_has_a_flag_and_a_text(self):
        assert {key for _, key in FLAGGED} == set(cli._OPTIONS) == set(OPTION_TEXTS)

    @pytest.mark.parametrize("command, key, flag", option_flags(), ids=lambda v: v.lstrip("-"))
    def test_config_key_resolves_like_its_flag(self, tmp_path, command, key, flag):
        text, expected = OPTION_TEXTS[key]
        by_flag = cli._options(cli._build_parser().parse_args([command, flag, text, *REQUIRED[command]]))
        by_config = self.options_from_config(tmp_path, command, f"{key} = {text}\n")
        assert by_flag == by_config == {key: expected}
        assert type(by_flag[key]) is type(by_config[key]) is type(expected)

    @pytest.mark.parametrize("command, key", sorted((c, k) for c in REQUIRED for k in cli._OPTIONS
                                                    if (c, k) not in FLAGGED))
    def test_key_without_a_flag_is_ignored(self, tmp_path, command, key):
        assert self.options_from_config(tmp_path, command, f"{key} = not a valid value\n") == {}


@pytest.mark.parametrize("argv, code", [
    (["hv", "--history"], 1),
    (["render", "--embedding"], 1),
    (["render", "--hv-trace"], 1),
    (["run", "--config"], 2),
], ids=["history", "embedding", "hv-trace", "config"])
def test_non_utf8_input_is_an_error_line(tmp_path, capsys, argv, code):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe not UTF-8\n")
    assert main([*argv, str(bad), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


def crlf(lines, lineno):
    return [line + b"\r" for line in lines]


def append(text):
    def edit(lines, lineno):
        lines[lineno - 1] += text
        return lines
    return edit


def before_last_bracket(text):
    def edit(lines, lineno):
        head, _, tail = lines[lineno - 1].rpartition(b"]]")
        lines[lineno - 1] = head + text + b"]]" + tail
        return lines
    return edit


@pytest.mark.parametrize("input_, lineno, edit", [
    ("history", 1, crlf),
    ("embedding", 1, crlf),
    ("hv-trace", 1, crlf),
    ("hv-trace", 5, append(b"\x0c")),
    ("hv-trace", 3, append(b"\r")),
    ("embedding", 4, append(b"\x0b")),
    ("history", 4, before_last_bracket(b"\r")),
    ("history", 3, before_last_bracket(b"\x0c")),
], ids=["crlf-history", "crlf-embedding", "crlf-hv", "form-feed-row", "cr-row", "vertical-tab-row",
        "cr-in-matrix", "form-feed-in-matrix"])
def test_line_break_other_than_lf_is_refused_on_its_line(artifacts, tmp_path, capsys, input_, lineno, edit):
    """Lines end at LF alone: a CR, form feed or vertical tab stays in its line, which is named as the bad one."""
    _, history, embedding, trace = artifacts
    source = {"history": history, "embedding": embedding, "hv-trace": trace}[input_]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\n".join(edit(source.read_bytes().split(b"\n")[:-1], lineno)) + b"\n")
    argv = ["hv", "--history", str(bad)] if input_ == "history" else ["render", f"--{input_}", str(bad)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines()[0].startswith(f"error: {bad}: line {lineno}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("input_, cut", [("history", 1), ("history", 4), ("embedding", 1), ("embedding", 5),
                                         ("hv-trace", 1), ("hv-trace", 2)])
def test_last_line_without_lf_is_refused_on_its_line(artifacts, tmp_path, capsys, input_, cut):
    """A file whose last line lost its LF, and with it perhaps the end of a number, exits 1 naming that line.

    ``cut`` bytes come off the end: the LF alone, or the LF and a real's last digits.
    """
    _, history, embedding, trace = artifacts
    source = {"history": history, "embedding": embedding, "hv-trace": trace}[input_]
    text = source.read_bytes()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text[:-cut])
    argv = ["hv", "--history", str(bad)] if input_ == "history" else ["render", f"--{input_}", str(bad)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    last = text.count(b"\n")
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: line {last}: no LF at its end; the file is cut short"]
    assert not (tmp_path / "out").exists()


def test_hv_trace_cut_inside_its_last_real_is_refused(tmp_path, capsys):
    bad = tmp_path / "hv.csv"
    bad.write_bytes(b"gen,hv\n0,0.5\n1,0.52")
    assert main(["render", "--hv-trace", str(bad), "--out", str(tmp_path / "hv.svg")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 3: no LF at its end; the file is cut short\n"


def lowest_indices(record):
    """Per member, the lowest index of a member with the same x and y bytes: the ``from`` of a copy of ``record``."""
    rows = [x.tobytes() + y.tobytes() for x, y in zip(record.x, record.y)]
    return [rows.index(row) for row in rows]


@pytest.mark.parametrize("edit, lineno, count", [
    (lambda lines, history: lines[:-1], 11, 9),
    (lambda lines, history: lines[:2], 3, 1),
    (lambda lines, history: lines + [f'{{"gen": 10, "from": {lowest_indices(history.generations[-1])}, '
                                     '"x": [], "y": []}'], 12, 11),
], ids=["last-generation-deleted", "one-generation-left", "generation-appended"])
@pytest.mark.parametrize("command", ["embed", "hv"])
def test_generation_count_other_than_the_budgets_is_refused(artifacts, tmp_path, capsys, command, edit, lineno,
                                                            count):
    """A run of population 8 and budget 80 records 10 generations; fewer or more exit 1 naming a line."""
    _, history, _, _ = artifacts
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(line + "\n" for line in edit(history.read_text().splitlines(), read_history(history))))
    out = tmp_path / "out.csv"
    assert main([command, "--history", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: line {lineno}: {count} generation records, but evaluation_budget 80 and population_size 8 "
        "make 10"]
    assert not out.exists()


@pytest.mark.parametrize("flag, lineno, column, field", [
    ("--embedding", 3, 6, None),
    ("--embedding", 4, 1, "x"),
    ("--embedding", 5, 3, "one"),
    ("--embedding", 2, 0, "99999999999999999999"),
    ("--embedding", 6, 1, "-99999999999999999999"),
    ("--hv-trace", 2, 1, "0.5.5"),
    ("--hv-trace", 3, 0, "7"),
    ("--hv-trace", 4, 0, "99999999999999999999"),
    ("--embedding", 3, 2, "inf"),
    ("--embedding", 4, 3, "nan"),
    ("--embedding", 5, 4, "-1e999"),
    ("--hv-trace", 3, 1, "inf"),
    ("--hv-trace", 2, 1, "nan"),
    ("--hv-trace", 3, 1, "-0.25"),
    ("--embedding", 2, 5, "foo"),
    ("--embedding", 4, 6, "2"),
    ("--embedding", 2, 6, "0"),
    ("--embedding", 3, 0, "-3"),
    ("--embedding", 5, 1, "-7"),
    ("--embedding", 3, 4, "1.5"),
    ("--embedding", 4, 4, "-0.5"),
    ("--embedding", 3, None, lambda lines: lines[:2] + lines[1:]),
    ("--embedding", 3, None, lambda lines: [lines[0], lines[2], lines[1], *lines[3:]]),
    ("--embedding", 2, 0, "0_0"),
    ("--embedding", 2, 1, " 0"),
    ("--hv-trace", 3, 0, "0_1"),
    ("--hv-trace", 2, None, lambda lines: [lines[0], lines[1] + " ", *lines[2:]]),
], ids=["short-row", "bad-int", "bad-float", "huge-gen", "huge-negative-idx", "bad-hv", "gen-gap", "huge-hv-gen",
        "inf-e1", "nan-e2", "overflow-score", "inf-hv", "nan-hv", "negative-hv", "unknown-space", "stride-change",
        "zero-stride", "negative-gen", "negative-idx", "score-above-1", "negative-score", "repeated-row",
        "swapped-rows", "grouped-gen", "padded-idx", "grouped-hv-gen", "padded-hv"])
def test_corrupt_csv_is_one_error_line(artifacts, tmp_path, flag, lineno, column, field):
    """A corrupt CSV row stops ``render`` with exit 1, one ``error:`` line naming it, no traceback.

    ``field`` replaces field ``column`` of line ``lineno`` (None deletes it), or edits the list of lines.
    """
    _, _, embedding, trace = artifacts
    lines = (embedding if flag == "--embedding" else trace).read_text().splitlines()
    if callable(field):
        lines = field(lines)
    else:
        parts = lines[lineno - 1].split(",")
        if field is None:
            del parts[column]
        else:
            parts[column] = field
        lines[lineno - 1] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-m", "evohist.cli", "render", flag, str(bad),
                             "--out", str(tmp_path / "f.svg")], env=env, capture_output=True, text=True)
    assert result.returncode == 1 and "Traceback" not in result.stderr
    [message] = result.stderr.splitlines()
    assert message.startswith(f"error: {bad}: line {lineno}:")
    assert not (tmp_path / "f.svg").exists()


# One mutation of a CSV the writers wrote: a bad value in one field, a line duplicated, swapped,
# deleted or cut short, CRLF line endings, or a byte-order mark.
BAD_FIELDS = ["nan", "inf", "-inf", "1e400", "-1", "-0", "9223372036854775808", "1_0", " 1", ""]


@st.composite
def mutated_csv(draw, text):
    """``text`` with one mutation from the catalogue above, and the line a refusal must name (None: any line)."""
    lines = text.split("\n")[:-1]
    kind = draw(st.sampled_from(["field", "duplicate", "swap", "delete", "cut", "crlf", "bom"]))
    if kind == "crlf":
        return "".join(line + "\r\n" for line in lines), 1
    if kind == "bom":
        return "\ufeff" + text, 1
    if kind != "field":
        return "".join(line + "\n" for line in edit_one_line(draw, lines, kind)), None
    i = draw(st.integers(1, len(lines) - 1))
    fields = lines[i].split(",")
    fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_FIELDS))
    lines[i] = ",".join(fields)
    return "".join(line + "\n" for line in lines), i + 1


def edit_one_line(draw, lines, kind):
    """``lines`` with one line duplicated, swapped with another, deleted or cut short, as ``kind`` says."""
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1).filter(lambda j: j != i))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "delete":
        del lines[i]
    else:
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
    return lines


def same_values(written, read_back, kinds):
    """Rows equal field by field as values of their column's kind: the writer's spelling of what the reader read."""
    def values(text):
        return [[kind(field) for kind, field in zip(kinds, line.split(","))] for line in text.splitlines()[1:]]

    # float's == would let -0.0 stand for 0.0; repr tells them apart.
    return written.splitlines()[0] == read_back.splitlines()[0] and [list(map(repr, row)) for row in values(written)] \
        == [list(map(repr, row)) for row in values(read_back)]


@pytest.mark.parametrize("flag", ["--embedding", "--hv-trace"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_csv_is_refused_on_a_line_or_reads_back_as_written(artifacts, tmp_path_factory, flag, data):
    """``render`` either exits 1 naming a line of the mutated file, or reads values the writer writes back.

    Writing back what was read gives the mutated file's bytes, up to the
    spelling of a number: ``-0`` in an integer column reads as 0, and a
    real cut short reads as the shorter real, which ``%.17g`` prints in
    full.
    """
    root, _, embedding, trace = artifacts
    source, read, write, kinds = {
        "--embedding": (embedding, read_embedding, lambda got, out: write_embedding(*got, out),
                        (int, int, float, float, float, str, int)),
        "--hv-trace": (trace, read_hv_trace, write_hv_trace, (int, float)),
    }[flag]
    text, named = data.draw(mutated_csv(source.read_text()))
    work = tmp_path_factory.mktemp("mutated")
    bad, figure, again = work / "bad.csv", work / "figure.svg", work / "again.csv"
    bad.write_bytes(text.encode("utf-8"))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["render", flag, str(bad), "--out", str(figure)])
    if code == 1:
        found = re.fullmatch(rf"error: {re.escape(str(bad))}: line (\d+): [^\n]*\n", err.getvalue())
        assert found, err.getvalue()
        assert named in (None, int(found[1])) and 1 <= int(found[1]) <= max(2, text.count("\n"))
        assert not figure.exists()
        return
    assert code == 0 and figure.exists()
    write(read(bad), again)
    assert again.read_text() == text or same_values(again.read_text(), text, kinds)


@st.composite
def mutated_history(draw, text):
    """``text`` with one line duplicated, swapped, deleted or cut short, a byte-order mark first, or no final LF."""
    kind = draw(st.sampled_from(["duplicate", "swap", "delete", "cut", "bom", "no-lf"]))
    if kind == "bom":
        return "\ufeff" + text
    if kind == "no-lf":
        return text[:-1]
    return "".join(line + "\n" for line in edit_one_line(draw, text.split("\n")[:-1], kind))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_history_is_refused_on_a_line_or_gives_the_same_trace(artifacts, tmp_path_factory, data):
    """``hv`` on a mutated history either exits 1 naming a line of it, or writes the unmutated file's ``hv.csv``."""
    _, history, _, trace = artifacts
    text = data.draw(mutated_history(history.read_text()))
    work = tmp_path_factory.mktemp("mutated")
    bad, out = work / "bad.jsonl", work / "hv.csv"
    bad.write_bytes(text.encode("utf-8"))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["hv", "--history", str(bad), "--out", str(out)])
    if code == 1:
        assert re.fullmatch(rf"error: {re.escape(str(bad))}: line \d+: [^\n]*\n", err.getvalue()), err.getvalue()
        assert not out.exists()
        return
    assert code == 0 and out.read_bytes() == trace.read_bytes()


@pytest.mark.parametrize("argv", [["embed", "--max-points", "10"], ["hv", "--ref", "1,1"]], ids=["embed", "hv"])
def test_options_checked_against_header_before_records(artifacts, tmp_path, capsys, monkeypatch, argv):
    """The population and M are on line 1, so a cap or reference they rule out exits 2 before the records are read."""
    def must_not_read(*args):
        raise AssertionError(f"{argv[0]} read the generation records before checking its options")

    monkeypatch.setattr("evohist.cli.read_history", must_not_read)
    _, history, _, _ = artifacts
    out = tmp_path / "out.csv"
    assert main([argv[0], "--history", str(history), *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
        spans = self.traced_spans(tmp_path, argv)
        main_ids = {span_id for span_id, _, name, _, _ in spans if name == "cli.main"}
        assert len(main_ids) == 1
        assert Counter(name for _, parent, name, _, _ in spans if parent in main_ids) == self.STAGES[command]

    @pytest.mark.parametrize("algorithm", ["nsga2", "nsga3"])
    def test_selection_spans_under_run(self, tmp_path, algorithm):
        """Every generation after the first selects once, and sorts once inside that, through the wrapped names.

        Otherwise ``optimizer.select_s`` and ``offspring_kept_ratio`` would read 0 in the benchmark.
        """
        history = tmp_path / "h.jsonl"
        spans = self.traced_spans(tmp_path, ["run", "--problem", "dtlz2", *RUN_FLAGS, "--algorithm", algorithm,
                                             "--out", str(history)])
        generations = len(history.read_text().splitlines()) - 1
        [run_id] = [span_id for span_id, _, name, _, _ in spans if name == "optimizer.run"]
        selects = [(span_id, parent) for span_id, parent, name, _, _ in spans if name == "optimizer.select"]
        assert generations > 1 and [parent for _, parent in selects] == [run_id] * (generations - 1)
        sorts = Counter(parent for _, parent, name, _, _ in spans if name == "optimizer.fast_nondominated_sort")
        assert [sorts[span_id] for span_id, _ in selects] == [1] * len(selects)

    @staticmethod
    def traced_spans(tmp_path, argv):
        """The spans ``perfbench/traced.py`` records for one CLI command, run in a subprocess."""
        spans_path = tmp_path / "spans.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), "--", *argv],
                       env=env, capture_output=True, text=True, check=True)
        return json.loads(spans_path.read_text())["spans"]


def test_out_of_memory_is_one_error_line(tmp_path):
    """A run whose arrays do not fit exits 1 with one ``error:`` line, no traceback and no file.

    The child alone runs under a 1.5 GiB address-space limit, set before
    it imports numpy; a population of 20 million asks numpy for 1.79 GiB
    at once for its decision variables.  One BLAS thread keeps numpy's
    own import well inside the limit.
    """
    limit = 1536 * 2**20
    child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
             "from evohist.cli import main; sys.exit(main(sys.argv[1:]))" % (limit, limit))
    out = tmp_path / "h.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", child, "run", "--problem", "dtlz2", "--pop", "20000000",
                             "--evaluations", "20000000", "--out", str(out)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (1, "error: run: out of memory\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_scipy_out():
    """scipy is a test-only dependency, and no reader parses JSON; importing either would cost every CLI start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import evohist.cli, sys; print('scipy' in sys.modules, 'json' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False False"


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    """Only the program path freezes.  A freeze in main() would keep alive every cycle the calls before it
    left, which in a test run is hundreds of calls."""
    before = gc.get_freeze_count()
    assert main(["run", "--problem", "dtlz2", *RUN_FLAGS, "--out", str(tmp_path / "h.jsonl")]) == 0
    assert main(["--help"]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_program_path_freezes_import_time_objects():
    """``python -m evohist.cli`` freezes the objects its imports made, and --help still exits 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ("import gc, runpy, sys\n"
              "sys.argv = ['evohist', '--help']\n"
              "try:\n"
              "    runpy.run_module('evohist.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exc:\n"
              "    print(exc.code, gc.get_freeze_count())\n")
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    code, frozen = result.stdout.splitlines()[-1].split()
    assert code == "0" and int(frozen) > 0


@pytest.mark.parametrize("command", ["embed", "hv", "render"])
def test_command_leaves_numpy_ma_and_random_out(artifacts, tmp_path, command):
    """Commands that draw no random numbers import neither numpy.ma nor numpy.random.

    np.median's NaN check imports numpy.ma, and ``import numpy.random``
    costs about 10 ms and several MB of peak RSS; every embed, hv and render
    process would pay for either at start-up.  Only run and pipeline draw.
    """
    _, history, embedding, _ = artifacts
    inputs = ["--embedding", str(embedding)] if command == "render" else ["--history", str(history)]
    argv = [command, *inputs, "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", f"import evohist.cli, sys; code = evohist.cli.main({argv!r}); "
         "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines()[-1] == "0 False False"


# read_history's message for a generation line laid out other than as write_history writes it.
LAYOUT = 'expected {"gen": t, "from": [i, ...], "x": [[...]], "y": [[...]]} as write_history writes it'


def rewrite_generation(history, lineno, edit, out):
    """Copy ``history`` to ``out`` with ``edit`` applied to the generation record on line ``lineno``.

    An edit that returns a string gives the new line's text itself.
    """
    lines = history.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    text = edit(record)
    lines[lineno - 1] = text if isinstance(text, str) else json.dumps(record)
    out.write_text("\n".join(lines) + "\n")


def drop_last_member(record):
    """The record without its last member: its ``from`` entry, and its spelled-out rows if it is new."""
    if record["from"].pop() == -1:
        record["x"].pop()
        record["y"].pop()


# The shared run's lines 3 to 6 spell out the rows of members 4-6, 2-5, 4-5 and 2-4, in member order, and
# take the other members from the line before; so line 6's first new row is member 2's.
@pytest.mark.parametrize("lineno, edit, message", [
    (3, lambda r: r["x"][0].__setitem__(1, float("nan")), "decision variable 1 = nan lies outside [0, 1]"),
    (3, drop_last_member, "generation 1 has 7 members, expected population size 8"),
    (4, lambda r: r.update(y=[row[:2] for row in r["y"]]), "expected 3 fields, got 2"),
    (5, lambda r: r.update(x=[row[:-1] for row in r["x"]]), "expected 12 fields, got 11"),
    (2, lambda r: r["x"][4].__setitem__(0, -1e-300), "decision variable 0 = -1e-300 lies outside [0, 1]"),
    (6, lambda r: r["y"][0].__setitem__(1, float("inf")), "objective 1 = inf in row 2 is not finite"),
    (3, lambda r: r.update(gen=True), LAYOUT),
    (3, lambda r: r.update(gen=1.0), LAYOUT),
    (3, lambda r: json.dumps(r).replace('"gen": 1,', '"gen": 1e0,'), LAYOUT),
    (3, lambda r: r.update(gen=10**400), f"generation indices must be 0..n-1 in order; position 1 holds {10**400}"),
    (2, lambda r: json.dumps(r).replace('"gen": 0,', '"gen": -0,'), LAYOUT),
    (3, lambda r: r["x"][1].__setitem__(0, True), "could not convert string to float: 'true'"),
    (4, lambda r: r["x"][0].__setitem__(2, False), "could not convert string to float: 'false'"),
    (5, lambda r: r["x"][1].__setitem__(1, "0.5"), LAYOUT),
    (3, lambda r: json.dumps(r, separators=(",", ":")), LAYOUT),
    (6, lambda r: r.update(z=1), LAYOUT),
    (4, lambda r: r["from"].__setitem__(0, "5"), LAYOUT),
    (4, lambda r: r["from"].__setitem__(0, 5.0), LAYOUT),
], ids=["nan-variable", "member-count", "objective-count", "variable-count", "below-box", "infinite-objective",
        "gen-true", "gen-real", "gen-exponent", "gen-beyond-float", "gen-minus-zero", "x-true", "x-false", "x-string",
        "compact-separators", "extra-key", "from-string", "from-real"])
@pytest.mark.parametrize("command", ["embed", "hv"])
def test_bad_generation_is_one_error_line(artifacts, tmp_path, capsys, command, lineno, edit, message):
    """A generation that breaks a record rule or the header stops embed and hv with exit 1, naming file and line."""
    _, history, _, _ = artifacts
    assert [json.loads(line)["from"].count(-1) for line in history.read_text().splitlines()[2:6]] == [3, 4, 2, 3]
    bad = tmp_path / "bad.jsonl"
    rewrite_generation(history, lineno, edit, bad)
    out = tmp_path / "out.csv"
    assert main([command, "--history", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: line {lineno}: {message}"]
    assert not out.exists()


def two_generations(path):
    """Write a 4-member history whose generation 0 holds one row twice (members 1 and 2), and return its lines.

    Generation 1 keeps members 1, 3 and 0 of generation 0 and adds one new row.
    """
    xs = [[[0.5, 0.25], [0.75, 0.5], [0.75, 0.5], [0.25, 1.0]], [[0.75, 0.5], [0.25, 1.0], [0.125, 0.375], [0.5, 0.25]]]
    ys = [[[1.0, 2.0], [3.0, 3.0], [3.0, 3.0], [2.0, 1.0]], [[3.0, 3.0], [2.0, 1.0], [4.0, 0.5], [1.0, 2.0]]]
    write_history(synthetic_history(xs, ys), path)
    lines = path.read_text().splitlines()
    assert lines[1:] == [
        '{"gen": 0, "from": [-1, -1, -1, -1], "x": [[0.5, 0.25], [0.75, 0.5], [0.75, 0.5], [0.25, 1]], '
        '"y": [[1, 2], [3, 3], [3, 3], [2, 1]]}',
        '{"gen": 1, "from": [1, 3, -1, 0], "x": [[0.125, 0.375]], "y": [[4, 0.5]]}',
    ]
    return lines


# Each ``from`` that write_history would not write, as (line, old text, new text, message).
FROM_EDITS = {
    "index-at-population-size": (3, "[1, 3, -1, 0]", "[1, 4, -1, 0]", "from entry 1 is 4, outside [-1, 4)"),
    "index-on-generation-0": (2, "[-1, -1, -1, -1]", "[-1, 0, -1, -1]",
                              "from entry 1 is 0, but the first generation has no generation before it"),
    "index-below-minus-1": (3, "[1, 3, -1, 0]", "[1, 3, -2, 0]", "from entry 2 is -2, outside [-1, 4)"),
    "one-new-too-many-for-x": (3, "[1, 3, -1, 0]", "[1, -1, -1, 0]",
                               "the count of -1 entries in from is 2, but the count of new rows in x is 1"),
    "one-new-too-few-for-x": (3, "[1, 3, -1, 0]", "[1, 3, 2, 0]",
                              "the count of -1 entries in from is 0, but the count of new rows in x is 1"),
    "one-new-too-many-for-y": (3, '"y": [[4, 0.5]]', '"y": [[4, 0.5], [4, 0.5]]',
                               "the count of -1 entries in from is 1, but the count of new rows in y is 2"),
    "one-new-too-few-for-y": (3, '"y": [[4, 0.5]]', '"y": []',
                              "the count of -1 entries in from is 1, but the count of new rows in y is 0"),
    "new-row-the-generation-before-holds": (
        3, '[1, 3, -1, 0], "x": [[0.125, 0.375]], "y": [[4, 0.5]]',
        '[1, -1, -1, 0], "x": [[0.25, 1], [0.125, 0.375]], "y": [[2, 1], [4, 0.5]]',
        "from entry 1 is -1, but write_history writes 3: the lowest index of a row of the generation before with "
        "its x and y bytes, or -1"),
    "second-of-two-identical-rows": (
        3, "[1, 3, -1, 0]", "[2, 3, -1, 0]",
        "from entry 0 is 2, but write_history writes 1: the lowest index of a row of the generation before with "
        "its x and y bytes, or -1"),
    "underscore-in-from": (3, "[1, 3, -1, 0]", "[1, 3, -1, 0_0]", LAYOUT),
    "space-in-from": (3, "[1, 3, -1, 0]", "[1,  3, -1, 0]", LAYOUT),
    "tab-in-from": (3, "[1, 3, -1, 0]", "[1, 3, -1, 0\t]", LAYOUT),
    "minus-zero-in-from": (3, "[1, 3, -1, 0]", "[1, 3, -1, -0]", LAYOUT),
}


@pytest.mark.parametrize("edit", FROM_EDITS, ids=list(FROM_EDITS))
@pytest.mark.parametrize("command", ["embed", "hv"])
def test_from_written_otherwise_is_one_error_line(tmp_path, capsys, command, edit):
    """An index of ``from`` that is out of range, miscounts the new rows, or is not the lowest index holding its
    member's bytes, stops embed and hv with exit 1, naming file and line; so does one spelled otherwise than %d."""
    lineno, old, new, message = FROM_EDITS[edit]
    bad = tmp_path / "bad.jsonl"
    lines = two_generations(bad)
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    assert main([command, "--history", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: line {lineno}: {message}"]
    assert not out.exists()
    with pytest.raises(MalformedRecordError, match=re.escape(f"line {lineno}: {message}")):
        read_history(bad)


def test_two_generations_read_back(tmp_path):
    """The unedited history of the test above reads back and is written again byte for byte."""
    path = tmp_path / "h.jsonl"
    lines = two_generations(path)
    write_history(read_history(path), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_text().splitlines() == lines


# A history as format_version 1 wrote it: every member of every generation spelled out.
VERSION_1 = (
    '{"format_version": 1, "problem": "dtlz2", "M": 2, "D": 2, "algorithm": "nsga2", "population_size": 2, '
    '"evaluation_budget": 4, "seed": 1, "crossover_probability": 0.90000000000000002, "mutation_probability": 1, '
    '"sbx_eta": 15, "pm_eta": 20, "rng_algorithm": "numpy-pcg64"}\n'
    '{"gen": 0, "x": [[0.5, 0.25], [0.75, 0.5]], "y": [[1, 2], [2, 1]]}\n'
    '{"gen": 1, "x": [[0.5, 0.25], [0.125, 0.5]], "y": [[1, 2], [1.5, 1.5]]}\n'
)


@pytest.mark.parametrize("command", ["embed", "hv"])
def test_version_1_history_is_refused(tmp_path, capsys, command):
    """A format-1 history exits 1 naming line 1 and both versions; no format-1 reader is kept."""
    old = tmp_path / "v1.jsonl"
    old.write_text(VERSION_1)
    out = tmp_path / "out.csv"
    assert main([command, "--history", str(old), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {old}: line 1: format_version 1, this reader supports 2"]
    assert not out.exists()
    with pytest.raises(FormatVersionError, match=re.escape(f"{old}: line 1: format_version 1, this reader supports 2")):
        read_history(old)


def header_refused(artifacts, tmp_path, capsys, command, header, message):
    """The shared history with ``header`` as its line 1 stops ``command`` with exit 1 and one error naming line 1."""
    _, history, _, _ = artifacts
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([header, *history.read_text().splitlines()[1:]]) + "\n")
    out = tmp_path / "out.csv"
    assert main([command, "--history", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: line 1: {message}"]
    assert not out.exists()
    with pytest.raises(MalformedRecordError, match=re.escape(f"line 1: {message}")):
        read_history(bad)


@pytest.mark.parametrize("field, text, message", [
    ("M", "0", "header a run needs at least two objectives"),
    ("D", "0", "header a run needs at least one decision variable"),
    ("population_size", "1", "header population size must be at least 2"),
    ("mutation_probability", "1e400", "header mutation probability inf outside [0, 1]"),
    ("sbx_eta", "0", "header distribution indices must be finite and positive"),
    ("evaluation_budget", "-5", "header field 'evaluation_budget' is -5, below one population of 8"),
    ("evaluation_budget", "7", "header field 'evaluation_budget' is 7, below one population of 8"),
    ("algorithm", '"bogus"', "header field 'algorithm' is 'bogus', expected one of nsga2, nsga3"),
    ("seed", "-1", "header field 'seed' is -1, expected an unsigned 64-bit integer"),
    ("seed", "18446744073709551616", "header field 'seed' is 18446744073709551616, expected an unsigned 64-bit integer"),
    ("problem", '"bogus"', "header field 'problem' is 'bogus', expected one of dtlz1, dtlz2, dtlz3, dtlz4, dtlz7"),
    ("problem", '"DTLZ2"', "header field 'problem' is 'DTLZ2', expected one of dtlz1, dtlz2, dtlz3, dtlz4, dtlz7"),
])
@pytest.mark.parametrize("command", ["embed", "hv"])
def test_impossible_header_value_names_line_1(artifacts, tmp_path, capsys, command, field, text, message):
    """A header value no run can have stops embed and hv with exit 1, naming the file and line 1."""
    header = re.sub(f'"{field}": [^,}}]*', lambda m: f'"{field}": {text}', artifacts[1].read_text().splitlines()[0])
    header_refused(artifacts, tmp_path, capsys, command, header, message)


# Header edits a JSON parser would accept but write_history never writes.
HEADER_EDITS = {
    "compact-separators": (lambda h: h.replace(", ", ",").replace(": ", ":"), "header field 1 is '{}', expected "
                           "field 'format_version'"),
    "leading-space": (lambda h: " " + h, "header is not one {...} record as write_history writes it"),
    "extra-key": (lambda h: h[:-1] + ', "note": 1}', "header has 14 fields, expected 13"),
    "repeated-key": (lambda h: h.replace('"M": 3, ', '"M": 3, "M": 3, '),
                     "header field 4 is '\"M\": 3', expected field 'D'"),
    "reversed-order": (lambda h: "{" + ", ".join(reversed(h[1:-1].split(", "))) + "}",
                       "header field 1 is '\"rng_algorithm\": \"numpy-pcg64\"', expected field 'format_version'"),
    "other-rng-algorithm": (lambda h: h.replace('"numpy-pcg64"', '"mt19937"'),
                            "header field 'rng_algorithm' is 'mt19937', expected one of numpy-pcg64"),
}


@pytest.mark.parametrize("edit", HEADER_EDITS, ids=list(HEADER_EDITS))
@pytest.mark.parametrize("command", ["embed", "hv"])
def test_header_laid_out_otherwise_names_line_1(artifacts, tmp_path, capsys, command, edit):
    """Line 1 must be laid out as write_history writes it, keys, order and separators included."""
    change, message = HEADER_EDITS[edit]
    header = change(artifacts[1].read_text().splitlines()[0])
    header_refused(artifacts, tmp_path, capsys, command, header, message.replace("{}", header[1:-1]))
