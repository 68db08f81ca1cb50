import argparse
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from evohist import cli
from evohist.cli import main
from evohist.core import OperatorConfig

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


def test_cli_import_leaves_scipy_out():
    """scipy is a test-only dependency; importing it would cost every CLI start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import evohist.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


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
LAYOUT = 'expected {"gen": t, "x": [[...]], "y": [[...]]} as write_history writes it'


def rewrite_generation(history, lineno, edit, out):
    """Copy ``history`` to ``out`` with ``edit`` applied to the generation record on line ``lineno``.

    An edit that returns a string gives the new line's text itself.
    """
    lines = history.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    text = edit(record)
    lines[lineno - 1] = text if isinstance(text, str) else json.dumps(record)
    out.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("lineno, edit, message", [
    (3, lambda r: r["x"][0].__setitem__(1, float("nan")), "decision variable 1 = nan lies outside [0, 1]"),
    (3, lambda r: (r["x"].pop(), r["y"].pop()), "generation 1 has 7 members, expected population size 8"),
    (4, lambda r: r.update(y=[row[:2] for row in r["y"]]), "generation 2 does not match the declared D/M dimensions"),
    (5, lambda r: r.update(x=[row[:-1] for row in r["x"]]), "generation 3 does not match the declared D/M dimensions"),
    (2, lambda r: r["x"][4].__setitem__(0, -1e-300), "decision variable 0 = -1e-300 lies outside [0, 1]"),
    (6, lambda r: r["y"][2].__setitem__(1, float("inf")), "objective 1 = inf in row 2 is not finite"),
    (3, lambda r: r.update(gen=True), LAYOUT),
    (3, lambda r: r.update(gen=1.0), LAYOUT),
    (3, lambda r: json.dumps(r).replace('"gen": 1,', '"gen": 1e0,'), LAYOUT),
    (3, lambda r: r.update(gen=10**400), f"generation indices must be 0..n-1 in order; position 1 holds {10**400}"),
    (2, lambda r: json.dumps(r).replace('"gen": 0,', '"gen": -0,'), LAYOUT),
    (3, lambda r: r["x"][1].__setitem__(0, True), "could not convert string to float: 'true'"),
    (4, lambda r: r["x"][0].__setitem__(2, False), "could not convert string to float: 'false'"),
    (5, lambda r: r["x"][7].__setitem__(1, "0.5"), LAYOUT),
    (3, lambda r: json.dumps(r, separators=(",", ":")), LAYOUT),
    (6, lambda r: r.update(z=1), LAYOUT),
], ids=["nan-variable", "member-count", "objective-count", "variable-count", "below-box", "infinite-objective",
        "gen-true", "gen-real", "gen-exponent", "gen-beyond-float", "gen-minus-zero", "x-true", "x-false", "x-string",
        "compact-separators", "extra-key"])
@pytest.mark.parametrize("command", ["embed", "hv"])
def test_bad_generation_is_one_error_line(artifacts, tmp_path, capsys, command, lineno, edit, message):
    """A generation that breaks a record rule or the header stops embed and hv with exit 1, naming file and line."""
    _, history, _, _ = artifacts
    bad = tmp_path / "bad.jsonl"
    rewrite_generation(history, lineno, edit, bad)
    out = tmp_path / "out.csv"
    assert main([command, "--history", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: line {lineno}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("M", 0, "a run needs at least two objectives"),
    ("D", 0, "a run needs at least one decision variable"),
    ("population_size", 1, "population size must be at least 2"),
    ("mutation_probability", 1e400, "mutation probability inf outside [0, 1]"),
    ("sbx_eta", 0, "distribution indices must be finite and positive"),
])
@pytest.mark.parametrize("command", ["embed", "hv"])
def test_impossible_header_value_names_line_1(artifacts, tmp_path, capsys, command, field, value, message):
    """A header value no run can have stops embed and hv with exit 1, naming the file and line 1."""
    _, history, _, _ = artifacts
    lines = history.read_text().splitlines()
    header = json.loads(lines[0])
    header[field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    out = tmp_path / "out.csv"
    assert main([command, "--history", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: line 1: {message}"]
    assert not out.exists()
