"""tools/digests.py prints the digest of every artifact of every benchmark workload."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from evohist.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEED, EVALUATIONS = 3, 424  # two generations of the M=5 default population of 212


def test_one_line_per_workload_artifact_with_its_digest(tmp_path):
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py"), "--seeds", str(SEED),
                             "--evaluations", str(EVALUATIONS)], capture_output=True, text=True, check=True)
    printed = dict(reversed(line.split("  ")) for line in result.stdout.splitlines())
    pipeline = ["history.jsonl", "embedding.search.csv", "embedding.objective.csv", "hv.csv",
                "figure.search.svg", "figure.objective.svg", "figure.hv.svg"]
    files = {"dtlz2-m3-pipeline": pipeline, "dtlz2-m4-pipeline": pipeline,
             "dtlz2-m5-run-embed": ["history.jsonl", "embedding.search.csv", "figure.search.svg"]}
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert list(printed) == [f"{name}/{SEED}/{file}" for name in workloads for file in files[name]]

    # The M=5 workload's three commands, run here in-process, make the files whose digests were printed.
    history, embedding, figure = tmp_path / "history.jsonl", tmp_path / "embedding.search.csv", tmp_path / "f.svg"
    assert main(["run", "--problem", "dtlz2", "--objectives", "5", "--evaluations", str(EVALUATIONS),
                 "--seed", str(SEED), "--out", str(history)]) == 0
    assert main(["embed", "--history", str(history), "--max-points", "4000", "--out", str(embedding)]) == 0
    assert main(["render", "--embedding", str(embedding), "--out", str(figure)]) == 0
    for path, name in ((history, "history.jsonl"), (embedding, "embedding.search.csv"), (figure, "figure.search.svg")):
        assert printed[f"dtlz2-m5-run-embed/{SEED}/{name}"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_failing_command_exits_1():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py"), "--seeds", "0", "--evaluations", "1"],
                            capture_output=True, text=True)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.splitlines()[-1].startswith("error: evohist pipeline ")
