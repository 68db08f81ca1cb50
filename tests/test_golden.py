"""Golden digests of whole history files: the determinism contract pinned to fixed bytes.

Reruns being identical to each other (criterion 10) does not catch a
change in the RNG draw order or in the real formatting, because both
runs would drift together.  These digests were taken from the original
per-pair variation loop and per-value writer; any drift fails here.
"""

import hashlib

import pytest

from evohist import OperatorConfig, RunConfig, make_spec, run, write_history
from evohist.optimizer import default_population_size

M5_POP = default_population_size(5)

GOLDEN = {
    "dtlz2-m3-nsga2": (
        ("dtlz2", 3, RunConfig(12, 72, 42, "nsga2"), None),
        "628c8939ea021f7a7c4dc4170ad6e4b5a8bb6a750de458b12f21eb604c299982",
    ),
    "dtlz2-m5-nsga3": (
        ("dtlz2", 5, RunConfig(M5_POP, 3 * M5_POP, 42, "nsga3"), None),
        "862586287ff6fb3598c3089ad2bfda9933d6fb9a587d270cb0ffd43b27214a95",
    ),
    "dtlz1-m3-nsga3-pc0.5-pm1": (
        ("dtlz1", 3, RunConfig(12, 72, 42, "nsga3"),
         OperatorConfig(crossover_probability=0.5, mutation_probability=1.0)),
        "0b88dde7d1004ce61ea60f40daa01c6423f97326e54a238a4cb1a7d6f48b2bdf",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_history_bytes_match_golden_digest(name, tmp_path):
    (problem, M, run_config, operators), digest = GOLDEN[name]
    path = tmp_path / "history.jsonl"
    write_history(run(make_spec(problem, M), run_config, operators), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
