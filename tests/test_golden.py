"""Golden digests of whole artifact files: the determinism contract pinned to fixed bytes.

Reruns being identical to each other (criterion 10) does not catch a
change in the RNG draw order, in the real formatting or in the bits of
a derived number, because both runs would drift together.  The history
digests were taken from the original per-pair variation loop and
per-value writer.  The embedding and hypervolume digests were taken
from the full n×n nearest-neighbour scan and float comparisons in the
dominance sort, before those became screened and rank-coded.  The
figure digests were taken from the per-point colour ramp and circle
loop.  Any drift fails here.
"""

import hashlib

import pytest

from evohist import (
    OperatorConfig,
    RunConfig,
    embed_history,
    exploration_profile,
    hypervolume_trace,
    make_spec,
    render_history_figure,
    render_hv_figure,
    run,
    write_embedding,
    write_history,
    write_hv_trace,
)
from evohist.optimizer import default_population_size

M5_POP = default_population_size(5)

RUNS = {
    "dtlz2-m3-nsga2": ("dtlz2", 3, RunConfig(12, 72, 42, "nsga2"), None),
    "dtlz2-m5-nsga3": ("dtlz2", 5, RunConfig(M5_POP, 3 * M5_POP, 42, "nsga3"), None),
    "dtlz1-m3-nsga3-pc0.5-pm1": (
        "dtlz1", 3, RunConfig(12, 72, 42, "nsga3"),
        OperatorConfig(crossover_probability=0.5, mutation_probability=1.0),
    ),
}

GOLDEN = {
    "dtlz2-m3-nsga2": {
        "history.jsonl": "628c8939ea021f7a7c4dc4170ad6e4b5a8bb6a750de458b12f21eb604c299982",
        "embedding.search.csv": "94ab15b4b2ca9a3f2fb6dc057291be89cbdb30ce48374ea0b20fcb719c04dcc8",
        "embedding.objective.csv": "7325e78d5f509f99a83e00f0301c1bd93eded1e41415a9e13ae34ffa2a11ac96",
        "hv.csv": "85a7b810acb6895a3624a9b525193b3ee8bfbe6b4628d90d27918832d033fe7a",
        "figure.search.svg": "26ca7111a2a878b260ab4abf5214d79c24221904e47075d77df01edeea535533",
        "figure.objective.svg": "9b17e238c6dec04495be0aa47f6327d86249aaaec20d7c83b336aec94024bdaf",
        "figure.hv.svg": "b78e654d84b25910f16100d35c8643574af697a897c1418786bd875681e5d8d6",
    },
    "dtlz2-m5-nsga3": {
        "history.jsonl": "862586287ff6fb3598c3089ad2bfda9933d6fb9a587d270cb0ffd43b27214a95",
        "embedding.search.csv": "6a9ec624682d6934e2b0d1e120bbeadad3a2bf0018a975bb631215a9d07d791c",
        "embedding.objective.csv": "0391c7692e0299def0f2935e5c1c2755579615998828b2a9e5de08c800ef3172",
        "hv.csv": "1dcdc62e42e24779a141f42815a7b62a394f30fe8ecb1f60c473feee50a2d378",
        "figure.search.svg": "b44a1afa786afb0a84135d553c7a87c87b28cdd7d6b4c7067a6aa0dcdebb45de",
        "figure.objective.svg": "18bb80e70b1b8fb0b402f9fa4c844ad0d9b0661b4a4314fe417067649f48a111",
        "figure.hv.svg": "b66f1f709141cf92dbec6e02461a1a92e3583caf5da0b1f23ed639f39c42e0d6",
    },
    "dtlz1-m3-nsga3-pc0.5-pm1": {
        "history.jsonl": "0b88dde7d1004ce61ea60f40daa01c6423f97326e54a238a4cb1a7d6f48b2bdf",
        "embedding.search.csv": "de336a0a828d2117f24258d5f6c19fad8012e96b5e25947f958171680a537b58",
        "embedding.objective.csv": "90d03dc5e4541fa36943c55e50b4ea3c4b841b6110a6bf1a7cb69857b1751cc1",
        "hv.csv": "c7331afaa7e349c2814ff4b909141a6586169a801c5d44ea9ddbc189accae56a",
        "figure.search.svg": "ece08759a920aaa78f545d75c519ccb72e45d807f8dd5e6f031202f389ff6a11",
        "figure.objective.svg": "b61aa56fdab3b1491250fe452da178abebd78609a848932469b9fe9f926e260d",
        "figure.hv.svg": "2ee5ff46ba84fe33727c8a1bcb9db0d709c36517995dea9580e8ed44f7bdcf17",
    },
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Each golden run's files, written and rendered as ``pipeline`` does (search-space scores)."""
    out = {}
    for name, (problem, M, run_config, operators) in RUNS.items():
        folder = tmp_path_factory.mktemp(name)
        history = run(make_spec(problem, M), run_config, operators)
        write_history(history, folder / "history.jsonl")
        profile = exploration_profile(history, "search")
        for space in ("search", "objective"):
            embedding = embed_history(history, space)
            write_embedding(embedding, profile, folder / f"embedding.{space}.csv")
            (folder / f"figure.{space}.svg").write_bytes(render_history_figure(embedding, profile).encode())
        trace = hypervolume_trace(history)
        write_hv_trace(trace, folder / "hv.csv")
        (folder / "figure.hv.svg").write_bytes(render_hv_figure(trace).encode())
        out[name] = folder
    return out


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_history_bytes_match_golden_digest(artifacts, name):
    assert digest(artifacts[name] / "history.jsonl") == GOLDEN[name]["history.jsonl"]


@pytest.mark.parametrize("filename", [
    "embedding.search.csv", "embedding.objective.csv", "hv.csv",
    "figure.search.svg", "figure.objective.svg", "figure.hv.svg",
])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_derived_bytes_match_golden_digest(artifacts, name, filename):
    assert digest(artifacts[name] / filename) == GOLDEN[name][filename]
