"""Golden digests of whole artifact files: the determinism contract pinned to fixed bytes.

Reruns being identical to each other (criterion 10) does not catch a
change in the RNG draw order, in the real formatting or in the bits of
a derived number, because both runs would drift together.  The history
digests were retaken when format_version 2 began to write each
generation's kept members as indices into the generation before; every
other digest held across that change, and is now computed from the
history as read back from disk.  Before it, the history digests were
taken from the original per-pair variation loop and per-value writer.  The embedding and hypervolume digests were taken
from the full n×n nearest-neighbour scan and float comparisons in the
dominance sort, before those became screened and rank-coded.  The M=3
hypervolume digests are still those of the 3-D sweep of that time.  The
M=5 one was retaken when the 4-D sweep replaced re-sweeping every prefix
of the fourth objective; two of its three values moved in the last bit
(at most 1.8e-16 relative).  The figure digests were taken from the
per-point colour ramp and circle loop, and still hold now that the
circles, the final-generation crosses and the hypervolume polyline each
come from one ``%`` template over whole arrays.  Any drift fails here.
"""

import dataclasses
import hashlib

import pytest

from evohist import (
    OperatorConfig,
    RunConfig,
    embed_history,
    exploration_profile,
    hypervolume_trace,
    make_spec,
    read_history,
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
        "history.jsonl": "4b4eb3a5b2821d83f6b21d402e5911008fda790cfe101b9e997e721a0ad6363d",
        "embedding.search.csv": "94ab15b4b2ca9a3f2fb6dc057291be89cbdb30ce48374ea0b20fcb719c04dcc8",
        "embedding.objective.csv": "7325e78d5f509f99a83e00f0301c1bd93eded1e41415a9e13ae34ffa2a11ac96",
        "hv.csv": "85a7b810acb6895a3624a9b525193b3ee8bfbe6b4628d90d27918832d033fe7a",
        "figure.search.svg": "26ca7111a2a878b260ab4abf5214d79c24221904e47075d77df01edeea535533",
        "figure.objective.svg": "9b17e238c6dec04495be0aa47f6327d86249aaaec20d7c83b336aec94024bdaf",
        "figure.hv.svg": "b78e654d84b25910f16100d35c8643574af697a897c1418786bd875681e5d8d6",
    },
    "dtlz2-m5-nsga3": {
        "history.jsonl": "8f5acd9d19f06a1ec885c8bb8308463540ec478750006dc8b618b4761b98da09",
        "embedding.search.csv": "6a9ec624682d6934e2b0d1e120bbeadad3a2bf0018a975bb631215a9d07d791c",
        "embedding.objective.csv": "0391c7692e0299def0f2935e5c1c2755579615998828b2a9e5de08c800ef3172",
        "hv.csv": "9628bc4f243cb66910ecd146184fe1f93f734ae80b305fdca2f953b191544694",
        "figure.search.svg": "b44a1afa786afb0a84135d553c7a87c87b28cdd7d6b4c7067a6aa0dcdebb45de",
        "figure.objective.svg": "18bb80e70b1b8fb0b402f9fa4c844ad0d9b0661b4a4314fe417067649f48a111",
        "figure.hv.svg": "b66f1f709141cf92dbec6e02461a1a92e3583caf5da0b1f23ed639f39c42e0d6",
    },
    "dtlz1-m3-nsga3-pc0.5-pm1": {
        "history.jsonl": "0206fce3470554cc53935c928887364542127b542efcb42c09807d1a41b53433",
        "embedding.search.csv": "de336a0a828d2117f24258d5f6c19fad8012e96b5e25947f958171680a537b58",
        "embedding.objective.csv": "90d03dc5e4541fa36943c55e50b4ea3c4b841b6110a6bf1a7cb69857b1751cc1",
        "hv.csv": "c7331afaa7e349c2814ff4b909141a6586169a801c5d44ea9ddbc189accae56a",
        "figure.search.svg": "ece08759a920aaa78f545d75c519ccb72e45d807f8dd5e6f031202f389ff6a11",
        "figure.objective.svg": "b61aa56fdab3b1491250fe452da178abebd78609a848932469b9fe9f926e260d",
        "figure.hv.svg": "2ee5ff46ba84fe33727c8a1bcb9db0d709c36517995dea9580e8ed44f7bdcf17",
    },
}


def bits(history):
    return [(rec.generation, rec.x.tobytes(), rec.y.tobytes()) for rec in history.generations]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Each golden run's files, written and rendered as ``pipeline`` does (search-space scores).

    Every derived file comes from the history read back from disk, which
    must equal the run bit for bit, so their digests also pin that the
    history's encoding loses nothing.
    """
    out = {}
    for name, (problem, M, run_config, operators) in RUNS.items():
        folder = tmp_path_factory.mktemp(name)
        written = run(make_spec(problem, M), run_config, operators)
        write_history(written, folder / "history.jsonl")
        history = read_history(folder / "history.jsonl")
        assert history == dataclasses.replace(written, generations=history.generations)
        assert bits(history) == bits(written)
        profile = exploration_profile(history, "search")
        for space in ("search", "objective"):
            embedding = embed_history(history, space)
            scores = profile.score[embedding.generation, embedding.member_index]
            write_embedding(embedding, scores, folder / f"embedding.{space}.csv")
            (folder / f"figure.{space}.svg").write_bytes(render_history_figure(embedding, scores).encode())
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
