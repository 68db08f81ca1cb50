"""Evolutionary run histories, embedded.

Optimise DTLZ benchmarks with NSGA-II or NSGA-III while recording every
generation, then study the full history: 2-D classical-MDS embeddings of
the search and objective spaces, per-individual exploration-exploitation
scores, hypervolume traces, and deterministic SVG figures.
"""

from .core import (
    ConfigError,
    ContractError,
    GenerationRecord,
    OperatorConfig,
    RunHistory,
    non_dominated_subset,
)
from .embedding import (
    DEFAULT_MAX_POINTS,
    Embedding,
    EmbeddingSpace,
    classical_mds,
    concatenate,
    embed_history,
    pairwise_sq_distances,
)
from .emit import (
    FormatVersionError,
    HistoryFormatError,
    MalformedRecordError,
    read_embedding,
    read_history,
    read_hv_trace,
    render_history_figure,
    render_hv_figure,
    write_embedding,
    write_history,
    write_hv_trace,
)
from .metrics import (
    ExplorationProfile,
    HypervolumeTrace,
    UnsupportedDimensionError,
    exploration_profile,
    hypervolume_exact,
    hypervolume_mc,
    hypervolume_trace,
    nearest_neighbour_distances,
)
from .optimizer import (
    ReferenceDirectionSet,
    RunConfig,
    crowding_distance,
    das_dennis,
    fast_nondominated_sort,
    nsga2_select,
    nsga3_select,
    polynomial_mutation,
    run,
    sbx_crossover,
)
from .problems import ProblemSpec, evaluate_batch, front_residual, make_spec

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "GenerationRecord",
    "OperatorConfig",
    "RunHistory",
    "non_dominated_subset",
    "ProblemSpec",
    "make_spec",
    "evaluate_batch",
    "front_residual",
    "RunConfig",
    "ReferenceDirectionSet",
    "fast_nondominated_sort",
    "crowding_distance",
    "sbx_crossover",
    "polynomial_mutation",
    "das_dennis",
    "nsga2_select",
    "nsga3_select",
    "run",
    "EmbeddingSpace",
    "Embedding",
    "DEFAULT_MAX_POINTS",
    "concatenate",
    "pairwise_sq_distances",
    "classical_mds",
    "embed_history",
    "ExplorationProfile",
    "HypervolumeTrace",
    "UnsupportedDimensionError",
    "nearest_neighbour_distances",
    "exploration_profile",
    "hypervolume_exact",
    "hypervolume_mc",
    "hypervolume_trace",
    "HistoryFormatError",
    "FormatVersionError",
    "MalformedRecordError",
    "write_history",
    "read_history",
    "write_embedding",
    "read_embedding",
    "write_hv_trace",
    "read_hv_trace",
    "render_history_figure",
    "render_hv_figure",
    "__version__",
]
