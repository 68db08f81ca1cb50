"""2-D views of a run history via classical (Torgerson) MDS.

The whole history — every sampled generation's population, in either the
search space (decision vectors) or the objective space — is pooled into
one point multiset and laid out in the plane so that pairwise distances
are preserved as well as any planar layout can.  No distance matrix is
needed for that: the Gram matrix X_c·X_cᵀ of the centred vectors shares
its nonzero spectrum with the d×d scatter matrix X_cᵀ·X_c (Gower 1966),
so the layout is X_c projected onto the scatter's top two eigenvectors.
Each embedded point keeps its provenance (generation, member index) so
downstream consumers can colour by generation or by exploration score.

Histories are subsampled by a generation stride before embedding: the
point count is capped (default 10 000) by taking every s-th generation
with the smallest stride s that fits, always keeping the final
generation.  The cap sets the size of the CSV and SVG artifacts; memory
grows only linearly with the point count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ContractError, GenerationRecord, RunHistory, _freeze

__all__ = [
    "EmbeddingSpace",
    "as_space",
    "HistorySample",
    "Embedding",
    "concatenate",
    "pairwise_sq_distances",
    "classical_mds",
    "embed_history",
    "DEFAULT_MAX_POINTS",
]

DEFAULT_MAX_POINTS = 10_000


class EmbeddingSpace(enum.Enum):
    """Which vectors of a history get embedded: decision or objective."""

    SEARCH = "search"
    OBJECTIVE = "objective"

    def __str__(self) -> str:
        return self.value


def as_space(space) -> EmbeddingSpace:
    """Coerce a string tag or EmbeddingSpace value to EmbeddingSpace."""
    if isinstance(space, EmbeddingSpace):
        return space
    try:
        return EmbeddingSpace(str(space))
    except ValueError:
        raise ContractError(
            f"unknown space {space!r}; expected 'search' or 'objective'"
        ) from None


def _space_matrix(record: GenerationRecord, space: EmbeddingSpace) -> np.ndarray:
    return record.x if space is EmbeddingSpace.SEARCH else record.y


class HistorySample(NamedTuple):
    """Pooled vectors from strided generations, with per-row provenance."""

    vectors: np.ndarray       # (n, dim)
    generation: np.ndarray    # (n,) generation index of each row
    member_index: np.ndarray  # (n,) position within its generation
    stride: int


def sampled_generations(n_generations: int, population_size: int, max_points: int) -> tuple[list[int], int]:
    """Generation indices kept under the point cap, plus the stride used.

    The stride s is the smallest integer with ceil(n_gen / s) whole
    generations fitting in ``max_points``; sampling starts at generation 0
    and the final generation is always substituted in as the last sample.
    """
    if max_points < 2 * population_size:
        raise ContractError(
            f"max_points {max_points} must allow at least two generations "
            f"of {population_size}"
        )
    cap = max_points // population_size
    stride = -(-n_generations // cap)
    count = -(-n_generations // stride)
    picks = [k * stride for k in range(count - 1)]
    picks.append(n_generations - 1)
    return picks, stride


def concatenate(history: RunHistory, space, max_points: int = DEFAULT_MAX_POINTS) -> HistorySample:
    """Pool the (strided) history into one matrix of vectors with provenance."""
    space = as_space(space)
    picks, stride = sampled_generations(history.n_generations, history.population_size, max_points)
    blocks = []
    gens = []
    idxs = []
    for t in picks:
        rec = history.generations[t]
        blocks.append(_space_matrix(rec, space))
        gens.append(np.full(rec.size, t, dtype=np.int64))
        idxs.append(np.arange(rec.size, dtype=np.int64))
    return HistorySample(
        vectors=np.vstack(blocks),
        generation=np.concatenate(gens),
        member_index=np.concatenate(idxs),
        stride=stride,
    )


def pairwise_sq_distances(vectors) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances between rows.

    The squared differences are added one coordinate at a time, in column
    order, so every entry carries the same rounding as a plain per-pair sum.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0:
        raise ContractError("pairwise distances need a non-empty (n, dim) matrix")
    return _sq_diff_sum(v[:, None, :], v[None, :, :])


def _sq_diff_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last axis of (a - b)², one column at a time in column order.

    ``a`` and ``b`` broadcast over their leading axes; only the result's
    shape is ever allocated, never one with the column axis.  Starting
    from 0 and adding each squared difference in turn is the order of a
    plain per-pair loop (and of scipy's ``pdist``), so every entry carries
    exactly that loop's rounding.
    """
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    for k in range(a.shape[-1]):
        diff = a[..., k] - b[..., k]
        diff *= diff
        out += diff
    return out


def classical_mds(sq_dist) -> tuple[np.ndarray, tuple[float, float], bool]:
    """Torgerson MDS of a squared-distance matrix down to two coordinates.

    Double-centres D² into the Gram matrix B = -(1/2)·J·D²·J, takes the
    two algebraically largest eigenpairs, and scales each eigenvector by
    the square root of its (non-negative part of the) eigenvalue.  The
    reflection ambiguity is fixed by making each eigenvector's
    largest-magnitude entry positive (earliest such entry on ties).

    Returns (coords, (λ₁, λ₂), degenerate); when all points coincide
    (λ₁ ≈ 0) the coordinates are all zero and the flag is set.
    """
    d2 = np.array(sq_dist, dtype=float)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise ContractError(f"squared-distance matrix must be square, got shape {d2.shape}")
    n = d2.shape[0]
    if n < 2:
        raise ContractError("classical MDS needs at least two points")
    if not np.isfinite(d2).all() or (d2 < 0).any():
        raise ContractError("squared distances must be finite and non-negative")
    if np.abs(np.diagonal(d2)).max() > 1e-9 * max(1.0, d2.max()):
        raise ContractError("squared-distance matrix must have a zero diagonal")

    # B = -0.5 * J D² J via the centring identity, computed in place so
    # only one n×n buffer is ever live.
    row_means = d2.mean(axis=1)
    grand_mean = row_means.mean()
    d2 -= row_means[:, None]
    d2 -= row_means[None, :]
    d2 += grand_mean
    d2 *= -0.5
    values, vectors = np.linalg.eigh(d2)
    top = values[::-1][:2]
    columns = vectors[:, ::-1][:, :2] * np.sqrt(np.maximum(top, 0.0))
    return _finish_layout(columns, top, float(np.abs(d2).max()))


def _finish_layout(columns: np.ndarray, eigenvalues, b_max: float) -> tuple[np.ndarray, tuple[float, float], bool]:
    """Rules shared by both MDS solvers, applied to the scaled top-two columns.

    An axis whose eigenvalue is at or below 1e-12·max(1, max|B|) is
    rounding noise, and its column is set to zero; the layout is
    degenerate when that holds for λ₁.  Each remaining column is flipped
    so that its largest-magnitude entry (earliest on ties) is positive.
    """
    lam1, lam2 = float(eigenvalues[0]), float(eigenvalues[1])
    tolerance = 1e-12 * max(1.0, b_max)
    if lam1 <= tolerance:
        return np.zeros_like(columns), (lam1, lam2), True
    if lam2 <= tolerance:
        columns = np.column_stack((columns[:, 0], np.zeros(columns.shape[0])))
    pivots = columns[np.argmax(np.abs(columns), axis=0), [0, 1]]
    return columns * np.where(pivots < 0, -1.0, 1.0), (lam1, lam2), False


@dataclass(frozen=True)
class Embedding:
    """A 2-D MDS layout of a sampled history, with per-point provenance.

    ``eigenvalues`` is None for embeddings re-read from disk, where only
    the coordinates survive.
    """

    space: EmbeddingSpace
    e1: np.ndarray
    e2: np.ndarray
    generation: np.ndarray
    member_index: np.ndarray
    stride: int
    eigenvalues: tuple[float, float] | None = None
    degenerate: bool = False

    def __post_init__(self):
        e1 = np.asarray(self.e1, dtype=float)
        e2 = np.asarray(self.e2, dtype=float)
        gen = np.asarray(self.generation, dtype=np.int64)
        idx = np.asarray(self.member_index, dtype=np.int64)
        n = e1.shape[0]
        if not (e1.shape == e2.shape == gen.shape == idx.shape) or e1.ndim != 1 or n == 0:
            raise ContractError("embedding columns must be non-empty and equal-length")
        if self.stride < 1:
            raise ContractError(f"stride must be positive, got {self.stride}")
        if self.eigenvalues is not None and not self.degenerate:
            lam1, lam2 = self.eigenvalues
            if lam2 > lam1 or lam2 < -1e-8 * lam1:
                raise ContractError(f"eigenvalues out of order or too negative: {self.eigenvalues}")
            scale = max(1.0, float(np.abs(e1).max()), float(np.abs(e2).max()))
            if abs(e1.mean()) > 1e-9 * scale or abs(e2.mean()) > 1e-9 * scale:
                raise ContractError("embedded coordinates must be mean-centred")
        _freeze(self, space=as_space(self.space), e1=e1, e2=e2, generation=gen, member_index=idx)

    @property
    def n_points(self) -> int:
        return self.e1.shape[0]


def embed_history(history: RunHistory, space, max_points: int = DEFAULT_MAX_POINTS) -> Embedding:
    """Sample, pool, and MDS-embed a run history; with d = 1 the second axis is zero."""
    space = as_space(space)
    sample = concatenate(history, space, max_points)
    xc = sample.vectors - sample.vectors.mean(axis=0)
    k = min(2, xc.shape[1])
    values, vectors = np.linalg.eigh(xc.T @ xc)
    top = np.zeros(2)
    top[:k] = values[::-1][:k]
    columns = np.zeros((xc.shape[0], 2))
    columns[:, :k] = xc @ vectors[:, ::-1][:, :k]
    # max|B| of the Gram matrix B = X_c·X_cᵀ is its largest diagonal entry.
    coords, eigenvalues, degenerate = _finish_layout(columns, top, float(np.einsum("ij,ij->i", xc, xc).max()))
    return Embedding(
        space=space,
        e1=coords[:, 0],
        e2=coords[:, 1],
        generation=sample.generation,
        member_index=sample.member_index,
        stride=sample.stride,
        eigenvalues=eigenvalues,
        degenerate=degenerate,
    )
