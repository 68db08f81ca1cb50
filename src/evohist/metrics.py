"""Run-level metrics: exploration-exploitation scoring and hypervolume.

The exploration metric works from nearest-neighbour distances.  For each
generation t the distance d_i(t) from member i to its closest peer is
computed in the chosen space, m(t) is the generation's median distance,
and D* is the run-wide median of the m(t).  A member's score

    v_i(t) = min(d_i(t) / (2 D*), 1)

is 0.5 exactly when its nearest neighbour sits at the typical distance
D*; scores below 0.5 read as exploiting (crowded), at or above as
exploring.

Hypervolume (the Lebesgue measure of objective space dominated by a
front, bounded by a reference point) comes in two independent flavours:
an exact computation for 2-5 objectives, and a Monte Carlo estimator
usable at any dimension, which doubles as a statistical cross-check of
the exact routine.  The exact computation takes one path per dimension:

- M=2: a staircase sum over the front sorted by the first objective.
- M=3: a sweep along the third objective over a 2-D staircase kept
  sorted with ``bisect`` (Beume et al. 2009; Fonseca, Paquete and
  López-Ibáñez 2006), O(n log n) comparisons plus list moves.
- M=4-5: slicing along the last objective, each slab weighted by the
  (M-1)-D hypervolume of the points below it, down to the 3-D sweep:
  O(n² log n) at M=4 and O(n³ log n) at M=5.  A 212-point M=5 front
  takes about 1.2-1.3 s on one core.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import ContractError, GenerationRecord, RunHistory, non_dominated_subset, objective_vector
from .embedding import EmbeddingSpace, as_space, pairwise_sq_distances

__all__ = [
    "UnsupportedDimensionError",
    "ExplorationProfile",
    "HypervolumeTrace",
    "nearest_neighbour_distances",
    "exploration_profile",
    "exploration_fraction",
    "hypervolume_exact",
    "hypervolume_mc",
    "hypervolume_trace",
    "auto_reference",
]

EXACT_HV_MAX_OBJECTIVES = 5


class UnsupportedDimensionError(ValueError):
    """Raised when the exact hypervolume routine is asked for M > 5."""


def _space_matrix(record: GenerationRecord, space: EmbeddingSpace) -> np.ndarray:
    return record.x if space is EmbeddingSpace.SEARCH else record.y


def nearest_neighbour_distances(record: GenerationRecord, space="search") -> np.ndarray:
    """Euclidean distance from each member to its closest other member."""
    space = as_space(space)
    if record.size < 2:
        raise ContractError("nearest-neighbour distances need at least two members")
    d = np.sqrt(pairwise_sq_distances(_space_matrix(record, space)))
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def _low_median(values: np.ndarray) -> float:
    """Median taking the lower of the two middle values for even counts."""
    ordered = np.sort(values)
    return float(ordered[(ordered.size - 1) // 2])


@dataclass(frozen=True)
class ExplorationProfile:
    """Per-run exploration-exploitation summary.

    ``score[t, i]`` is member i of generation t; ``per_generation_median``
    is m(t); ``overall_median`` is D* (the lower-middle median of the
    m(t) values, so it is always one of them).
    """

    space: EmbeddingSpace
    per_generation_median: np.ndarray
    overall_median: float
    score: np.ndarray

    def __post_init__(self):
        med = np.array(self.per_generation_median, dtype=float)
        score = np.array(self.score, dtype=float)
        if score.ndim != 2 or med.ndim != 1 or score.shape[0] != med.shape[0]:
            raise ContractError("profile arrays must be (n_gen, pop) scores and (n_gen,) medians")
        if ((score < 0) | (score > 1)).any():
            raise ContractError("exploration scores must lie in [0, 1]")
        if self.overall_median != _low_median(med):
            raise ContractError("overall median must be the lower-middle median of m(t)")
        med.flags.writeable = False
        score.flags.writeable = False
        object.__setattr__(self, "space", as_space(self.space))
        object.__setattr__(self, "per_generation_median", med)
        object.__setattr__(self, "score", score)

    def score_at(self, generation: int, member_index: int) -> float:
        return float(self.score[generation, member_index])


def exploration_profile(history: RunHistory, space="search") -> ExplorationProfile:
    """Score every member of every generation against the run's median spread.

    When D* is 0 (every generation fully coincident) the convention is
    score 1 for any member with a positive nearest-neighbour distance and
    0 for coincident members, keeping scores defined and in [0, 1].
    """
    space = as_space(space)
    distances = np.array([nearest_neighbour_distances(rec, space) for rec in history.generations])
    medians = np.median(distances, axis=1)
    overall = _low_median(medians)
    if overall > 0:
        score = np.minimum(distances / (2.0 * overall), 1.0)
    else:
        score = (distances > 0).astype(float)
    return ExplorationProfile(
        space=space,
        per_generation_median=medians,
        overall_median=overall,
        score=score,
    )


def exploration_fraction(profile: ExplorationProfile, t: int) -> float:
    """Fraction of generation t scoring as exploring (score >= 0.5)."""
    if not 0 <= t < profile.score.shape[0]:
        raise ContractError(f"generation {t} outside profile range 0..{profile.score.shape[0] - 1}")
    return float(np.mean(profile.score[t] >= 0.5))


def _staircase_2d(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact 2-D hypervolume of a mutually non-dominated point set."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]
    total = 0.0
    for i in range(pts.shape[0]):
        right = pts[i + 1, 0] if i + 1 < pts.shape[0] else reference[0]
        total += (reference[1] - pts[i, 1]) * (right - pts[i, 0])
    return total


def _sweep_3d(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact 3-D hypervolume by a sweep along the third objective.

    Points enter in increasing z.  ``xs``/``ys`` hold the 2-D staircase of
    the points seen so far (x increasing, y decreasing) and ``area`` the
    area it dominates inside the reference box, so the slab between two
    consecutive z values adds area × thickness.  A point the staircase
    already weakly dominates adds nothing, which is why the sweep needs no
    dominance filter and no special case for duplicates or ties.
    """
    rx, ry, rz = reference.tolist()
    xs: list[float] = []
    ys: list[float] = []
    area = volume = z_prev = 0.0
    for x, y, z in points[np.argsort(points[:, 2], kind="stable")].tolist():
        volume += area * (z - z_prev)
        z_prev = z
        i = bisect_right(xs, x)
        if i and ys[i - 1] <= y:
            continue
        # The new point lowers the staircase from its own x to the first
        # step that already lies below it; the steps in between are
        # dominated and leave.  Their x values bound the strips of new area.
        j = bisect_left(xs, x, hi=i)
        height = ys[j - 1] if j else ry
        left = x
        k = j
        while k < len(xs) and ys[k] >= y:
            area += (xs[k] - left) * (height - y)
            left, height = xs[k], ys[k]
            k += 1
        area += ((xs[k] if k < len(xs) else rx) - left) * (height - y)
        xs[j:k] = [x]
        ys[j:k] = [y]
    return volume + area * (rz - z_prev)


def _slice(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact hypervolume for 4-5 objectives by slicing along the last one.

    Between consecutive values of the last objective the dominated region
    has a constant cross-section: the hypervolume of the points below,
    projected onto the other objectives.  Each slab adds that volume times
    its thickness.  A prefix goes to the 3-D sweep unfiltered; one handed
    to another slicing level is filtered first, because that level's cost
    grows quadratically with its point count.
    """
    pts = points[np.argsort(points[:, -1], kind="stable")]
    bounds = np.append(pts[:, -1], reference[-1]).tolist()
    lower, lower_ref = pts[:, :-1], reference[:-1]
    volume = 0.0
    for i in range(pts.shape[0]):
        depth = bounds[i + 1] - bounds[i]
        if depth == 0.0:
            continue
        prefix = lower[: i + 1]
        if lower_ref.size == 3:
            volume += depth * _sweep_3d(prefix, lower_ref)
        else:
            volume += depth * _slice(prefix[non_dominated_subset(prefix)], lower_ref)
    return volume


def _prepare_front(front, reference) -> tuple[np.ndarray, np.ndarray]:
    reference = objective_vector(reference)
    pts = np.asarray(front, dtype=float)
    if pts.ndim == 1 and pts.size and reference.size == 1:
        pts = pts[:, None]
    if pts.size == 0:
        return np.empty((0, reference.size)), reference
    if pts.ndim != 2 or pts.shape[1] != reference.size:
        raise ContractError(
            f"front must be (n, {reference.size}) to match the reference, got shape {pts.shape}"
        )
    if not np.isfinite(pts).all():
        raise ContractError("front members must be finite")
    return pts, reference


def hypervolume_exact(front, reference) -> float:
    """Exact hypervolume of ``front`` against ``reference`` (minimisation).

    Only members strictly below the reference on every objective bound
    any volume; those and dominated members are filtered before the
    staircase (M=2), the sweep (M=3) or the slicing (M=4-5).  Supports
    2-5 objectives; beyond that, use hypervolume_mc.
    """
    pts, reference = _prepare_front(front, reference)
    m = reference.size
    if m > EXACT_HV_MAX_OBJECTIVES:
        raise UnsupportedDimensionError(
            f"exact hypervolume supports at most {EXACT_HV_MAX_OBJECTIVES} objectives "
            f"(got {m}); use hypervolume_mc instead"
        )
    if m < 2:
        raise ContractError("hypervolume needs at least two objectives")
    pts = pts[(pts < reference).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    pts = pts[non_dominated_subset(pts)]
    if m == 2:
        return _staircase_2d(pts, reference)
    if m == 3:
        return _sweep_3d(pts, reference)
    return _slice(pts, reference)


def hypervolume_mc(front, reference, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo hypervolume estimate and its binomial standard error.

    Samples uniformly in the box spanned by the componentwise minimum of
    the front and the reference point, and counts dominated samples.
    """
    if samples < 10_000:
        raise ContractError(f"Monte Carlo estimate needs at least 10000 samples, got {samples}")
    pts, reference = _prepare_front(front, reference)
    dominating = pts[(pts < reference).all(axis=1)] if pts.size else pts
    if dominating.shape[0] == 0:
        return 0.0, 0.0
    lower = pts.min(axis=0)
    box_volume = float(np.prod(reference - lower))
    hits = 0
    chunk = 65_536
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        u = rng.random((take, reference.size))
        sample = lower + u * (reference - lower)
        # One axis at a time into a (take, n) mask, never a (take, n, M) one.
        covered = np.ones((take, dominating.shape[0]), dtype=bool)
        for m in range(reference.size):
            covered &= dominating[:, m] <= sample[:, m, None]
        hits += int(covered.any(axis=1).sum())
        done += take
    fraction = hits / samples
    estimate = fraction * box_volume
    std_error = box_volume * float(np.sqrt(fraction * (1.0 - fraction) / samples))
    return estimate, std_error


def auto_reference(history: RunHistory) -> np.ndarray:
    """Fixed reference for a whole history: 1.1 x the componentwise maximum."""
    peak = np.max([rec.y.max(axis=0) for rec in history.generations], axis=0)
    return 1.1 * peak


@dataclass(frozen=True)
class HypervolumeTrace:
    """Per-generation hypervolume against one fixed reference point.

    ``reference_point`` is None for traces re-read from disk, where only
    the values survive.  Members at or beyond the reference on any axis
    simply contribute no volume, so values are always well defined.
    """

    reference_point: np.ndarray | None
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ContractError("a hypervolume trace needs at least one value")
        if (values < 0).any() or not np.isfinite(values).all():
            raise ContractError("hypervolume values must be finite and non-negative")
        values.flags.writeable = False
        ref = self.reference_point
        if ref is not None:
            ref = objective_vector(ref)
            ref.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "reference_point", ref)

    def __len__(self) -> int:
        return self.values.size


def hypervolume_trace(history: RunHistory, reference="auto") -> HypervolumeTrace:
    """Exact hypervolume of each generation's non-dominated subset.

    One reference point serves the whole trace so values are comparable
    across generations; "auto" derives it from the history itself via
    auto_reference.
    """
    ref = auto_reference(history) if isinstance(reference, str) and reference == "auto" else (
        objective_vector(reference, n_objectives=history.M)
    )
    values = np.empty(history.n_generations)
    for t, rec in enumerate(history.generations):
        values[t] = hypervolume_exact(rec.y, ref)
    return HypervolumeTrace(reference_point=ref, values=values)
