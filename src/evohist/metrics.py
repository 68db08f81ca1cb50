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
- M=4: the 3-D sweep kept up to date along the fourth objective
  (after Guerreiro and Fonseca 2018, HV4D+): each live row keeps the
  staircase up to it in z, a new row lowers only the staircases above
  it up to the first that already covers it, and rows that become
  dominated in 3-D leave.  Worst case O(n³) steps (every staircase
  touched, each an O(n) copy), a few staircases per row on optimiser
  fronts.
- M=5: slicing along the fifth objective, each slab weighted by the 4-D
  hypervolume of the non-dominated points below it.  A 212-point M=5
  front takes about 0.1-0.3 s on one core.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import fsum
from operator import mul, sub

import numpy as np

from .core import (
    ContractError,
    GenerationRecord,
    RunHistory,
    _freeze,
    non_dominated_subset,
    objective_matrix,
    objective_vector,
)
from .embedding import EmbeddingSpace, _space_matrix, _sq_diff_sum, as_space

__all__ = [
    "UnsupportedDimensionError",
    "ExplorationProfile",
    "HypervolumeTrace",
    "nearest_neighbour_distances",
    "exploration_profile",
    "hypervolume_exact",
    "hypervolume_mc",
    "hypervolume_trace",
    "auto_reference",
]

EXACT_HV_MAX_OBJECTIVES = 5

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


class UnsupportedDimensionError(ValueError):
    """Raised when the exact hypervolume routine is asked for M > 5."""


def nearest_neighbour_distances(record: GenerationRecord, space="search") -> np.ndarray:
    """Euclidean distance from each member to its closest other member.

    Bitwise equal to the off-diagonal row minima of scipy's
    ``squareform(pdist(v))``: each distance is the square root of the sum
    ``e_ij = Σ_k fl((v_ik - v_jk)²)`` added in column order by the helper
    behind ``pairwise_sq_distances``, and sqrt is correctly rounded and
    monotone.  Only the pairs a screen keeps are summed that way, about
    one per row on optimiser populations.

    The screen is one Gram product: ``g_ij = |v_j|² - 2 v_i·v_j`` is
    ``t_ij - |v_i|²`` up to rounding, where t_ij is the exact squared
    distance, so within row i it orders the j as t does.  Let u = 2⁻⁵³,
    η = 2⁻¹⁰⁷⁴ (the smallest subnormal, for underflow), d the number of
    columns, R² = max_j |v_j|² and γ_k = ku / (1 - ku).  The standard
    rounding model, which holds for any summation order BLAS may use,
    gives, for (d + 2)u ≤ 10⁻³:

    - |g_ij - (t_ij - |v_i|²)| ≤ γ_{d+1}(R + |v_i|)² + 3dη: the norm and
      the dot product are each off by at most γ_d Σ_k |v_ik v_jk| ≤
      γ_d |v_i||v_j| (Cauchy-Schwarz), and the subtraction adds one u;
    - |e_ij - t_ij| ≤ γ_{d+2} t_ij + dη, a sum of d non-negative rounded
      squares of rounded differences, with t_ij ≤ (R + |v_i|)².

    If j* minimises e_ij and k minimises g_ij over j ≠ i, then
    e_ij* ≤ e_ik gives g_ij* - g_ik ≤ 4.01 γ_{d+2}(R + |v_i|)² + 8.01 dη
    ≤ 8.02 γ_{d+2}(R² + |v_i|²) + 8.01 dη.  The screen keeps every j with
    ``g_ij <= min_j g_ij + τ_i``, where

        τ_i = 16 (d + 2) (u (R² + |v_i|²) + η),

    about twice that, which also covers rounding the threshold and the
    computed R² and |v_i|².  So j* is always kept, and the minimum of e
    over the kept pairs is the minimum over all pairs.  Below
    4(R² + |v_i|²) ≤ the largest float, no step of row i's screen or sums
    can overflow; a row where that bound is not finite keeps every other
    row.
    """
    space = as_space(space)
    if record.size < 2:
        raise ContractError("nearest-neighbour distances need at least two members")
    v = _space_matrix(record, space)
    n, d = v.shape
    with np.errstate(over="ignore", invalid="ignore"):  # rows with overflow keep every pair
        g = v @ v.T
        norms = g.diagonal().copy()
        g *= -2.0
        g += norms
        np.fill_diagonal(g, np.inf)
        span = 4.0 * (norms.max() + norms)
        threshold = g.min(axis=1) + 4 * (d + 2) * (_UNIT_ROUNDOFF * span + 4 * _SMALLEST_SUBNORMAL)
        keep = g <= threshold[:, None]
    keep[~np.isfinite(span)] = True
    np.fill_diagonal(keep, False)
    # Row-major order groups each row's kept pairs; every row keeps at least one.
    rows, cols = np.divmod(np.flatnonzero(keep), n)
    sq = _sq_diff_sum(v[rows], v[cols])
    return np.sqrt(np.minimum.reduceat(sq, np.searchsorted(rows, np.arange(n))))


def _low_median(values: np.ndarray) -> float:
    """Median taking the lower of the two middle values for even counts."""
    ordered = np.sort(values)
    return float(ordered[(ordered.size - 1) // 2])


def _row_medians(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=1)`` bit for bit, without its NaN check, which imports ``numpy.ma``."""
    ordered = np.sort(values, axis=1)
    half = ordered.shape[1] // 2
    return ordered[:, half] if ordered.shape[1] % 2 else (ordered[:, half - 1] + ordered[:, half]) / 2.0


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
        med = np.asarray(self.per_generation_median, dtype=float)
        score = np.asarray(self.score, dtype=float)
        if score.ndim != 2 or med.ndim != 1 or score.shape[0] != med.shape[0]:
            raise ContractError("profile arrays must be (n_gen, pop) scores and (n_gen,) medians")
        if not ((score >= 0) & (score <= 1)).all():
            raise ContractError("exploration scores must lie in [0, 1]")
        if self.overall_median != _low_median(med):
            raise ContractError("overall median must be the lower-middle median of m(t)")
        _freeze(self, space=as_space(self.space), per_generation_median=med, score=score)


def exploration_profile(history: RunHistory, space="search") -> ExplorationProfile:
    """Score every member of every generation against the run's median spread.

    When D* is 0 (every generation fully coincident) the convention is
    score 1 for any member with a positive nearest-neighbour distance and
    0 for coincident members, keeping scores defined and in [0, 1].
    """
    space = as_space(space)
    distances = np.array([nearest_neighbour_distances(rec, space) for rec in history.generations])
    medians = _row_medians(distances)
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


def _staircase_2d(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact 2-D hypervolume of a mutually non-dominated point set."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]
    total = 0.0
    for i in range(pts.shape[0]):
        right = pts[i + 1, 0] if i + 1 < pts.shape[0] else reference[0]
        total += (reference[1] - pts[i, 1]) * (right - pts[i, 0])
    return total


def _staircase_insert(xs, ys, x, y, area: float, rx: float, ry: float):
    """Lower the 2-D staircase ``xs``/``ys`` (x increasing, y decreasing) to take in (x, y).

    Returns None when a step already weakly dominates (x, y).  Otherwise
    returns ``(j, k, area)``: the steps ``j:k`` are dominated by the point
    and give way to it, and ``area`` has grown by the strips of new area
    inside the reference box, added one strip at a time.  The caller does
    the splice, in place on lists or by concatenation on tuples.
    """
    i = bisect_right(xs, x)
    if i and ys[i - 1] <= y:
        return None
    # The new point lowers the staircase from its own x to the first
    # step that already lies below it; the steps in between are
    # dominated and leave.  Their x values bound the strips of new area.
    j = bisect_left(xs, x, 0, i)
    height = ys[j - 1] if j else ry
    left = x
    k, n = j, len(xs)
    while k < n and ys[k] >= y:
        area += (xs[k] - left) * (height - y)
        left, height = xs[k], ys[k]
        k += 1
    area += ((xs[k] if k < n else rx) - left) * (height - y)
    return j, k, area


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
        step = _staircase_insert(xs, ys, x, y, area, rx, ry)
        if step is None:
            continue
        j, k, area = step
        xs[j:k] = [x]
        ys[j:k] = [y]
    return volume + area * (rz - z_prev)


def _sweep_4d(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact 4-D hypervolume: one 3-D sweep kept up to date along the fourth objective.

    Rows enter in stable increasing order of w, the fourth objective;
    between consecutive w values the dominated region's cross-section is
    the 3-D hypervolume of the rows in so far.  That volume is kept as a
    list of live rows in stable z order, each with the 2-D staircase of
    the (x, y) of the live rows up to it and that staircase's area, so it
    is Σ area × (next z − z), the last row running to the reference,
    summed afresh with ``fsum`` for each slab of w.

    A row enters at its z position.  If the staircase below it already
    covers its (x, y), a row no higher in z dominates it in 3-D, in this
    prefix and every later one, so it is dropped.  Otherwise it lowers
    each later staircase in turn.  A later row it covers leaves.  The
    walk stops at the first staircase that already covers the new row:
    that staircase and every one above it stay as they were.  Zero-depth
    slabs of w add nothing and are not summed.
    """
    rx, ry, rz, rw = reference.tolist()
    zs: list[float] = []
    rows: list[tuple[float, float]] = []
    stair_x: list[tuple[float, ...]] = []
    stair_y: list[tuple[float, ...]] = []
    areas: list[float] = []
    pts = points[np.argsort(points[:, 3], kind="stable")].tolist()
    bounds = [row[3] for row in pts[1:]] + [rw]
    volume = 0.0
    for (x, y, z, w), upper in zip(pts, bounds):
        p = bisect_right(zs, z)
        xs, ys, area = (stair_x[p - 1], stair_y[p - 1], areas[p - 1]) if p else ((), (), 0.0)
        step = _staircase_insert(xs, ys, x, y, area, rx, ry)
        if step is not None:
            j, k, area = step
            zs.insert(p, z)
            rows.insert(p, (x, y))
            stair_x.insert(p, xs[:j] + (x,) + xs[k:])
            stair_y.insert(p, ys[:j] + (y,) + ys[k:])
            areas.insert(p, area)
            q = p + 1
            while q < len(zs):
                xq, yq = rows[q]
                if x <= xq and y <= yq:
                    del zs[q], rows[q], stair_x[q], stair_y[q], areas[q]
                    continue
                xs, ys = stair_x[q], stair_y[q]
                step = _staircase_insert(xs, ys, x, y, areas[q], rx, ry)
                if step is None:
                    break
                j, k, areas[q] = step
                stair_x[q] = xs[:j] + (x,) + xs[k:]
                stair_y[q] = ys[:j] + (y,) + ys[k:]
                q += 1
        depth = upper - w
        if depth == 0.0:
            continue
        tops = zs[1:]
        tops.append(rz)
        volume += depth * fsum(map(mul, areas, map(sub, tops, zs)))
    return volume


def _slice(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact 5-D hypervolume by slicing along the last objective.

    Between consecutive values of the last objective the dominated region
    has a constant cross-section: the 4-D hypervolume of the points below,
    projected onto the other objectives.  Each slab adds that volume times
    its thickness.  Each prefix is filtered to its non-dominated rows
    before the 4-D sweep.
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
        volume += depth * _sweep_4d(prefix[non_dominated_subset(prefix)], lower_ref)
    return volume


def hypervolume_exact(front, reference) -> float:
    """Exact hypervolume of ``front`` against ``reference`` (minimisation).

    Only members strictly below the reference on every objective bound
    any volume; those and dominated members are filtered before the
    staircase (M=2), the 3-D sweep (M=3), the 4-D sweep (M=4) or the
    slicing (M=5).  Supports 2-5 objectives; beyond that, use
    hypervolume_mc.
    """
    reference = objective_vector(reference)
    pts = objective_matrix(front, reference.size)
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
    if m == 4:
        return _sweep_4d(pts, reference)
    return _slice(pts, reference)


def hypervolume_mc(front, reference, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo hypervolume estimate and its binomial standard error.

    Samples uniformly in the box spanned by the componentwise minimum of
    the front and the reference point, and counts dominated samples.
    """
    if samples < 10_000:
        raise ContractError(f"Monte Carlo estimate needs at least 10000 samples, got {samples}")
    reference = objective_vector(reference)
    pts = objective_matrix(front, reference.size)
    dominating = pts[(pts < reference).all(axis=1)]
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
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ContractError("a hypervolume trace needs at least one value")
        if (values < 0).any() or not np.isfinite(values).all():
            raise ContractError("hypervolume values must be finite and non-negative")
        ref = self.reference_point
        _freeze(self, values=values, reference_point=None if ref is None else objective_vector(ref))

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
