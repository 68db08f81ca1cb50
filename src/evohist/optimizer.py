"""NSGA-II / NSGA-III generational loops with full history recording.

The selection machinery works on plain objective matrices and returns
index lists, so the pieces (non-dominated sort, crowding distance,
reference-direction niching) can be exercised and tested in isolation.
``run`` wires them into the usual elitist loop: random initial
population, SBX crossover + polynomial mutation, (parents ∪ offspring)
environmental selection, repeated until the evaluation budget is spent.

Every random draw comes from one seeded PCG64 stream in a fixed order,
so a run is a pure function of its configuration: same seed, same
history, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .core import (ConfigError, ContractError, GenerationRecord, OperatorConfig, RunHistory, _check_run, _freeze,
                   _matrix, dominance_matrix, objective_matrix)
from .problems import ProblemSpec, evaluate_batch

__all__ = [
    "OperatorConfig",
    "RunConfig",
    "ReferenceDirectionSet",
    "fast_nondominated_sort",
    "crowding_distance",
    "sbx_crossover",
    "polynomial_mutation",
    "das_dennis",
    "default_partitions",
    "default_population_size",
    "nsga2_select",
    "nsga3_select",
    "run",
]

# History-header tag for the draw order of ``run``; emit writes it.
RNG_ALGORITHM = "numpy-pcg64"

_MAX_DIRECTIONS = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Run-level settings: population size, evaluation budget, seed, algorithm."""

    population_size: int
    evaluation_budget: int
    seed: int
    algorithm: str = "nsga2"

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ConfigError(f"population size must be even and at least 4, got {self.population_size}")
        _check_run(self.algorithm, self.population_size, self.evaluation_budget, self.seed, ConfigError)


@dataclass(frozen=True)
class ReferenceDirectionSet:
    """Unit-simplex directions used by NSGA-III niching."""

    directions: np.ndarray

    def __post_init__(self):
        dirs = _matrix(self.directions, None, "reference direction")
        if dirs.shape[1] < 2:
            raise ContractError("reference directions must form an (n, M) matrix with M >= 2")
        if not ((dirs >= 0).all() and (np.abs(dirs.sum(axis=1) - 1.0) <= 1e-12).all()):
            raise ContractError("each reference direction must be non-negative and sum to 1")
        _freeze(self, directions=dirs)

    def __len__(self) -> int:
        return self.directions.shape[0]


def fast_nondominated_sort(population) -> list[list[int]]:
    """Partition a population into Pareto fronts, best first.

    Returns index lists: front 0 is the non-dominated set, and each later
    front is non-dominated once every earlier front is removed.  Every
    input index appears in exactly one front; within a front, indices
    ascend.
    """
    y = objective_matrix(population)
    if y.shape[0] == 0:
        raise ContractError("population must be non-empty")
    dom = dominance_matrix(y)
    # A count is below n and never drops under zero (a member's dominators
    # all join earlier fronts), so the narrowest unsigned type holding n
    # sums exactly and makes the column sums cheaper.
    width = np.min_scalar_type(y.shape[0])
    counts = dom.sum(axis=0, dtype=width)
    assigned = np.zeros(y.shape[0], dtype=bool)
    fronts: list[list[int]] = []
    while not assigned.all():
        current = np.flatnonzero(~assigned & (counts == 0))
        fronts.append(current.tolist())
        assigned[current] = True
        counts -= dom[current].sum(axis=0, dtype=width)
    return fronts


def crowding_distance(front) -> np.ndarray:
    """Crowding distances for one front of objective vectors.

    Members extreme on any objective get infinity; interior members get
    the sum over objectives of (next neighbour - previous neighbour)
    divided by that objective's range.  Fronts of one or two members are
    all-infinite, and an objective with zero range contributes nothing.
    """
    y = objective_matrix(front)
    n = y.shape[0]
    if n <= 2:
        return np.full(n, np.inf)
    d = np.zeros(n)
    for m in range(y.shape[1]):
        order = np.argsort(y[:, m], kind="stable")
        ys = y[order, m]
        span = ys[-1] - ys[0]
        d[order[0]] = np.inf
        d[order[-1]] = np.inf
        if span > 0:
            d[order[1:-1]] += (ys[2:] - ys[:-2]) / span
    return d


def _sbx_kernel(p1, p2, u, eta: float):
    """SBX children of parents ``p1``/``p2`` from uniforms ``u`` (any equal shapes)."""
    exponent = 1.0 / (eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)


def _pm_kernel(x, coins, u, config: OperatorConfig) -> np.ndarray:
    """Polynomial mutation of ``x`` from mutation coins and perturbation uniforms (equal shapes)."""
    out = x.copy()
    mask = coins < config.mutation_probability
    if not mask.any():
        return out
    xm = x[mask]
    um = u[mask]
    power = 1.0 / (config.pm_eta + 1.0)
    # Distance to the lower/upper bound scales the perturbation.
    lower_side = um < 0.5
    delta = np.empty(xm.size)
    val_lo = 2.0 * um + (1.0 - 2.0 * um) * (1.0 - xm) ** (config.pm_eta + 1.0)
    val_hi = 2.0 * (1.0 - um) + 2.0 * (um - 0.5) * xm ** (config.pm_eta + 1.0)
    delta[lower_side] = val_lo[lower_side] ** power - 1.0
    delta[~lower_side] = 1.0 - val_hi[~lower_side] ** power
    out[mask] = np.clip(xm + delta, 0.0, 1.0)
    return out


def sbx_crossover(p1, p2, config: OperatorConfig, rng: np.random.Generator):
    """Simulated binary crossover of two decision vectors in [0, 1]^D.

    One uniform draw gates the whole pair: with probability
    1 - crossover_probability the parents are returned unchanged (as
    copies).  Otherwise every variable is crossed with its own spread
    factor beta(u), which preserves the parent mean per variable before
    clamping to the box.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape or p1.ndim != 1:
        raise ContractError(f"parents must be equal-length vectors, got shapes {p1.shape} and {p2.shape}")
    if rng.random() >= config.crossover_probability:
        return p1.copy(), p2.copy()
    return _sbx_kernel(p1, p2, rng.random(p1.size), config.sbx_eta)


def polynomial_mutation(x, config: OperatorConfig, rng: np.random.Generator) -> np.ndarray:
    """Bounded polynomial mutation of a decision vector in [0, 1]^D.

    Each variable mutates independently with probability
    mutation_probability; the perturbation size shrinks near the box
    bounds so the result stays feasible.  Exactly 2 D uniform draws are
    consumed per call (mutation coins, then perturbation draws),
    regardless of which variables actually mutate.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ContractError("polynomial_mutation expects a single decision vector")
    coins = rng.random(x.size)
    return _pm_kernel(x, coins, rng.random(x.size), config)


def _vary(X: np.ndarray, parents: np.ndarray, config: OperatorConfig, rng: np.random.Generator) -> np.ndarray:
    """Offspring of consecutive parent pairs: SBX, then polynomial mutation of each child.

    Draws exactly what ``sbx_crossover`` then two ``polynomial_mutation``
    calls per pair would, in the same order, and applies each operator
    once to the whole batch.
    """
    pairs, D = X.shape[0] // 2, X.shape[1]
    crossed = np.zeros(pairs, dtype=bool)
    sbx_u = np.empty((pairs, D))
    pm_u = np.empty((pairs, 4, D))  # coins, perturbations for child 1, then child 2
    for k in range(pairs):
        if rng.random() < config.crossover_probability:
            crossed[k] = True
            rng.random(out=sbx_u[k])
        rng.random(out=pm_u[k])
    first, second = X[parents[0::2]], X[parents[1::2]]
    first[crossed], second[crossed] = _sbx_kernel(first[crossed], second[crossed], sbx_u[crossed], config.sbx_eta)
    offspring = np.empty_like(X)
    offspring[0::2] = _pm_kernel(first, pm_u[:, 0], pm_u[:, 1], config)
    offspring[1::2] = _pm_kernel(second, pm_u[:, 2], pm_u[:, 3], config)
    return offspring


def das_dennis(M: int, p: int) -> ReferenceDirectionSet:
    """All simplex-lattice directions with M components drawn from {0, 1/p, ..., 1}.

    Enumerates, in ascending lexicographic order, every vector of M
    non-negative multiples of 1/p summing to 1; there are C(M+p-1, p) of
    them.  ``p`` is a positive int, and not a bool.
    """
    if type(p) is bool or not isinstance(p, int) or p < 1:
        raise ContractError(f"partition count must be a positive integer, got {p!r}")
    if M < 2:
        raise ContractError(f"das_dennis needs M >= 2, got M={M}")
    count = comb(M + p - 1, p)
    if count > _MAX_DIRECTIONS:
        raise ConfigError(f"M={M}, p={p} would generate {count} directions (limit {_MAX_DIRECTIONS})")
    # Stars and bars: M - 1 bar positions among p + M - 1 slots, in ascending
    # order, split p stars into M counts, in ascending lexicographic order.
    bars = np.array(list(combinations(range(p + M - 1), M - 1)))
    counts = np.diff(bars, axis=1, prepend=-1, append=p + M - 1) - 1
    return ReferenceDirectionSet(directions=counts / p)


def default_partitions(M: int) -> int:
    """Conventional Das-Dennis partition count for M objectives."""
    table = {2: 99, 3: 12, 4: 8, 5: 6, 6: 5, 7: 4}
    if M in table:
        return table[M]
    p = 1
    while comb(M + p, p + 1) <= 300:
        p += 1
    return p


def default_population_size(M: int) -> int:
    """Das-Dennis direction count for M, rounded up to a multiple of 4."""
    count = comb(M + default_partitions(M) - 1, default_partitions(M))
    return count + (-count % 4)


def _fill(y: np.ndarray, target_size: int) -> tuple[list[int], list[int]]:
    """Whole fronts in rank order while they fit, and the front that overflows ([] if none does)."""
    if target_size < 1 or target_size > y.shape[0]:
        raise ContractError(f"cannot select {target_size} from {y.shape[0]} candidates")
    selected: list[int] = []
    for front in fast_nondominated_sort(y):
        if len(selected) + len(front) > target_size:
            return selected, front
        selected.extend(front)
        if len(selected) == target_size:
            break
    return selected, []


def nsga2_select(population, target_size: int) -> list[int]:
    """Elitist NSGA-II selection: indices of the ``target_size`` survivors.

    Whole fronts are taken in rank order; the front that overflows is cut
    by descending crowding distance, ties broken by lower original index.
    """
    y = objective_matrix(population)
    selected, front = _fill(y, target_size)
    if front:
        order = np.lexsort((front, -crowding_distance(y[front])))
        selected.extend(front[i] for i in order[: target_size - len(selected)])
    return selected


def _normalise(translated: np.ndarray) -> np.ndarray:
    """Scale translated objectives by the extreme-point hyperplane intercepts.

    Falls back to per-axis maxima when the extreme-point system is
    singular or yields nonsense intercepts; an axis with zero spread is
    divided by 1.
    """
    # Per axis, the row minimising the achievement scalar weighted towards that axis.
    M = translated.shape[1]
    weights = np.full((M, M), 1e-6) + np.eye(M)
    extreme = translated[np.argmin(np.max(translated[:, None, :] / weights, axis=2), axis=0)]
    intercepts = None
    try:
        plane = np.linalg.solve(extreme, np.ones(extreme.shape[0]))
        with np.errstate(divide="ignore", over="ignore"):
            candidate = 1.0 / plane
        if np.isfinite(candidate).all() and (candidate > 0).all():
            intercepts = candidate
    except np.linalg.LinAlgError:
        pass
    if intercepts is None:
        intercepts = translated.max(axis=0)
    intercepts = np.where(intercepts > 1e-12, intercepts, 1.0)
    return translated / intercepts


def nsga3_select(population, target_size: int, directions: ReferenceDirectionSet,
                 rng: np.random.Generator) -> list[int]:
    """Reference-direction NSGA-III selection: indices of the survivors.

    Fronts fill in rank order as in NSGA-II; the overflowing front is
    resolved by niching: objectives are translated by the ideal point of
    the candidate set, normalised by hyperplane intercepts through the
    per-axis extreme points, and associated to the nearest reference
    direction by perpendicular distance.  Members are then admitted
    level by level.  Level c lists, in ascending order, the directions
    with c survivors and a candidate left; a random draw from the list
    picks one, which admits a member and moves up to level c + 1, until
    the list is empty or the target is met.  At level 0 a direction
    admits its closest candidate (ties by lower position), above it a
    random one.  Every random choice comes from ``rng``; a one-direction
    list draws nothing.
    """
    y = objective_matrix(population)
    if y.shape[1] != directions.directions.shape[1]:
        raise ContractError("reference directions and objectives disagree on M")
    selected, last = _fill(y, target_size)
    if not last:
        return selected

    considered = selected + last
    sub = y[considered]
    normalised = _normalise(sub - sub.min(axis=0))

    dirs = directions.directions
    unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    # Perpendicular distance sqrt(max(|v|^2 - (v.u)^2, 0)), built in place in one buffer.
    dist = normalised @ unit.T
    dist *= dist
    np.subtract(np.sum(normalised * normalised, axis=1)[:, None], dist, out=dist)
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    assoc = np.argmin(dist, axis=1)

    niche = np.bincount(assoc[: len(selected)], minlength=len(directions)).tolist()
    # pools[j]: positions (into `considered`) of unselected last-front members
    # vying for direction j, ascending, with j ascending; a direction leaves
    # once its pool is empty.  closest[j]: the member of j's pool nearest to
    # it, ties by lower position.
    candidates = np.arange(len(selected), len(considered))
    candidate_dirs = assoc[candidates]
    by_direction = np.argsort(candidate_dirs, kind="stable")
    sorted_dirs = candidate_dirs[by_direction]
    starts = np.flatnonzero(np.diff(sorted_dirs, prepend=-1))
    bounds = [*starts.tolist(), len(candidates)]
    members = candidates[by_direction].tolist()
    keys = sorted_dirs[starts].tolist()
    pools = {j: members[a:b] for j, a, b in zip(keys, bounds, bounds[1:])}
    nearest = np.lexsort((candidates, dist[candidates, candidate_dirs], candidate_dirs))
    closest = dict(zip(keys, candidates[nearest[starts]].tolist()))

    while len(selected) < target_size:
        # A pick moves its direction up exactly one level, so the next level
        # is complete once this one is used up.
        count = min(niche[j] for j in pools)
        level = [j for j in pools if niche[j] == count]
        picks = min(len(level), target_size - len(selected))
        if count == 0:
            # Level 0 draws only directions, with bounds L, L-1, ..., 2 (a
            # last pick from one direction draws nothing); numpy's
            # array-bound integers consumes the stream as those scalar
            # calls do, so one call draws them all.
            draws = iter(rng.integers(0, np.arange(len(level), 1, -1)[:picks]).tolist() + [0])
        for _ in range(picks):
            if count == 0:
                j = level.pop(next(draws))
                pos = closest[j]
                pools[j].remove(pos)
            else:
                j = level.pop(int(rng.integers(len(level))) if len(level) > 1 else 0)
                pos = pools[j].pop(int(rng.integers(len(pools[j]))))
            if not pools[j]:
                del pools[j]
            niche[j] += 1
            selected.append(considered[pos])
    return selected


def _rank_and_crowding(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rank = np.empty(y.shape[0], dtype=np.int64)
    crowd = np.empty(y.shape[0])
    for r, front in enumerate(fast_nondominated_sort(y)):
        rank[front] = r
        crowd[front] = crowding_distance(y[front])
    return rank, crowd


def run(spec: ProblemSpec, run_config: RunConfig,
        operator_config: OperatorConfig | None = None) -> RunHistory:
    """Execute one optimisation run and record every generation.

    The initial population is uniform random in [0, 1]^D and counts
    against the budget; the loop then breeds a full population of
    offspring per generation (binary rank/crowding tournaments for
    NSGA-II, uniform-random parents for NSGA-III), applies SBX and
    polynomial mutation, and keeps the best ``population_size`` of
    parents plus offspring.  It stops once consumed evaluations reach the
    budget, so the history holds ceil(budget / population_size)
    generations including generation 0.

    Draw order: the initial population takes pop × D uniforms.  Each
    generation then draws its parents (pop × 2 tournament integers for
    NSGA-II, pop integers for NSGA-III), and for each parent pair k in
    turn one crossover gate uniform, D SBX uniforms if the gate is below
    ``crossover_probability``, then D mutation coins and D perturbation
    uniforms for child 1 and the same for child 2.  NSGA-III niching
    draws last, in ``nsga3_select``.
    """
    if operator_config is None:
        operator_config = OperatorConfig()
    pop = run_config.population_size
    rng = np.random.Generator(np.random.PCG64(run_config.seed))

    X = rng.random((pop, spec.D))
    Y = evaluate_batch(spec, X)
    evaluations = pop
    generations = [GenerationRecord(0, X, Y)]

    directions = None
    if run_config.algorithm == "nsga3":
        directions = das_dennis(spec.M, default_partitions(spec.M))

    t = 0
    while evaluations < run_config.evaluation_budget:
        t += 1
        if run_config.algorithm == "nsga2":
            rank, crowd = _rank_and_crowding(Y)
            cand = rng.integers(0, pop, size=(pop, 2))
            a, b = cand[:, 0], cand[:, 1]
            b_wins = (rank[b] < rank[a]) | ((rank[b] == rank[a]) & (crowd[b] > crowd[a]))
            parents = np.where(b_wins, b, a)
        else:
            parents = rng.integers(0, pop, size=pop)

        offspring = _vary(X, parents, operator_config, rng)
        off_Y = evaluate_batch(spec, offspring)
        evaluations += pop

        pool_X = np.vstack([X, offspring])
        pool_Y = np.vstack([Y, off_Y])
        if run_config.algorithm == "nsga2":
            keep = nsga2_select(pool_Y, pop)
        else:
            keep = nsga3_select(pool_Y, pop, directions, rng=rng)
        X, Y = pool_X[keep], pool_Y[keep]
        generations.append(GenerationRecord(t, X, Y))

    return RunHistory(
        problem=spec.name,
        M=spec.M,
        D=spec.D,
        algorithm=run_config.algorithm,
        population_size=pop,
        evaluation_budget=run_config.evaluation_budget,
        seed=run_config.seed,
        operators=operator_config,
        generations=tuple(generations),
    )
