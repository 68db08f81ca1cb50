"""Shared domain types and Pareto-dominance primitives.

Everything downstream (problems, optimisers, embeddings, metrics, file
formats) works in terms of the value types and input checks defined here.
All types are immutable: ``_freeze`` stores the wrapped numpy arrays as
defensive copies with the writeable flag cleared, so records can be
shared freely between threads.

Minimisation is assumed throughout: an objective vector ``a`` dominates
``b`` iff ``a`` is no worse on every objective and strictly better on at
least one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ContractError",
    "ConfigError",
    "objective_vector",
    "objective_matrix",
    "decision_matrix",
    "non_dominated_subset",
    "dominance_matrix",
    "GenerationRecord",
    "OperatorConfig",
    "RunHistory",
]


class ContractError(ValueError):
    """An argument violated a documented precondition or invariant."""


class ConfigError(ValueError):
    """An invalid or unknown configuration value."""


def objective_vector(values, n_objectives: int | None = None) -> np.ndarray:
    """Validate an objective vector: 1-D, every entry finite."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ContractError("objective vector must be a non-empty 1-D sequence")
    if n_objectives is not None and y.size != n_objectives:
        raise ContractError(f"objective vector has length {y.size}, expected {n_objectives}")
    if not np.isfinite(y).all():
        i = int(np.flatnonzero(~np.isfinite(y))[0])
        raise ContractError(f"objective {i} = {y[i]} is not finite")
    return y


def _matrix(values, columns: int | None, kind: str) -> np.ndarray:
    """``values`` as a 2-D float array, with ``columns`` columns unless that is None."""
    try:
        m = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, or entries that are not numbers
        raise ContractError(f"{kind} matrix must be equal-length rows of numbers: {exc}") from None
    if m.ndim != 2 or columns not in (None, m.shape[1]):
        width = "a 2-D" if columns is None else f"an (n, {columns})"
        raise ContractError(f"expected {width} {kind} matrix, got shape {m.shape}")
    return m


def objective_matrix(values, n_objectives: int | None = None) -> np.ndarray:
    """Validate a matrix of objective vectors, one per row: 2-D, every entry finite.

    Any number of rows, zero included; callers that need members say so.
    """
    y = _matrix(values, n_objectives, "objective")
    bad = ~np.isfinite(y)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ContractError(f"objective {c} = {y[r, c]} in row {r} is not finite")
    return y


def decision_matrix(values, n_variables: int | None = None) -> np.ndarray:
    """Validate a matrix of decision vectors, one per row: 2-D, every variable in [0, 1].

    NaN lies outside [0, 1].  The error names the first bad variable in row-major order.
    """
    x = _matrix(values, n_variables, "decision")
    bad = ~((x >= 0.0) & (x <= 1.0))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ContractError(f"decision variable {c} = {x[r, c]} lies outside [0, 1]")
    return x


def _freeze(record, **values) -> None:
    """Set fields of the frozen dataclass ``record``; each ndarray is stored as a read-only copy."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value = np.array(value)
            value.flags.writeable = False
        object.__setattr__(record, name, value)


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Boolean matrix ``dom`` with ``dom[i, j]`` true iff row i dominates row j.

    Compares one objective column at a time into an n×n accumulator
    ``le[i, j]`` (row i is no worse than row j on every objective), so no
    n×n×M temporary is built.  Where ``le[i, j]`` holds, "strictly better
    somewhere" is exactly ``not le[j, i]``, so dominance is ``le & ~le.T``,
    which on booleans is the single comparison ``le > le.T``.

    The columns are compared as integer ranks, not as float64 values.  A
    value's rank is the number of distinct column values below it, read
    off the sorted column by counting where it changes value, so for any
    two non-NaN entries ``a <= b`` exactly when ``rank(a) <= rank(b)``:
    the map keeps order and ties (``-0.0`` ties ``0.0``, infinities rank
    at the ends).  Ranks are below n, so they fit
    ``np.min_scalar_type(n - 1)`` (uint8 up to n = 256), and the n×n
    comparisons run on narrow integers.  A NaN compares false with
    everything, so a row holding one is no worse than no row and no row
    is no worse than it: its row and column of ``le`` are cleared, exactly
    as the float comparisons would leave them.
    """
    y = np.asarray(objectives, dtype=float)
    n = y.shape[0]
    columns = np.ascontiguousarray(y.T)
    order = np.argsort(columns, axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    steps = np.zeros(columns.shape, dtype=np.min_scalar_type(max(n - 1, 0)))
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:], casting="unsafe")
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps.cumsum(axis=1, dtype=steps.dtype), axis=1)
    le = np.ones((n, n), dtype=bool)
    cmp = np.empty((n, n), dtype=bool)
    for rank in ranks:
        np.less_equal(rank[:, None], rank, out=cmp)
        le &= cmp
    # argsort places NaN last, so only a column whose largest entry is NaN holds one.
    if n and np.isnan(ordered[:, -1]).any():
        nan = np.isnan(y).any(axis=1)
        le[nan] = False
        le[:, nan] = False
    return np.greater(le, le.T)


def non_dominated_subset(points) -> list[int]:
    """Indices of the non-dominated members of a set of objective vectors.

    Returns a sorted list of every index i such that no other point
    dominates ``points[i]``.  Duplicated vectors are mutually
    non-dominating, so all copies survive.
    """
    y = objective_matrix(points)
    if y.shape[0] == 0:
        raise ContractError("non_dominated_subset needs a non-empty point set")
    dom = dominance_matrix(y)
    return [int(i) for i in np.flatnonzero(~dom.any(axis=0))]


@dataclass(frozen=True)
class GenerationRecord:
    """One full population snapshot at generation ``generation``.

    Decision and objective vectors are stored row-aligned: member i of the
    population is ``(x[i], y[i])``.
    """

    generation: int
    x: np.ndarray  # (population, n_vars)
    y: np.ndarray  # (population, n_objectives)

    def __post_init__(self):
        if int(self.generation) != self.generation or self.generation < 0:
            raise ContractError(f"generation index must be a non-negative integer, got {self.generation}")
        x, y = decision_matrix(self.x), objective_matrix(self.y)
        if x.shape[0] != y.shape[0] or x.shape[0] == 0:
            raise ContractError("generation members must form non-empty row-aligned x/y matrices")
        _freeze(self, generation=int(self.generation), x=x, y=y)

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class OperatorConfig:
    """Variation-operator parameters.

    ``mutation_probability`` applies independently per decision variable.
    The distribution indices control perturbation size: larger values keep
    children closer to their parents.
    """

    crossover_probability: float = 0.8
    mutation_probability: float = 0.1
    sbx_eta: float = 15.0
    pm_eta: float = 7.0

    def __post_init__(self):
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ContractError(f"crossover probability {self.crossover_probability} outside [0, 1]")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ContractError(f"mutation probability {self.mutation_probability} outside [0, 1]")
        if not (0 < self.sbx_eta < np.inf and 0 < self.pm_eta < np.inf):
            raise ContractError("distribution indices must be finite and positive")


def _check_run_sizes(M: int, D: int, population_size: int) -> None:
    """A run needs at least two objectives, one decision variable and two members."""
    if M < 2:
        raise ContractError("a run needs at least two objectives")
    if D < 1:
        raise ContractError("a run needs at least one decision variable")
    if population_size < 2:
        raise ContractError("population size must be at least 2")


def _check_generation(record: GenerationRecord, t: int, M: int, D: int, population_size: int) -> None:
    """``record`` can stand at position t of a run with M objectives, D variables and population_size members."""
    if record.generation != t:
        raise ContractError(f"generation indices must be 0..n-1 in order; position {t} holds {record.generation}")
    if record.size != population_size:
        raise ContractError(f"generation {t} has {record.size} members, expected population size {population_size}")
    if record.x.shape[1] != D or record.y.shape[1] != M:
        raise ContractError(f"generation {t} does not match the declared D/M dimensions")


@dataclass(frozen=True)
class RunHistory:
    """An optimisation run: its configuration plus every generation in order.

    ``M`` is the number of objectives and ``D`` the number of decision
    variables.  ``generations[t]`` is the full population after t rounds of
    environmental selection; index 0 is the initial random population.
    Operator parameters ride along so serialised runs are self-describing.
    """

    problem: str
    M: int
    D: int
    algorithm: str
    population_size: int
    evaluation_budget: int
    seed: int
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    generations: tuple[GenerationRecord, ...] = ()

    def __post_init__(self):
        _check_run_sizes(self.M, self.D, self.population_size)
        gens = tuple(self.generations)
        if not gens:
            raise ContractError("a run history must contain at least one generation")
        for t, rec in enumerate(gens):
            _check_generation(rec, t, self.M, self.D, self.population_size)
        _freeze(self, generations=gens)

    @property
    def n_generations(self) -> int:
        return len(self.generations)
