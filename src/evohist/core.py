"""Shared domain types and Pareto-dominance primitives.

Everything downstream (problems, optimisers, embeddings, metrics, file
formats) works in terms of the value types defined here.  All types are
immutable: the wrapped numpy arrays are defensive copies with the
writeable flag cleared, so records can be shared freely between threads.

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
    "decision_vector",
    "objective_vector",
    "dominates",
    "non_dominated_subset",
    "dominance_matrix",
    "Individual",
    "GenerationRecord",
    "OperatorConfig",
    "RunHistory",
]


class ContractError(ValueError):
    """An argument violated a documented precondition or invariant."""


class ConfigError(ValueError):
    """An invalid or unknown configuration value."""


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def decision_vector(values, n_vars: int | None = None) -> np.ndarray:
    """Validate a decision vector: 1-D, every entry in [0, 1].

    Returns the values as a float array.  ``n_vars``, when given, pins the
    expected length.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ContractError("decision vector must be a non-empty 1-D sequence")
    if n_vars is not None and x.size != n_vars:
        raise ContractError(f"decision vector has length {x.size}, expected {n_vars}")
    bad = np.flatnonzero(~((x >= 0.0) & (x <= 1.0)))
    if bad.size:
        i = int(bad[0])
        raise ContractError(f"decision variable {i} = {x[i]} lies outside [0, 1]")
    return x


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


def dominates(a, b) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` under minimisation.

    ``a`` dominates ``b`` iff a_m <= b_m for every objective m and
    a_m < b_m for at least one.  Equal vectors never dominate each other.
    Comparisons are exact floating point; there is no epsilon.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise ContractError(
            f"dominance needs two equal-length vectors, got shapes {av.shape} and {bv.shape}"
        )
    return bool(dominance_matrix(np.stack((av, bv)))[0, 1])


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Boolean matrix ``dom`` with ``dom[i, j]`` true iff row i dominates row j.

    Compares one objective column at a time into two n×n accumulators, so
    no n×n×M temporary is built.
    """
    y = np.asarray(objectives, dtype=float)
    n = y.shape[0]
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in y.T:
        a, b = col[:, None], col[None, :]
        le &= a <= b
        lt |= a < b
    return le & lt


def non_dominated_subset(points) -> list[int]:
    """Indices of the non-dominated members of a set of objective vectors.

    Returns a sorted list of every index i such that no other point
    dominates ``points[i]``.  Duplicated vectors are mutually
    non-dominating, so all copies survive.
    """
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or y.shape[0] == 0:
        raise ContractError("non_dominated_subset needs a non-empty 2-D point set")
    dom = dominance_matrix(y)
    return [int(i) for i in np.flatnonzero(~dom.any(axis=0))]


@dataclass(frozen=True)
class Individual:
    """One candidate solution: a decision vector and its objective vector."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(decision_vector(self.x)))
        object.__setattr__(self, "y", _frozen(objective_vector(self.y)))


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
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
            raise ContractError("generation members must form non-empty row-aligned x/y matrices")
        if ((x < 0.0) | (x > 1.0)).any():
            raise ContractError(f"generation {self.generation} has decision variables outside [0, 1]")
        if not np.isfinite(y).all():
            raise ContractError(f"generation {self.generation} has non-finite objectives")
        object.__setattr__(self, "generation", int(self.generation))
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def members(self) -> tuple[Individual, ...]:
        return tuple(Individual(self.x[i], self.y[i]) for i in range(self.size))


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
        if self.sbx_eta <= 0 or self.pm_eta <= 0:
            raise ContractError("distribution indices must be positive")


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
        if self.M < 2:
            raise ContractError("a run needs at least two objectives")
        if self.D < 1:
            raise ContractError("a run needs at least one decision variable")
        if self.population_size < 2:
            raise ContractError("population size must be at least 2")
        gens = tuple(self.generations)
        if not gens:
            raise ContractError("a run history must contain at least one generation")
        for t, rec in enumerate(gens):
            if rec.generation != t:
                raise ContractError(
                    f"generation indices must be 0..n-1 in order; position {t} holds index {rec.generation}"
                )
            if rec.size != self.population_size:
                raise ContractError(
                    f"generation {t} has {rec.size} members, expected population size {self.population_size}"
                )
            if rec.x.shape[1] != self.D or rec.y.shape[1] != self.M:
                raise ContractError(f"generation {t} does not match the declared D/M dimensions")
        object.__setattr__(self, "generations", gens)

    @property
    def n_generations(self) -> int:
        return len(self.generations)
