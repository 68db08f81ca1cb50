"""Scalable DTLZ benchmark evaluators (DTLZ1-4 and DTLZ7).

Each problem has M objectives and D = k + M - 1 decision variables in
[0, 1]: the first M - 1 variables position a point on the Pareto front,
the trailing k "distance" variables control how far the image sits from
the front.  Distance functions:

    g_rastrigin(x) = 100 * (k + sum((x_i - 0.5)^2 - cos(20*pi*(x_i - 0.5))))
    g_sphere(x)    = sum((x_i - 0.5)^2)

Both are minimised to 0 exactly when every distance variable is 0.5.
DTLZ7 instead uses g(x) = 1 + (9/k) * sum(x_i), minimised at 0.  At its
distance optimum each problem sits on its true front: the plane
sum(f) = 0.5 for DTLZ1, the unit sphere ||f|| = 1 for DTLZ2/3/4, and the
disconnected DTLZ7 surface at g = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PROBLEM_NAMES, ConfigError, _check_choice, decision_matrix, objective_vector

__all__ = ["ProblemSpec", "make_spec", "evaluate_batch", "front_residual", "DEFAULT_K"]

# Distance-variable counts per problem, in PROBLEM_NAMES order; the
# remaining M-1 variables are positional.
DEFAULT_K = dict(zip(PROBLEM_NAMES, (5, 10, 10, 10, 20)))

_DTLZ4_ALPHA = 100.0


@dataclass(frozen=True)
class ProblemSpec:
    """A fully resolved problem instance: name, M objectives, k distance vars, D = k + M - 1 variables."""

    name: str
    M: int
    k: int

    def __post_init__(self):
        _check_choice("problem", self.name, PROBLEM_NAMES, ConfigError)
        if self.M < 2:
            raise ConfigError(f"M must be at least 2, got {self.M}")
        if self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")

    @property
    def D(self) -> int:
        return self.k + self.M - 1


def make_spec(name: str, M: int, k: int | None = None) -> ProblemSpec:
    """Build a ProblemSpec from a name in any case, filling in the conventional k when not given."""
    name = str(name).lower()
    # ProblemSpec refuses an unknown name before it reads k, so the 0 is never used.
    return ProblemSpec(name=name, M=int(M), k=DEFAULT_K.get(name, 0) if k is None else int(k))


def _g_rastrigin(x_dist: np.ndarray) -> np.ndarray:
    z = x_dist - 0.5
    k = x_dist.shape[-1]
    return 100.0 * (k + np.sum(z * z - np.cos(20.0 * np.pi * z), axis=-1))


def _g_sphere(x_dist: np.ndarray) -> np.ndarray:
    z = x_dist - 0.5
    return np.sum(z * z, axis=-1)


def _front_shape(scale: np.ndarray, lead: list, trail: list) -> np.ndarray:
    """Objective i = scale × lead[0] × … × lead[M-2-i], times trail[M-1-i] for i > 0.

    ``lead`` and ``trail`` hold one column per positional variable, so M = len(lead) + 1.
    """
    M = len(lead) + 1
    f = np.empty((scale.shape[0], M))
    for i in range(M):
        v = scale
        for column in lead[: M - 1 - i]:
            v = v * column
        if i > 0:
            v = v * trail[M - 1 - i]
        f[:, i] = v
    return f


def _dtlz7(x_pos: np.ndarray, x_dist: np.ndarray, M: int) -> np.ndarray:
    k = x_dist.shape[1]
    g = 1.0 + (9.0 / k) * np.sum(x_dist, axis=1)
    f = np.empty((x_pos.shape[0], M))
    f[:, : M - 1] = x_pos
    ratio = f[:, : M - 1] / (1.0 + g)[:, None]
    h = M - np.sum(ratio * (1.0 + np.sin(3.0 * np.pi * f[:, : M - 1])), axis=1)
    f[:, M - 1] = (1.0 + g) * h
    return f


def evaluate_batch(spec: ProblemSpec, X) -> np.ndarray:
    """Evaluate a whole population at once.

    ``X`` is an (n, D) matrix of decision vectors in [0, 1]; the result is
    the (n, M) matrix of objective values.  Deterministic and pure.
    """
    X = decision_matrix(X, spec.D)
    M = spec.M
    x_pos, x_dist = X[:, : M - 1], X[:, M - 1 :]
    if spec.name == "dtlz7":
        return _dtlz7(x_pos, x_dist, M)
    if spec.name == "dtlz1":
        return _front_shape(0.5 * (1.0 + _g_rastrigin(x_dist)), list(x_pos.T), list(1.0 - x_pos.T))
    # DTLZ2/3/4: the unit sphere, scaled by 1 + g, at the angles x·π/2 (x^α for DTLZ4).
    g = (_g_rastrigin if spec.name == "dtlz3" else _g_sphere)(x_dist)
    theta = (x_pos**_DTLZ4_ALPHA if spec.name == "dtlz4" else x_pos) * (np.pi / 2.0)
    # cos and sin column by column: on a whole matrix numpy may take a loop that rounds differently.
    return _front_shape(1.0 + g, [np.cos(t) for t in theta.T], [np.sin(t) for t in theta.T])


def front_residual(spec: ProblemSpec, y) -> float:
    """Distance-to-front proxy for an objective vector (0 on the true front).

    DTLZ1 measures deviation from the plane sum(f) = 0.5, DTLZ2/3/4 from
    the unit sphere.  DTLZ7 compares the last objective against the
    smallest value it can take at g = 1 given the first M - 1 objectives;
    that is a residual along the f_M axis, not a Euclidean distance.
    """
    if not isinstance(spec, ProblemSpec):
        raise ConfigError(f"front_residual needs a ProblemSpec, got {type(spec).__name__}")
    y = objective_vector(y, n_objectives=spec.M)
    if spec.name == "dtlz1":
        return float(abs(np.sum(y) - 0.5))
    if spec.name in ("dtlz2", "dtlz3", "dtlz4"):
        return float(abs(np.linalg.norm(y) - 1.0))
    # dtlz7: at the optimum g = 1, so f_M = 2 * h(f_1 .. f_{M-1}).
    front = y[:-1]
    h = spec.M - np.sum(front / 2.0 * (1.0 + np.sin(3.0 * np.pi * front)))
    return float(abs(y[-1] - 2.0 * h))
