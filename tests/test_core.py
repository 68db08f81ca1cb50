import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evohist import (
    ContractError,
    GenerationRecord,
    OperatorConfig,
    RunHistory,
    non_dominated_subset,
)
from conftest import synthetic_history
from evohist.core import decision_matrix, dominance_matrix, objective_matrix
from evohist.embedding import Embedding
from evohist.metrics import ExplorationProfile, HypervolumeTrace, hypervolume_exact, hypervolume_trace
from evohist.problems import front_residual, make_spec
from evohist.optimizer import ReferenceDirectionSet

vectors = st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=5)


def dominates(a, b):
    """Pairwise dominance read off the package's matrix form."""
    return bool(dominance_matrix(np.stack((a, b)))[0, 1])


def dominates_by_definition(a, b):
    """Pareto dominance one pair at a time; the oracle for the package's matrix form."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool((a <= b).all() and (a < b).any())


def dominance_by_broadcast(y):
    """The n×n×M broadcast form of the dominance matrix; the oracle for the per-column one."""
    le = (y[:, None, :] <= y[None, :, :]).all(axis=2)
    lt = (y[:, None, :] < y[None, :, :]).any(axis=2)
    return le & lt


def brute_force_nds(points):
    n = len(points)
    return [i for i in range(n)
            if not any(dominates_by_definition(points[j], points[i]) for j in range(n) if j != i)]


class TestDominates:
    def test_strict_improvement_one_coordinate(self):
        assert dominates((1, 2, 3), (2, 2, 3))

    def test_identical_vectors_do_not_dominate(self):
        assert not dominates((1, 2), (1, 2))

    def test_mutual_non_domination(self):
        assert not dominates((1, 3), (3, 1))
        assert not dominates((3, 1), (1, 3))

    @given(st.data())
    def test_matches_definition(self, data):
        m = data.draw(st.integers(1, 5))
        grid = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m, max_size=m)
        a, b = data.draw(grid), data.draw(grid)
        assert dominates(a, b) == dominates_by_definition(a, b)
        assert dominates(b, a) == dominates_by_definition(b, a)

    @given(vectors)
    def test_irreflexive(self, a):
        assert not dominates(a, a)

    @given(st.data())
    def test_antisymmetric(self, data):
        a = data.draw(vectors)
        b = data.draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=len(a), max_size=len(a)))
        assert not (dominates(a, b) and dominates(b, a))

    @given(st.data())
    @settings(max_examples=200)
    def test_transitive(self, data):
        m = data.draw(st.integers(2, 4))
        coord = st.floats(0, 3, allow_nan=False)
        a, b, c = (data.draw(st.lists(coord, min_size=m, max_size=m)) for _ in range(3))
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestDominanceMatrix:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_identical_to_broadcast(self, data):
        n, m = data.draw(st.integers(0, 300)), data.draw(st.integers(1, 7))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # A five-value grid makes ties and duplicate rows common.
        y = rng.integers(-2, 3, (n, m)) * 0.5
        y[rng.random((n, m)) < data.draw(st.floats(0, 0.3))] = np.inf
        y[rng.random((n, m)) < data.draw(st.floats(0, 0.3))] = -np.inf
        y[rng.random((n, m)) < data.draw(st.floats(0, 0.1))] = np.nan
        y[rng.random((n, m)) < data.draw(st.floats(0, 0.3))] *= -1.0  # 0.0 becomes -0.0
        got = dominance_matrix(y)
        assert got.dtype == bool and got.shape == (n, n)
        assert np.array_equal(got, dominance_by_broadcast(y))

    @pytest.mark.parametrize("n", [255, 256, 257, 300])
    def test_distinct_values_across_rank_widths(self, n):
        # n distinct values per column use every rank up to n - 1, on both
        # sides of the 8-bit limit.
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 4))
        y[rng.integers(0, n, 5), rng.integers(0, 4, 5)] = np.nan
        assert np.array_equal(dominance_matrix(y), dominance_by_broadcast(y))
        strided = y[:, :2]  # a column slice, not a contiguous matrix
        assert np.array_equal(dominance_matrix(strided), dominance_by_broadcast(strided))


class TestNonDominatedSubset:
    def test_singleton(self):
        assert non_dominated_subset([(1, 1)]) == [0]

    def test_dominated_point_excluded(self):
        assert non_dominated_subset([(0, 1), (1, 0), (1, 1)]) == [0, 1]

    def test_duplicates_coexist(self):
        assert non_dominated_subset([(1, 1), (1, 1)]) == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            non_dominated_subset(np.empty((0, 3)))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.random((50, 3))
        assert non_dominated_subset(pts) == brute_force_nds(pts)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_output_mutually_nondominating_and_covers_excluded(self, seed, m):
        pts = np.random.default_rng(seed).random((20, m)).round(1)
        kept = non_dominated_subset(pts)
        for i in kept:
            for j in kept:
                assert not dominates(pts[i], pts[j])
        for i in set(range(len(pts))) - set(kept):
            assert any(dominates(pts[j], pts[i]) for j in kept)


class TestContracts:
    @pytest.mark.parametrize("check", [objective_matrix, decision_matrix], ids=["objective", "decision"])
    @pytest.mark.parametrize("values", [[[0.5, 0.5], [0.5]], [0.5, 0.5], np.full((2, 2, 2), 0.5), [["a", 0.5]],
                                        [[None, 0.5]]], ids=["ragged", "1-D", "3-D", "text", "null"])
    def test_non_matrix_rejected(self, check, values):
        with pytest.raises(ContractError):
            check(values)

    @pytest.mark.parametrize("check", [objective_matrix, decision_matrix], ids=["objective", "decision"])
    def test_column_count(self, check):
        assert check(np.full((3, 2), 0.5), 2).shape == (3, 2)
        assert check(np.empty((0, 2)), 2).shape == (0, 2)
        with pytest.raises(ContractError, match=r"expected an \(n, 3\) .* got shape \(3, 2\)"):
            check(np.full((3, 2), 0.5), 3)

    @pytest.mark.parametrize("call", [
        lambda v: hypervolume_exact([[0.5, 0.5, 0.5]], v),
        lambda v: hypervolume_trace(synthetic_history([np.full((2, 2), 0.5)], [np.eye(2)]), v),
        lambda v: front_residual(make_spec("dtlz2", 3), v),
    ], ids=["hypervolume_exact", "hypervolume_trace", "front_residual"])
    @pytest.mark.parametrize("values", ["Auto", ["a", 1.0, 1.0], [1.0, [1.0], 1.0], {"x": 1.0}],
                             ids=["text", "text-entry", "ragged", "mapping"])
    def test_non_numeric_objective_vector(self, call, values):
        """Every objective vector a caller passes goes through one conversion, so no input escapes as a bare numpy error."""
        with pytest.raises(ContractError, match="objective vector must be a non-empty 1-D sequence of numbers"):
            call(values)

    @pytest.mark.parametrize("build, field", [
        (lambda a: GenerationRecord(0, a, a), "x"),
        (lambda a: GenerationRecord(0, a, a), "y"),
        (lambda a: Embedding("search", a[:, 0], a[:, 1], [0, 0], [0, 1], 1), "e1"),
        (lambda a: ExplorationProfile("search", a[:, 0], a), "score"),
        (lambda a: HypervolumeTrace(a[0], a[:, 0]), "reference_point"),
        (lambda a: ReferenceDirectionSet(a), "directions"),
    ], ids=["record-x", "record-y", "embedding", "profile", "trace-reference", "directions"])
    def test_fields_are_read_only_copies(self, build, field):
        """Each array a value type stores is its own read-only copy; the caller's stays writeable."""
        given_array = np.array([[0.25, 0.75], [0.75, 0.25]])
        value = build(given_array)
        stored = getattr(value, field)
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, given_array)
        assert given_array.flags.writeable


class TestValueTypes:
    def test_generation_record_checks_alignment(self):
        with pytest.raises(ContractError):
            GenerationRecord(0, np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ContractError):
            GenerationRecord(-1, np.zeros((2, 2)), np.zeros((2, 2)))
        rec = GenerationRecord(2, np.full((2, 3), 0.5), np.ones((2, 2)))
        assert rec.size == 2
        assert np.array_equal(rec.x[1], [0.5, 0.5, 0.5])

    def test_operator_config_bounds(self):
        with pytest.raises(ContractError):
            OperatorConfig(crossover_probability=1.2)
        with pytest.raises(ContractError):
            OperatorConfig(mutation_probability=-0.1)
        with pytest.raises(ContractError):
            OperatorConfig(sbx_eta=0)
        for eta in (np.nan, np.inf):
            with pytest.raises(ContractError, match="finite"):
                OperatorConfig(sbx_eta=eta)
            with pytest.raises(ContractError, match="finite"):
                OperatorConfig(pm_eta=eta)

    def test_run_history_orders_generations(self):
        good = [GenerationRecord(t, np.full((2, 3), 0.5), np.ones((2, 2))) for t in range(3)]
        h = RunHistory("dtlz2", 2, 3, "nsga2", 2, 6, 0, generations=tuple(good))
        assert h.n_generations == 3
        bad = (good[0], good[2])
        with pytest.raises(ContractError, match="order"):
            RunHistory("dtlz2", 2, 3, "nsga2", 2, 6, 0, generations=bad)
        with pytest.raises(ContractError):
            RunHistory("dtlz2", 2, 3, "nsga2", 2, 6, 0, generations=())

    def test_run_history_checks_population_size(self):
        gens = (GenerationRecord(0, np.full((4, 3), 0.5), np.ones((4, 2))),)
        with pytest.raises(ContractError, match="population"):
            RunHistory("dtlz2", 2, 3, "nsga2", 2, 6, 0, generations=gens)
