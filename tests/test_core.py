import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evohist import (
    ContractError,
    GenerationRecord,
    Individual,
    OperatorConfig,
    RunHistory,
    dominates,
    non_dominated_subset,
)
from evohist.core import dominance_matrix

vectors = st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=5)


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            dominates((1, 2), (1, 2, 3))

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
        got = dominance_matrix(y)
        assert got.dtype == bool and got.shape == (n, n)
        assert np.array_equal(got, dominance_by_broadcast(y))


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


class TestValueTypes:
    def test_individual_validates_and_freezes(self):
        ind = Individual([0.5, 0.5], [1.0, 2.0])
        assert not ind.x.flags.writeable and not ind.y.flags.writeable
        with pytest.raises(ContractError, match="variable 1"):
            Individual([0.5, 1.5], [1.0, 2.0])
        with pytest.raises(ContractError):
            Individual([0.5, 0.5], [1.0, np.nan])

    def test_generation_record_checks_alignment(self):
        with pytest.raises(ContractError):
            GenerationRecord(0, np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ContractError):
            GenerationRecord(-1, np.zeros((2, 2)), np.zeros((2, 2)))
        rec = GenerationRecord(2, np.full((2, 3), 0.5), np.ones((2, 2)))
        assert rec.size == 2
        assert len(rec.members) == 2
        assert np.array_equal(rec.members[1].x, [0.5, 0.5, 0.5])

    def test_operator_config_bounds(self):
        with pytest.raises(ContractError):
            OperatorConfig(crossover_probability=1.2)
        with pytest.raises(ContractError):
            OperatorConfig(mutation_probability=-0.1)
        with pytest.raises(ContractError):
            OperatorConfig(sbx_eta=0)

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
