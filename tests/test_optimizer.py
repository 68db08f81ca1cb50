from bisect import insort

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evohist import (
    ConfigError,
    ContractError,
    OperatorConfig,
    ReferenceDirectionSet,
    RunConfig,
    crowding_distance,
    das_dennis,
    fast_nondominated_sort,
    make_spec,
    non_dominated_subset,
    nsga2_select,
    nsga3_select,
    polynomial_mutation,
    run,
    sbx_crossover,
)
from evohist.optimizer import _normalise, _vary, default_partitions, default_population_size
from evohist.problems import evaluate_batch


class ScriptedRng:
    """Hands out a fixed list of uniforms so operator maths can be checked exactly."""

    def __init__(self, values):
        self._values = [float(v) for v in values]

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(int(size))])


def peel_off_fronts(points):
    """Reference front partition: repeatedly remove the non-dominated subset."""
    pts = np.asarray(points, dtype=float)
    remaining = list(range(len(pts)))
    fronts = []
    while remaining:
        nd = non_dominated_subset(pts[remaining])
        front = [remaining[i] for i in nd]
        fronts.append(front)
        kept = set(front)
        remaining = [i for i in remaining if i not in kept]
    return fronts


def recursive_das_dennis(M, p):
    """das_dennis's directions as the original recursive enumeration built them, kept as an oracle."""
    points = []

    def descend(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for c in range(remaining + 1):
            descend(prefix + [c], remaining - c, slots - 1)

    descend([], p, M)
    return np.array(points, dtype=float) / p


class TestSort:
    def test_chain_example(self):
        pts = [(0, 1), (1, 0), (1, 1), (2, 2)]
        assert fast_nondominated_sort(pts) == [[0, 1], [2], [3]]

    def test_single_front_when_mutually_nondominating(self):
        pts = [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert fast_nondominated_sort(pts) == [[0, 1, 2, 3]]

    def test_duplicates_share_a_front(self):
        assert fast_nondominated_sort([(1, 1), (1, 1), (2, 2)]) == [[0, 1], [2]]

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
    @settings(max_examples=25, deadline=None)
    def test_matches_peel_off_oracle(self, seed, m):
        pts = np.random.default_rng(seed).random((60, m)).round(2)
        assert fast_nondominated_sort(pts) == peel_off_fronts(pts)

    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_long_chain_counts_past_eight_bits(self, n):
        # Member k of a chain has k dominators, so counts reach n - 1.
        pts = np.repeat(np.arange(n, dtype=float)[::-1, None], 3, axis=1)
        assert fast_nondominated_sort(pts) == [[k] for k in range(n)[::-1]]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            fast_nondominated_sort(np.empty((0, 2)))

    @pytest.mark.parametrize("population", [[[0.0, 1.0], [1.0]], [0.0, 1.0, 2.0], np.zeros((2, 2, 2))],
                             ids=["ragged", "1-D", "3-D"])
    @pytest.mark.parametrize("take", [
        fast_nondominated_sort,
        crowding_distance,
        lambda y: nsga2_select(y, 1),
        lambda y: nsga3_select(y, 1, das_dennis(2, 1), rng=np.random.default_rng(0)),
    ], ids=["sort", "crowding", "nsga2", "nsga3"])
    def test_non_matrix_population_rejected(self, take, population):
        with pytest.raises(ContractError):
            take(population)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("take", [
        fast_nondominated_sort,
        crowding_distance,
        lambda y: nsga2_select(y, 2),
        lambda y: nsga3_select(y, 2, das_dennis(2, 1), rng=np.random.default_rng(0)),
        non_dominated_subset,
    ], ids=["sort", "crowding", "nsga2", "nsga3", "subset"])
    def test_non_finite_objective_rejected(self, take, value):
        population = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.5, 3.0]])
        population[2, 1] = value
        with pytest.raises(ContractError, match=f"objective 1 = {value} in row 2 is not finite"):
            take(population)


class TestCrowding:
    def test_small_fronts_all_infinite(self):
        assert np.all(np.isinf(crowding_distance([(1, 2)])))
        assert np.all(np.isinf(crowding_distance([(1, 2), (2, 1)])))

    def test_three_point_front(self):
        d = crowding_distance([(0, 2), (1, 1), (2, 0)])
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_duplicates_crowd_each_other_out(self):
        d = crowding_distance([(0, 2), (1, 1), (1, 1), (1, 1), (2, 0)])
        assert np.isinf(d[0]) and np.isinf(d[4])
        assert d[2] == pytest.approx(0.0)
        assert d[1] == pytest.approx(1.0) and d[3] == pytest.approx(1.0)

    def test_zero_range_objective_contributes_nothing(self):
        d = crowding_distance([(0, 5), (1, 5), (2, 5), (3, 5)])
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert d[1] == pytest.approx((2 - 0) / 3)
        assert d[2] == pytest.approx((3 - 1) / 3)


class TestSbx:
    config = OperatorConfig()

    def test_gate_skips_crossover(self):
        p1, p2 = np.array([0.2, 0.8]), np.array([0.4, 0.6])
        c1, c2 = sbx_crossover(p1, p2, self.config, ScriptedRng([0.9]))
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)
        assert c1 is not p1 and c2 is not p2

    def test_u_half_returns_parents(self):
        p1, p2 = np.array([0.2, 0.8, 0.3]), np.array([0.4, 0.6, 0.9])
        c1, c2 = sbx_crossover(p1, p2, self.config, ScriptedRng([0.0, 0.5, 0.5, 0.5]))
        assert np.allclose(c1, p1, atol=1e-12) and np.allclose(c2, p2, atol=1e-12)

    def test_identical_parents_are_a_fixed_point(self):
        p = np.array([0.3, 0.7])
        c1, c2 = sbx_crossover(p, p, self.config, ScriptedRng([0.0, 0.05, 0.95]))
        assert np.allclose(c1, p) and np.allclose(c2, p)

    def test_mean_preserved_away_from_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p1 = rng.uniform(0.4, 0.6, size=5)
            p2 = rng.uniform(0.4, 0.6, size=5)
            us = rng.uniform(0.05, 0.95, size=5)
            c1, c2 = sbx_crossover(p1, p2, self.config, ScriptedRng([0.0, *us]))
            assert np.allclose(c1 + c2, p1 + p2, atol=1e-12)
            assert (c1 >= 0).all() and (c1 <= 1).all()

    def test_children_stay_in_box(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p1, p2 = rng.random(6), rng.random(6)
            c1, c2 = sbx_crossover(p1, p2, self.config, rng)
            for c in (c1, c2):
                assert (c >= 0).all() and (c <= 1).all()

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            sbx_crossover(np.zeros(3), np.zeros(4), self.config, np.random.default_rng(0))


class TestMutation:
    config = OperatorConfig()

    def test_u_half_leaves_variable_unchanged(self):
        x = np.array([0.2, 0.5, 0.8])
        out = polynomial_mutation(x, OperatorConfig(mutation_probability=1.0),
                                  ScriptedRng([0.0, 0.0, 0.0, 0.5, 0.5, 0.5]))
        assert np.allclose(out, x, atol=1e-12)

    def test_zero_probability_is_identity(self):
        x = np.random.default_rng(1).random(8)
        out = polynomial_mutation(x, OperatorConfig(mutation_probability=0.0),
                                  np.random.default_rng(2))
        assert np.array_equal(out, x)
        assert out is not x

    def test_consumes_fixed_draws_regardless_of_mask(self):
        def next_draw_after(config):
            rng = np.random.default_rng(123)
            polynomial_mutation(np.full(5, 0.5), config, rng)
            return rng.random()

        assert next_draw_after(OperatorConfig(mutation_probability=0.0)) == \
            next_draw_after(OperatorConfig(mutation_probability=1.0))

    def test_result_stays_in_box(self):
        rng = np.random.default_rng(3)
        config = OperatorConfig(mutation_probability=1.0)
        for _ in range(100):
            out = polynomial_mutation(rng.random(6), config, rng)
            assert (out >= 0).all() and (out <= 1).all()

    def test_symmetric_around_centre(self):
        rng = np.random.default_rng(4)
        config = OperatorConfig(mutation_probability=1.0)
        samples = np.concatenate(
            [polynomial_mutation(np.full(100, 0.5), config, rng) for _ in range(1000)]
        )
        assert abs(samples.mean() - 0.5) < 0.01

    def test_matrix_input_rejected(self):
        with pytest.raises(ContractError):
            polynomial_mutation(np.zeros((2, 3)), self.config, np.random.default_rng(0))


class TestReferenceDirections:
    def test_single_partition_gives_axes(self):
        dirs = das_dennis(3, 1).directions
        assert np.array_equal(dirs, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_two_objective_grid(self):
        dirs = das_dennis(2, 4).directions
        assert np.allclose(dirs, [[0, 1], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1, 0]])

    def test_counts(self):
        assert len(das_dennis(3, 12)) == 91
        assert len(das_dennis(5, 6)) == 210

    def test_ascending_lexicographic_order(self):
        dirs = das_dennis(3, 3).directions
        rows = [tuple(r) for r in dirs]
        assert rows == sorted(rows)

    def test_rows_on_simplex(self):
        dirs = das_dennis(4, 5).directions
        assert np.allclose(dirs.sum(axis=1), 1.0)
        assert (dirs >= 0).all()

    @pytest.mark.parametrize("M", range(2, 9))
    def test_lattice_bytes_match_recursive_enumeration(self, M):
        for p in range(1, 13):
            got, expected = das_dennis(M, p).directions, recursive_das_dennis(M, p)
            assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())

    @pytest.mark.parametrize("p", [1.5, True, 0])
    def test_lattice_refuses_non_partition_counts(self, p):
        with pytest.raises(ContractError, match="partition count must be a positive integer"):
            das_dennis(3, p)

    def test_direction_count_limit(self):
        with pytest.raises(ConfigError):
            das_dennis(10, 20)

    def test_set_validation(self):
        with pytest.raises(ContractError):
            ReferenceDirectionSet(np.array([[0.5, 0.6]]), partitions=1)
        with pytest.raises(ContractError):
            ReferenceDirectionSet(np.array([[1.0, 0.0]]), partitions=1)  # count mismatch
        with pytest.raises(ContractError, match="non-negative and sum to 1"):
            ReferenceDirectionSet([[np.nan, np.nan], [0.0, 1.0]], partitions=1)
        for partitions in (1.5, True, 0):
            with pytest.raises(ContractError, match="partition count must be a positive integer"):
                ReferenceDirectionSet([[0.5, 0.5], [1.0, 0.0]], partitions=partitions)

    @pytest.mark.parametrize("directions, message", [
        ([[0.5, 0.5], [1.0]], "equal-length rows of numbers"),
        ([0.5, 0.5], r"expected a 2-D reference direction matrix, got shape \(2,\)"),
    ], ids=["ragged", "1-d"])
    def test_set_refuses_non_matrix_directions(self, directions, message):
        with pytest.raises(ContractError, match=message):
            ReferenceDirectionSet(directions, partitions=1)

    def test_default_tables(self):
        assert default_partitions(3) == 12
        assert default_partitions(5) == 6
        assert default_population_size(3) == 92
        assert default_population_size(5) == 212
        assert default_population_size(2) == 100


class TestNsga2Select:
    def test_hand_traced_cut(self):
        a = [(0, 3), (1, 2), (2, 1), (3, 0)]
        b = [(x + 0.5, y + 0.5) for x, y in a]
        picked = nsga2_select(np.array(a + b, dtype=float), 6)
        assert picked == [0, 1, 2, 3, 4, 7]

    def test_whole_front_fits(self):
        pts = np.array([(0, 1), (1, 0), (2, 2)], dtype=float)
        assert nsga2_select(pts, 2) == [0, 1]

    def test_selects_everything_when_target_is_full(self):
        pts = np.random.default_rng(0).random((10, 3))
        assert sorted(nsga2_select(pts, 10)) == list(range(10))

    def test_target_bounds(self):
        pts = np.random.default_rng(0).random((4, 2))
        with pytest.raises(ContractError):
            nsga2_select(pts, 0)
        with pytest.raises(ContractError):
            nsga2_select(pts, 5)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
    @settings(max_examples=50, deadline=None)
    def test_keeps_every_member_of_a_first_front_that_fits(self, seed, m):
        rng = np.random.default_rng(seed)
        pts = rng.random((int(rng.integers(4, 40)), m)).round(2)
        first = fast_nondominated_sort(pts)[0]
        target = int(rng.integers(len(first), len(pts) + 1))
        assert set(first) <= set(nsga2_select(pts, target))

    def test_index_tie_break_on_equal_crowding(self):
        # two identical interior points: equal (zero) crowding, lower index wins
        pts = np.array([(0, 3), (1, 2), (1, 2), (3, 0), (5, 5)], dtype=float)
        picked = nsga2_select(pts, 3)
        assert picked == [0, 3, 1]


class TestNsga3Select:
    def test_axis_points_claim_their_directions(self):
        pts = np.array([
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
            (0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6),
        ])
        dirs = das_dennis(3, 1)
        picked = nsga3_select(pts, 3, dirs, rng=np.random.default_rng(0))
        assert sorted(picked) == [0, 1, 2]

    def test_rank_prefix_property(self):
        rng = np.random.default_rng(21)
        pts = rng.random((60, 3))
        picked = nsga3_select(pts, 30, das_dennis(3, 4), rng=rng)
        assert len(picked) == 30 and len(set(picked)) == 30
        rank = np.empty(60, dtype=int)
        for r, front in enumerate(fast_nondominated_sort(pts)):
            rank[front] = r
        worst = max(rank[i] for i in picked)
        better = {i for i in range(60) if rank[i] < worst}
        assert better <= set(picked)

    def test_degenerate_geometry_still_selects(self):
        # constant third objective makes the extreme-point system singular
        rng = np.random.default_rng(5)
        pts = rng.random((20, 3))
        pts[:, 2] = 0.25
        picked = nsga3_select(pts, 8, das_dennis(3, 2), rng=rng)
        assert len(picked) == 8 and len(set(picked)) == 8

    def test_equal_seeds_give_equal_selections_and_state(self):
        pts = np.random.default_rng(9).random((40, 3))
        dirs = das_dennis(3, 3)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert nsga3_select(pts, 16, dirs, rng=a) == nsga3_select(pts, 16, dirs, rng=b)
        assert a.bit_generator.state == b.bit_generator.state

    def test_dimension_mismatch(self):
        pts = np.random.default_rng(0).random((6, 4))
        with pytest.raises(ContractError):
            nsga3_select(pts, 3, das_dennis(3, 2), rng=np.random.default_rng(0))


class TestRunConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig(population_size=5, evaluation_budget=100, seed=0)
        with pytest.raises(ConfigError):
            RunConfig(population_size=2, evaluation_budget=100, seed=0)
        with pytest.raises(ConfigError):
            RunConfig(population_size=8, evaluation_budget=4, seed=0)
        with pytest.raises(ConfigError):
            RunConfig(population_size=8, evaluation_budget=100, seed=-1)
        with pytest.raises(ConfigError):
            RunConfig(population_size=8, evaluation_budget=100, seed=0, algorithm="moead")


class TestRun:
    def test_budget_equal_to_population_gives_one_generation(self):
        spec = make_spec("dtlz2", 3)
        h = run(spec, RunConfig(population_size=8, evaluation_budget=8, seed=0))
        assert h.n_generations == 1

    def test_generation_count_is_budget_ceiling(self):
        spec = make_spec("dtlz2", 3)
        h = run(spec, RunConfig(population_size=8, evaluation_budget=50, seed=0))
        assert h.n_generations == 7  # ceil(50 / 8)

    def test_same_seed_reproduces_bit_for_bit(self):
        spec = make_spec("dtlz1", 3)
        cfg = RunConfig(population_size=12, evaluation_budget=120, seed=42)
        h1, h2 = run(spec, cfg), run(spec, cfg)
        for g1, g2 in zip(h1.generations, h2.generations):
            assert np.array_equal(g1.x, g2.x) and np.array_equal(g1.y, g2.y)

    def test_different_seeds_diverge(self):
        spec = make_spec("dtlz2", 3)
        h1 = run(spec, RunConfig(population_size=8, evaluation_budget=16, seed=1))
        h2 = run(spec, RunConfig(population_size=8, evaluation_budget=16, seed=2))
        assert not np.array_equal(h1.generations[0].x, h2.generations[0].x)

    def test_objectives_match_decision_vectors(self):
        spec = make_spec("dtlz7", 3)
        h = run(spec, RunConfig(population_size=8, evaluation_budget=40, seed=3))
        for g in h.generations:
            assert (g.x >= 0).all() and (g.x <= 1).all()
            assert np.array_equal(g.y, evaluate_batch(spec, g.x))

    def test_nsga3_loop(self):
        spec = make_spec("dtlz2", 4)
        h = run(spec, RunConfig(population_size=12, evaluation_budget=60, seed=4, algorithm="nsga3"))
        assert h.algorithm == "nsga3"
        assert h.n_generations == 5
        assert h.generations[-1].size == 12

    def test_history_metadata(self):
        spec = make_spec("dtlz2", 3)
        cfg = RunConfig(population_size=8, evaluation_budget=24, seed=5)
        h = run(spec, cfg)
        assert (h.problem, h.M, h.D) == ("dtlz2", 3, 12)
        assert h.population_size == 8 and h.evaluation_budget == 24 and h.seed == 5
        assert h.operators == OperatorConfig()


def reference_sbx(p1, p2, config, rng):
    """The per-pair SBX of the original run loop, kept as an oracle."""
    if rng.random() >= config.crossover_probability:
        return p1.copy(), p2.copy()
    u = rng.random(p1.size)
    exponent = 1.0 / (config.sbx_eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)


def reference_mutation(x, config, rng):
    """The per-vector polynomial mutation of the original run loop, kept as an oracle."""
    coins = rng.random(x.size)
    u = rng.random(x.size)
    out = x.copy()
    mask = coins < config.mutation_probability
    if not mask.any():
        return out
    xm, um = x[mask], u[mask]
    power = 1.0 / (config.pm_eta + 1.0)
    lower_side = um < 0.5
    delta = np.empty(xm.size)
    val_lo = 2.0 * um + (1.0 - 2.0 * um) * (1.0 - xm) ** (config.pm_eta + 1.0)
    val_hi = 2.0 * (1.0 - um) + 2.0 * (um - 0.5) * xm ** (config.pm_eta + 1.0)
    delta[lower_side] = val_lo[lower_side] ** power - 1.0
    delta[~lower_side] = 1.0 - val_hi[~lower_side] ** power
    out[mask] = np.clip(xm + delta, 0.0, 1.0)
    return out


def reference_niching_select(y, target_size, directions, rng):
    """NSGA-III selection with the original per-pick ``sorted(pools)`` scan, kept as an oracle."""
    selected, last = [], []
    for front in fast_nondominated_sort(y):
        if len(selected) + len(front) <= target_size:
            selected.extend(front)
            if len(selected) == target_size:
                return selected
        else:
            last = front
            break
    considered = selected + last
    sub = y[considered]
    normalised = _normalise(sub - sub.min(axis=0))
    dirs = directions.directions
    unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    proj = normalised @ unit.T
    sq = np.sum(normalised * normalised, axis=1)[:, None] - proj * proj
    dist = np.sqrt(np.maximum(sq, 0.0))
    assoc = np.argmin(dist, axis=1)
    assoc_dist = dist[np.arange(len(considered)), assoc]
    niche = np.zeros(len(directions), dtype=np.int64)
    np.add.at(niche, assoc[: len(selected)], 1)
    pools = {}
    for pos in range(len(selected), len(considered)):
        pools.setdefault(int(assoc[pos]), []).append(pos)
    while len(selected) < target_size:
        open_dirs = np.array(sorted(pools), dtype=np.int64)
        lowest = open_dirs[niche[open_dirs] == niche[open_dirs].min()]
        j = int(lowest[rng.integers(lowest.size)]) if lowest.size > 1 else int(lowest[0])
        pool = pools[j]
        if niche[j] == 0:
            pick = min(range(len(pool)), key=lambda i: (assoc_dist[pool[i]], pool[i]))
        else:
            pick = int(rng.integers(len(pool)))
        pos = pool.pop(pick)
        if not pool:
            del pools[j]
        niche[j] += 1
        selected.append(considered[pos])
    return selected


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestBatchedOperatorsMatchPerPairOracle:
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 30),
        st.integers(1, 120),
        probabilities,
        probabilities,
        st.floats(1.0, 100.0),
        st.floats(1.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_variation(self, seed, D, pairs, pc, pm, sbx_eta, pm_eta):
        config = OperatorConfig(crossover_probability=pc, mutation_probability=pm, sbx_eta=sbx_eta, pm_eta=pm_eta)
        data = np.random.default_rng(seed)
        X = data.random((2 * pairs, D))
        X[data.random(X.shape) < 0.05] = 0.0
        X[data.random(X.shape) < 0.05] = 1.0
        parents = data.integers(0, 2 * pairs, size=2 * pairs)

        oracle_rng = np.random.default_rng(seed)
        expected = np.empty_like(X)
        for i in range(0, 2 * pairs, 2):
            c1, c2 = reference_sbx(X[parents[i]], X[parents[i + 1]], config, oracle_rng)
            expected[i] = reference_mutation(c1, config, oracle_rng)
            expected[i + 1] = reference_mutation(c2, config, oracle_rng)

        batch_rng = np.random.default_rng(seed)
        assert np.array_equal(_vary(X, parents, config, batch_rng), expected)
        assert batch_rng.bit_generator.state == oracle_rng.bit_generator.state

        wrapper_rng = np.random.default_rng(seed)
        for i in range(0, 2 * pairs, 2):
            c1, c2 = sbx_crossover(X[parents[i]], X[parents[i + 1]], config, wrapper_rng)
            assert np.array_equal(polynomial_mutation(c1, config, wrapper_rng), expected[i])
            assert np.array_equal(polynomial_mutation(c2, config, wrapper_rng), expected[i + 1])
        assert wrapper_rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(st.integers(0, 2**64 - 1), st.integers(2, 6), st.integers(1, 3), st.integers(4, 80), st.data())
    @settings(max_examples=80, deadline=None)
    def test_niching(self, seed, M, p, n, data):
        gen = np.random.default_rng(seed)
        # Coarse rounding gives duplicate points and equal niche counts.
        y = gen.random((n, M)).round(1)
        fronts = fast_nondominated_sort(y)
        cuttable = [f for f, front in enumerate(fronts) if len(front) >= 2]
        assume(cuttable)
        f = data.draw(st.sampled_from(cuttable))
        target = sum(len(front) for front in fronts[:f]) + data.draw(st.integers(1, len(fronts[f]) - 1))
        directions = das_dennis(M, p)

        oracle_rng = np.random.default_rng(seed + 1)
        expected = reference_niching_select(y, target, directions, oracle_rng)
        rng = np.random.default_rng(seed + 1)
        assert nsga3_select(y, target, directions, rng=rng) == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def own_fill_nsga2_select(y, target_size):
    """nsga2_select with its own front-fill loop and a keyed-sort cut, kept as an oracle."""
    selected = []
    for front in fast_nondominated_sort(y):
        room = target_size - len(selected)
        if len(front) <= room:
            selected.extend(front)
            if len(selected) == target_size:
                break
            continue
        dist = crowding_distance(y[front])
        order = sorted(range(len(front)), key=lambda i: (-dist[i], front[i]))
        selected.extend(front[i] for i in order[:room])
        break
    return selected


def own_fill_nsga3_select(y, target_size, directions, rng):
    """nsga3_select with its own front-fill loop, kept as an oracle."""
    selected, last = [], []
    for front in fast_nondominated_sort(y):
        if len(selected) + len(front) <= target_size:
            selected.extend(front)
            if len(selected) == target_size:
                return selected
        else:
            last = front
            break
    considered = selected + last
    sub = y[considered]
    normalised = _normalise(sub - sub.min(axis=0))
    dirs = directions.directions
    unit = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    dist = normalised @ unit.T
    dist *= dist
    np.subtract(np.sum(normalised * normalised, axis=1)[:, None], dist, out=dist)
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    assoc = np.argmin(dist, axis=1)
    assoc_dist = dist[np.arange(len(considered)), assoc].tolist()
    niche = np.zeros(len(directions), dtype=np.int64)
    np.add.at(niche, assoc[: len(selected)], 1)
    pools = {}
    for pos in range(len(selected), len(considered)):
        pools.setdefault(int(assoc[pos]), []).append(pos)
    levels = {}
    for j in sorted(pools):
        levels.setdefault(int(niche[j]), []).append(j)
    while len(selected) < target_size:
        count = min(levels)
        lowest = levels[count]
        j = lowest.pop(int(rng.integers(len(lowest))) if len(lowest) > 1 else 0)
        if not lowest:
            del levels[count]
        pool = pools[j]
        if count == 0:
            pos = min(pool, key=lambda p: (assoc_dist[p], p))
            pool.remove(pos)
        else:
            pos = pool.pop(int(rng.integers(len(pool))))
        selected.append(considered[pos])
        if pool:
            insort(levels.setdefault(count + 1, []), j)
    return selected


class TestSelectionMatchesOwnFillLoops:
    """Both selections, filling fronts through one shared loop, match copies that each kept their own."""

    @given(st.integers(0, 2**64 - 1), st.integers(2, 5), st.integers(1, 60), st.sampled_from([1, 2]),
           st.sampled_from(["front-boundary", "past-first-front", "any"]), st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_selections_and_generator_state(self, seed, M, n, decimals, case, p, data):
        # Rounding gives duplicate points, so crowding distances and niche counts tie.
        y = np.random.default_rng(seed).random((n, M)).round(decimals)
        sizes = np.cumsum([len(front) for front in fast_nondominated_sort(y)]).tolist()
        target = data.draw({
            "front-boundary": st.sampled_from(sizes),  # includes n, the whole pool
            "past-first-front": st.integers(min(sizes[0] + 1, n), n),
            "any": st.integers(1, n),
        }[case])

        got = nsga2_select(y, target)
        assert got == own_fill_nsga2_select(y, target)
        assert {type(i) for i in got} == {int}

        directions = das_dennis(M, p)
        oracle_rng, rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = nsga3_select(y, target, directions, rng=rng)
        assert got == own_fill_nsga3_select(y, target, directions, oracle_rng)
        assert {type(i) for i in got} == {int}
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    # Front 0 is the two axis points, one per direction of das_dennis(2, 1);
    # the second front has one candidate for the (1, 0) direction, listed
    # first, and three for (0, 1).
    LEVEL_FRONTS = np.array([(0, 1), (1, 0), (1.5, 0.2), (0.2, 1.5), (0.1, 1.7), (0.3, 1.45)])

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("target", [3, 5], ids=["starts-at-level-1", "level-1-runs-out"])
    def test_niching_levels_above_zero(self, seed, target):
        """Both directions already hold a survivor, so no pick is at level 0.

        With target 5, level 1 gives one member per direction and runs out with one
        more to go; level 2 is then the (0, 1) direction alone.
        """
        directions = das_dennis(2, 1)
        oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = nsga3_select(self.LEVEL_FRONTS, target, directions, rng=rng)
        assert got == own_fill_nsga3_select(self.LEVEL_FRONTS, target, directions, oracle_rng)
        assert got[:2] == [0, 1]
        if target == 5:
            assert 2 in got[2:4]  # (1, 0)'s only candidate is admitted at level 1
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(10))
    def test_niching_level_0_runs_out(self, seed):
        """One non-dominated front: level 0 admits both axis points, then level 1 takes the rest."""
        y = np.array([(0, 1), (1, 0), (0.1, 0.9), (0.9, 0.1), (0.2, 0.8)])
        directions = das_dennis(2, 1)
        oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = nsga3_select(y, 4, directions, rng=rng)
        assert got == own_fill_nsga3_select(y, 4, directions, oracle_rng)
        assert sorted(got[:2]) == [0, 1]
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
