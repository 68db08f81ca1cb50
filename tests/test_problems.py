import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evohist import ConfigError, ContractError, evaluate_batch, front_residual, make_spec
from evohist.problems import _g_rastrigin, _g_sphere

unit = st.floats(0.0, 1.0, allow_nan=False)


def evaluate(spec, x):
    """One decision vector's objectives, as a one-row batch."""
    return evaluate_batch(spec, x[None])[0]


def centred(spec, x_pos):
    """A full decision vector with the distance block at its optimum.

    The distance optimum is 0.5 for DTLZ1-4 and 0 for DTLZ7.
    """
    x = np.full(spec.D, 0.0 if spec.name == "dtlz7" else 0.5)
    x[: spec.M - 1] = x_pos
    return x


class TestSpecs:
    def test_dimensions(self):
        assert make_spec("dtlz1", 3).D == 7
        assert make_spec("dtlz2", 3).D == 12
        assert make_spec("dtlz7", 3).D == 22
        assert make_spec("dtlz3", 5).D == 14
        assert make_spec("dtlz2", 3, k=4).D == 6

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            make_spec("dtlz9", 3)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            make_spec("dtlz2", 1)
        with pytest.raises(ConfigError):
            make_spec("dtlz2", 3, k=0)


class TestKnownValues:
    def test_dtlz1_centre(self):
        spec = make_spec("dtlz1", 3)
        y = evaluate(spec, centred(spec, [0.5, 0.5]))
        assert np.allclose(y, [0.125, 0.125, 0.25], atol=1e-12)

    def test_dtlz2_corner(self):
        spec = make_spec("dtlz2", 3)
        y = evaluate(spec, centred(spec, [0.0, 0.0]))
        assert np.allclose(y, [1.0, 0.0, 0.0], atol=1e-12)

    def test_dtlz7_origin(self):
        spec = make_spec("dtlz7", 3)
        y = evaluate(spec, centred(spec, [0.0, 0.0]))
        assert np.allclose(y, [0.0, 0.0, 6.0], atol=1e-12)

    def test_dtlz4_biases_towards_axes(self):
        spec = make_spec("dtlz4", 3)
        y = evaluate(spec, centred(spec, [0.9, 0.9]))
        # the alpha power crushes 0.9 to a nearly zero angle, so f1 dominates
        assert y[0] > 0.9999
        assert y[1] < 1e-4 and y[2] < 1e-4
        flat = evaluate(spec, centred(spec, [0.5, 0.5]))
        assert flat[1] < 1e-29 and flat[2] < 1e-29

    def test_dtlz3_shares_shape_with_dtlz2(self):
        s2, s3 = make_spec("dtlz2", 3), make_spec("dtlz3", 3)
        x2, x3 = centred(s2, [0.3, 0.7]), centred(s3, [0.3, 0.7])
        assert np.allclose(evaluate(s2, x2), evaluate(s3, x3), atol=1e-9)


class TestInvariants:
    @given(st.lists(unit, min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_dtlz2_on_sphere_when_distance_block_optimal(self, x_pos):
        spec = make_spec("dtlz2", 3)
        y = evaluate(spec, centred(spec, x_pos))
        assert abs(np.linalg.norm(y) - 1.0) < 1e-9

    @given(st.lists(unit, min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_dtlz1_on_plane_when_distance_block_optimal(self, x_pos):
        spec = make_spec("dtlz1", 3)
        y = evaluate(spec, centred(spec, x_pos))
        assert abs(y.sum() - 0.5) < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_objectives_finite_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        for name in ("dtlz1", "dtlz2", "dtlz3", "dtlz4", "dtlz7"):
            spec = make_spec(name, 3)
            y = evaluate_batch(spec, rng.random((8, spec.D)))
            assert np.isfinite(y).all()
            assert (y >= 0).all()

    def test_batch_matches_single(self):
        spec = make_spec("dtlz2", 4)
        x = np.random.default_rng(5).random((6, spec.D))
        batch = evaluate_batch(spec, x)
        for i in range(6):
            assert np.array_equal(batch[i], evaluate(spec, x[i]))

    def test_deterministic(self):
        spec = make_spec("dtlz3", 3)
        x = np.random.default_rng(6).random((4, spec.D))
        assert np.array_equal(evaluate_batch(spec, x), evaluate_batch(spec, x))


def dtlz1_by_own_loop(x_pos, x_dist, M):
    """DTLZ1's objectives as the evaluator computed them before the shared front-shape product."""
    g = _g_rastrigin(x_dist)
    f = np.empty((x_pos.shape[0], M))
    for i in range(M):
        v = 0.5 * (1.0 + g)
        for j in range(M - 1 - i):
            v = v * x_pos[:, j]
        if i > 0:
            v = v * (1.0 - x_pos[:, M - 1 - i])
        f[:, i] = v
    return f


def dtlz2_shape_by_own_loop(x_pos, g, M):
    """The DTLZ2/3/4 sphere shape as the evaluator computed it before the shared front-shape product."""
    theta = x_pos * (np.pi / 2.0)
    f = np.empty((x_pos.shape[0], M))
    for i in range(M):
        v = 1.0 + g
        for j in range(M - 1 - i):
            v = v * np.cos(theta[:, j])
        if i > 0:
            v = v * np.sin(theta[:, M - 1 - i])
        f[:, i] = v
    return f


class TestFrontShapeMatchesOwnLoops:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal(self, data):
        """DTLZ1-4 evaluate to the same bits as the per-problem loops the shared product replaced."""
        M, n, k = data.draw(st.integers(2, 8)), data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.random((n, k + M - 1))
        # Some entries on the box boundary or its centre, where products hit exact zeros and ones.
        edges = rng.random(X.shape) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        X[edges] = rng.choice([0.0, 0.5, 1.0], size=int(edges.sum()))
        x_pos, x_dist = X[:, : M - 1], X[:, M - 1 :]
        expected = {
            "dtlz1": dtlz1_by_own_loop(x_pos, x_dist, M),
            "dtlz2": dtlz2_shape_by_own_loop(x_pos, _g_sphere(x_dist), M),
            "dtlz3": dtlz2_shape_by_own_loop(x_pos, _g_rastrigin(x_dist), M),
            "dtlz4": dtlz2_shape_by_own_loop(x_pos**100.0, _g_sphere(x_dist), M),
        }
        for name, f in expected.items():
            got = evaluate_batch(make_spec(name, M, k), X)
            assert got.dtype == f.dtype and got.tobytes() == f.tobytes(), name


class TestValidation:
    def test_out_of_bounds_names_index(self):
        spec = make_spec("dtlz2", 3)
        x = np.full((1, spec.D), 0.5)
        x[0, 7] = 1.5
        with pytest.raises(ContractError, match="variable 7"):
            evaluate_batch(spec, x)

    def test_wrong_width(self):
        spec = make_spec("dtlz2", 3)
        with pytest.raises(ContractError):
            evaluate_batch(spec, np.full((2, spec.D + 1), 0.5))

    @pytest.mark.parametrize("value", [1.5, -0.25, np.nan, np.inf])
    def test_message_names_first_bad_variable(self, value):
        spec = make_spec("dtlz2", 3)
        x = np.full((2, spec.D), 0.5)
        x[1, 9] = x[1, 7] = value
        with pytest.raises(ContractError, match=rf"^decision variable 7 = {value} lies outside \[0, 1\]$"):
            evaluate_batch(spec, x)

    def test_nan_rejected(self):
        spec = make_spec("dtlz1", 3)
        x = np.full((1, spec.D), 0.5)
        x[0, 0] = np.nan
        with pytest.raises(ContractError):
            evaluate_batch(spec, x)


class TestFrontResidual:
    def test_dtlz1_measures_plane_distance(self):
        spec = make_spec("dtlz1", 3)
        assert front_residual(spec, np.array([0.2, 0.2, 0.1])) == pytest.approx(0.0)
        assert front_residual(spec, np.array([0.3, 0.3, 0.3])) == pytest.approx(0.4)

    def test_sphere_problems_measure_radius(self):
        for name in ("dtlz2", "dtlz3", "dtlz4"):
            spec = make_spec(name, 3)
            assert front_residual(spec, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)
            assert front_residual(spec, np.array([2.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_dtlz7_zero_on_optimal_point(self):
        spec = make_spec("dtlz7", 3)
        y = evaluate(spec, centred(spec, [0.0, 0.0]))
        assert front_residual(spec, y) == pytest.approx(0.0, abs=1e-12)

    def test_shape_checked(self):
        spec = make_spec("dtlz2", 3)
        with pytest.raises(ContractError):
            front_residual(spec, np.array([1.0, 0.0]))
