import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from conftest import synthetic_history
from evohist import (
    ContractError,
    Embedding,
    EmbeddingSpace,
    classical_mds,
    concatenate,
    embed_history,
    pairwise_sq_distances,
)
from evohist.embedding import as_space, sampled_generations


def line_history(dim, seed, n_gen=4, pop=10):
    """Decision vectors on one segment through [0, 1]^dim: a rank-1 search-space cloud."""
    rng = np.random.default_rng(seed)
    direction = 0.9 * np.arange(1.0, dim + 1) / (dim + 1)
    xs = [0.05 + np.outer(rng.random(pop), direction) for _ in range(n_gen)]
    ys = [rng.random((pop, 2)) for _ in range(n_gen)]
    return synthetic_history(xs, ys)


def planted_plane_cloud(n, ambient, seed):
    """Points that live in a rotated, offset 2-D plane inside a higher space."""
    rng = np.random.default_rng(seed)
    base = rng.random((n, 2))
    q, _ = np.linalg.qr(rng.standard_normal((ambient, ambient)))
    x = base @ q[:, :2].T + rng.standard_normal(ambient)
    return base, x


class TestSpace:
    def test_coercion(self):
        assert as_space("search") is EmbeddingSpace.SEARCH
        assert as_space(EmbeddingSpace.OBJECTIVE) is EmbeddingSpace.OBJECTIVE
        assert str(EmbeddingSpace.SEARCH) == "search"

    def test_unknown_space(self):
        with pytest.raises(ContractError):
            as_space("latent")


class TestSampledGenerations:
    def test_everything_fits(self):
        picks, stride = sampled_generations(50, 92, 10000)
        assert stride == 1
        assert picks == list(range(50))

    def test_strided(self):
        picks, stride = sampled_generations(50, 92, 1000)
        assert stride == 5
        assert picks == [0, 5, 10, 15, 20, 25, 30, 35, 40, 49]

    def test_final_generation_substituted(self):
        picks, stride = sampled_generations(327, 92, 10000)
        assert stride == 4
        assert len(picks) == 82
        assert picks[:3] == [0, 4, 8]
        assert picks[-1] == 326

    def test_single_generation(self):
        assert sampled_generations(1, 10, 100) == ([0], 1)

    def test_cap_must_allow_two_generations(self):
        with pytest.raises(ContractError):
            sampled_generations(10, 92, 183)

    @given(st.integers(1, 500), st.integers(1, 50), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rule_invariants(self, n_gen, pop, data):
        max_points = data.draw(st.integers(2 * pop, 5000))
        picks, stride = sampled_generations(n_gen, pop, max_points)
        assert stride >= 1
        assert len(picks) * pop <= max_points
        assert picks[-1] == n_gen - 1
        assert all(0 <= p < n_gen for p in picks)
        assert picks == sorted(set(picks))
        if len(picks) >= 2:
            assert picks[0] == 0
            diffs = np.diff(picks)
            assert (diffs[:-1] == stride).all()


class TestConcatenate:
    def test_provenance_and_spaces(self):
        xs = [np.full((2, 3), v) for v in (0.1, 0.2, 0.3)]
        ys = [np.full((2, 2), v) for v in (5.0, 6.0, 7.0)]
        h = synthetic_history(xs, ys)
        sample = concatenate(h, "search")
        assert sample.vectors.shape == (6, 3)
        assert np.array_equal(sample.vectors, np.vstack(xs))
        assert sample.generation.tolist() == [0, 0, 1, 1, 2, 2]
        assert sample.member_index.tolist() == [0, 1, 0, 1, 0, 1]
        assert sample.stride == 1
        obj = concatenate(h, "objective")
        assert np.array_equal(obj.vectors, np.vstack(ys))

    def test_stride_applies(self):
        xs = [np.full((2, 3), 0.1 * t) for t in range(5)]
        ys = [np.full((2, 2), float(t)) for t in range(5)]
        sample = concatenate(synthetic_history(xs, ys), "objective", max_points=4)
        assert sample.stride == 3
        assert sample.generation.tolist() == [0, 0, 4, 4]
        assert np.array_equal(sample.vectors, np.vstack([ys[0], ys[4]]))


class TestPairwise:
    def test_matches_direct_loop(self):
        v = np.random.default_rng(0).random((7, 3))
        d2 = pairwise_sq_distances(v)
        for i in range(7):
            for j in range(7):
                assert d2[i, j] == pytest.approx(((v[i] - v[j]) ** 2).sum(), abs=1e-12)

    def test_shape_checked(self):
        with pytest.raises(ContractError):
            pairwise_sq_distances(np.zeros(5))


class TestClassicalMds:
    def test_two_points(self):
        coords, (lam1, lam2), degenerate = classical_mds([[0.0, 9.0], [9.0, 0.0]])
        assert not degenerate
        assert coords == pytest.approx(np.array([[1.5, 0.0], [-1.5, 0.0]]))
        assert lam1 == pytest.approx(4.5)
        assert abs(lam2) < 1e-12

    def test_collinear_points(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        coords, _, degenerate = classical_mds(pairwise_sq_distances(pts))
        assert not degenerate
        assert coords[:, 0] == pytest.approx([-4 / 3, -1 / 3, 5 / 3])
        # λ₂ is zero only up to rounding; an axis within the degenerate
        # tolerance is set to zero rather than to the square root of that noise
        assert np.array_equal(coords[:, 1], np.zeros(3))

    def test_coincident_points_flagged_degenerate(self):
        coords, _, degenerate = classical_mds(np.zeros((5, 5)))
        assert degenerate
        assert np.array_equal(coords, np.zeros((5, 2)))

    def test_planar_cloud_recovered_exactly(self):
        base, x = planted_plane_cloud(30, 10, seed=1)
        coords, _, degenerate = classical_mds(pairwise_sq_distances(x))
        assert not degenerate
        assert np.abs(pdist(coords) - pdist(base)).max() < 1e-6

    def test_large_cloud_recovers(self):
        base, x = planted_plane_cloud(700, 5, seed=2)
        coords, _, degenerate = classical_mds(pairwise_sq_distances(x))
        assert not degenerate
        assert np.abs(pdist(coords) - pdist(base)).max() < 1e-6

    def test_large_cloud_deterministic(self):
        _, x = planted_plane_cloud(650, 4, seed=3)
        d2 = pairwise_sq_distances(x)
        c1, e1, _ = classical_mds(d2.copy())
        c2, e2, _ = classical_mds(d2.copy())
        assert np.array_equal(c1, c2)
        assert e1 == e2

    def test_output_is_mean_centred(self):
        _, x = planted_plane_cloud(25, 6, seed=4)
        coords, _, _ = classical_mds(pairwise_sq_distances(x))
        assert coords.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ContractError):
            classical_mds(np.zeros((2, 3)))
        with pytest.raises(ContractError):
            classical_mds(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ContractError):
            classical_mds(np.array([[1.0, 2.0], [2.0, 1.0]]))  # non-zero diagonal
        with pytest.raises(ContractError):
            classical_mds(np.array([[0.0, np.nan], [np.nan, 0.0]]))
        with pytest.raises(ContractError):
            classical_mds(np.zeros((1, 1)))


class TestEmbedding:
    def test_column_lengths_checked(self):
        with pytest.raises(ContractError):
            Embedding("search", np.zeros(3), np.zeros(2), np.zeros(3, dtype=int),
                      np.zeros(3, dtype=int), stride=1)

    def test_stride_checked(self):
        with pytest.raises(ContractError):
            Embedding("search", np.zeros(2), np.zeros(2), np.zeros(2, dtype=int),
                      np.zeros(2, dtype=int), stride=0)

    def test_eigenvalue_order_checked(self):
        with pytest.raises(ContractError):
            Embedding("search", np.array([1.0, -1.0]), np.zeros(2),
                      np.zeros(2, dtype=int), np.zeros(2, dtype=int),
                      stride=1, eigenvalues=(1.0, 2.0))

    def test_embed_history(self, short_run):
        emb = embed_history(short_run, "search")
        assert emb.space is EmbeddingSpace.SEARCH
        assert emb.n_points == short_run.n_generations * short_run.population_size
        assert emb.stride == 1
        assert not emb.degenerate
        assert emb.eigenvalues is not None
        assert emb.eigenvalues[0] >= emb.eigenvalues[1]
        assert set(emb.generation.tolist()) == set(range(short_run.n_generations))
        assert abs(emb.e1.mean()) < 1e-9 * max(1.0, np.abs(emb.e1).max())

    def test_embed_history_objective_space_differs(self, short_run):
        search = embed_history(short_run, "search")
        objective = embed_history(short_run, "objective")
        assert objective.space is EmbeddingSpace.OBJECTIVE
        assert not np.array_equal(search.e1, objective.e1)

    def test_embedding_distances_match_sampled_vectors(self, short_run):
        emb = embed_history(short_run, "objective")
        sample = concatenate(short_run, "objective")
        raw = pdist(sample.vectors)
        laid_out = pdist(np.column_stack([emb.e1, emb.e2]))
        # a planar layout can only shrink distances, never stretch them
        assert (laid_out <= raw + 1e-8).all()

    @pytest.mark.parametrize("space", ["search", "objective"])
    def test_embed_history_matches_distance_matrix_mds(self, short_run, space):
        emb = embed_history(short_run, space)
        coords, eigenvalues, degenerate = classical_mds(
            pairwise_sq_distances(concatenate(short_run, space).vectors)
        )
        assert not emb.degenerate and not degenerate
        scale = np.abs(coords).max()
        assert np.abs(emb.e1 - coords[:, 0]).max() <= 1e-12 * scale
        assert np.abs(emb.e2 - coords[:, 1]).max() <= 1e-12 * scale
        assert np.abs(np.subtract(emb.eigenvalues, eigenvalues)).max() <= 1e-12 * scale**2

    @given(
        st.integers(2, 8),
        st.integers(2, 12),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_embed_history_agrees_with_distance_matrix_mds_on_random_clouds(self, dim, pop, n_gen, seed, data):
        axis_scales = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                                         min_size=dim, max_size=dim))
        rng = np.random.default_rng(seed)
        ys = [rng.standard_normal((pop, dim)) * axis_scales for _ in range(n_gen)]
        xs = [rng.random((pop, 2)) for _ in range(n_gen)]
        emb = embed_history(synthetic_history(xs, ys), "objective")
        y = np.vstack(ys)
        coords, eigenvalues, degenerate = classical_mds(pairwise_sq_distances(y))
        assert emb.degenerate == degenerate
        yc = y - y.mean(axis=0)
        spectrum = np.linalg.eigvalsh(yc.T @ yc)[::-1]
        lam1 = max(spectrum[0], 1.0)
        assert np.abs(np.subtract(emb.eigenvalues, eigenvalues)).max() <= 1e-9 * lam1
        # The plane of the top two axes, and so every distance within it,
        # is fixed whenever λ₂ stands clear of λ₃, even if λ₁ ≈ λ₂.
        if dim == 2 or spectrum[1] - spectrum[2] >= 1e-3 * lam1:
            laid_out = pdist(np.column_stack([emb.e1, emb.e2]))
            reference = pdist(coords)
            assert np.abs(laid_out - reference).max() <= 1e-8 * max(reference.max(), 1.0)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_rank_one_sample_gets_a_zero_second_axis(self, dim):
        # On a line (D=1, or collinear in 3-D) λ₂ is rounding noise; the
        # second axis must be that small too, not √noise and off-centre.
        emb = embed_history(line_history(dim, seed=5), "search")
        assert not emb.degenerate
        assert np.abs(emb.e2).max() <= 1e-12 * np.abs(emb.e1).max()
        assert abs(emb.eigenvalues[1]) <= 1e-12 * emb.eigenvalues[0]
