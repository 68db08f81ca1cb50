import re
from bisect import bisect_left, bisect_right
from math import fsum
from operator import mul, sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

from conftest import synthetic_history
from evohist import (
    ContractError,
    ExplorationProfile,
    GenerationRecord,
    HypervolumeTrace,
    UnsupportedDimensionError,
    exploration_profile,
    hypervolume_exact,
    hypervolume_mc,
    hypervolume_trace,
    nearest_neighbour_distances,
)
from evohist import metrics
from evohist.core import non_dominated_subset
from evohist.metrics import _row_medians, _staircase_2d, auto_reference


def _nd_filter(points: np.ndarray) -> np.ndarray:
    """Drop dominated rows (keeps one copy of exact duplicates)."""
    n = points.shape[0]
    if n <= 1:
        return points
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        le = (points[i] <= points).all(axis=1)
        lt = (points[i] < points).any(axis=1)
        dominated = le & lt
        dominated[i] = False
        keep &= ~dominated
        # i itself may duplicate an earlier kept row; drop later copies.
        if keep[i]:
            dup = (points[i] == points).all(axis=1)
            dup[: i + 1] = False
            keep &= ~dup
    return points[keep]


def _hv_recursive(points: np.ndarray, reference: np.ndarray) -> float:
    """Exclusive-volume recursion over a non-dominated set (any order)."""
    n = points.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return float(np.prod(reference - points[0]))
    if reference.shape[0] == 2:
        return _staircase_2d(points, reference)
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    total = 0.0
    for i in range(n):
        box = float(np.prod(reference - pts[i]))
        rest = pts[i + 1 :]
        if rest.shape[0]:
            limited = np.maximum(rest, pts[i])
            overlap = _hv_recursive(_nd_filter(limited), reference)
            box -= overlap
        total += box
    return total


def hypervolume_oracle(front, reference) -> float:
    """Exact hypervolume by exclusive-volume recursion: the reference for hypervolume_exact.

    It shares nothing with the package's sweep and slicing but the 2-D
    staircase: each point's box minus the volume the later points cover
    inside it, recursively, with a dominance filter at every level.  It
    is far slower, so the property test keeps fronts small.
    """
    pts, ref = np.asarray(front, dtype=float), np.asarray(reference, dtype=float)
    pts = pts[(pts < ref).all(axis=1)]
    return _hv_recursive(_nd_filter(pts), ref)


@st.composite
def awkward_fronts(draw):
    """An (n, M) front for M = 2-5 against the reference (1, ..., 1).

    Coordinates come partly from a coarse grid, so fronts hold dominated
    points, exact duplicates, ties on every axis (the sweep axis z and the
    slicing axis included), coordinates equal to the reference and points
    beyond it.
    """
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 9 if m == 5 else 14))
    coordinate = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5]), st.floats(0.0, 1.2))
    rows = draw(st.lists(st.lists(coordinate, min_size=m, max_size=m), min_size=n, max_size=n))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return np.array(rows + [rows[i] for i in repeats], dtype=float)


def _sweep_3d_by_prefix(points, reference):
    """The 3-D sweep as it stood before the 4-D sweep: one fresh staircase per call."""
    rx, ry, rz = reference.tolist()
    xs, ys = [], []
    area = volume = z_prev = 0.0
    for x, y, z in points[np.argsort(points[:, 2], kind="stable")].tolist():
        volume += area * (z - z_prev)
        z_prev = z
        i = bisect_right(xs, x)
        if i and ys[i - 1] <= y:
            continue
        j = bisect_left(xs, x, hi=i)
        height = ys[j - 1] if j else ry
        left = x
        k = j
        while k < len(xs) and ys[k] >= y:
            area += (xs[k] - left) * (height - y)
            left, height = xs[k], ys[k]
            k += 1
        area += ((xs[k] if k < len(xs) else rx) - left) * (height - y)
        xs[j:k] = [x]
        ys[j:k] = [y]
    return volume + area * (rz - z_prev)


def slice_by_prefix(points, reference):
    """Hypervolume at M = 4-5 as it stood before the 4-D sweep: every prefix of the last
    objective re-swept from scratch, the 3-D sweep unfiltered and a deeper level filtered."""
    pts = points[np.argsort(points[:, -1], kind="stable")]
    bounds = np.append(pts[:, -1], reference[-1]).tolist()
    lower, lower_ref = pts[:, :-1], reference[:-1]
    volume = 0.0
    for i in range(pts.shape[0]):
        depth = bounds[i + 1] - bounds[i]
        if depth == 0.0:
            continue
        prefix = lower[: i + 1]
        if lower_ref.size == 3:
            volume += depth * _sweep_3d_by_prefix(prefix, lower_ref)
        else:
            volume += depth * slice_by_prefix(prefix[non_dominated_subset(prefix)], lower_ref)
    return volume


@st.composite
def tied_grid_fronts(draw, m, max_rows):
    """An (n, m) front on a coarse grid against the reference (1, ..., 1).

    Every axis ties, rows repeat, and some rows are copies of another
    with x and y one grid step lower, z the same and w one step higher:
    each dominates its source in (x, y, z) and ties it in z without
    dominating it in 4-D, so both reach the 4-D sweep.  Grid value 1.0
    lies on the reference and bounds no volume.
    """
    steps = draw(st.integers(2, 6))
    n = draw(st.integers(1, max_rows))
    grid = draw(arrays(np.int64, (n, m), elements=st.integers(0, steps))).astype(float)
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=4))
    shadows = draw(st.lists(st.integers(0, n - 1), max_size=4))
    shadowed = grid[shadows]
    shadowed[:, :2] = np.maximum(shadowed[:, :2] - 1, 0)
    shadowed[:, 3] = np.minimum(shadowed[:, 3] + 1, steps)
    return np.vstack([grid, grid[repeats], shadowed]) / steps


def filtered_staircase_2d(points, reference):
    """The 2-D staircase as it stood with the dominance filter: every point of a non-dominated set."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    total = 0.0
    for i in range(pts.shape[0]):
        right = pts[i + 1, 0] if i + 1 < pts.shape[0] else reference[0]
        total += (reference[1] - pts[i, 1]) * (right - pts[i, 0])
    return total


def filtered_sweep_3d(points, reference):
    """The 3-D sweep as it stood with the dominance filter: a z-slab closes at every point."""
    rx, ry, rz = reference.tolist()
    xs, ys = [], []
    area = volume = z_prev = 0.0
    for x, y, z in points[np.argsort(points[:, 2], kind="stable")].tolist():
        volume += area * (z - z_prev)
        z_prev = z
        step = metrics._staircase_insert(xs, ys, x, y, area, rx, ry)
        if step is None:
            continue
        j, k, area = step
        xs[j:k] = [x]
        ys[j:k] = [y]
    return volume + area * (rz - z_prev)


def filtered_sweep_4d(points, reference):
    """The 4-D sweep as it stood with the dominance filter: a w-slab closes at every row, up to the next row's w."""
    rx, ry, rz, rw = reference.tolist()
    zs, rows, stair_x, stair_y, areas = [], [], [], [], []
    pts = points[np.argsort(points[:, 3], kind="stable")].tolist()
    bounds = [row[3] for row in pts[1:]] + [rw]
    volume = 0.0
    for (x, y, z, w), upper in zip(pts, bounds):
        p = bisect_right(zs, z)
        xs, ys, area = (stair_x[p - 1], stair_y[p - 1], areas[p - 1]) if p else ((), (), 0.0)
        step = metrics._staircase_insert(xs, ys, x, y, area, rx, ry)
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
                step = metrics._staircase_insert(xs, ys, x, y, areas[q], rx, ry)
                if step is None:
                    break
                j, k, areas[q] = step
                stair_x[q] = xs[:j] + (x,) + xs[k:]
                stair_y[q] = ys[:j] + (y,) + ys[k:]
                q += 1
        depth = upper - w
        if depth == 0.0:
            continue
        volume += depth * fsum(map(mul, areas, map(sub, zs[1:] + [rz], zs)))
    return volume


def filtered_slice(points, reference):
    """The 5-D slicing as it stood with the dominance filter: each prefix filtered again before the 4-D sweep."""
    pts = points[np.argsort(points[:, -1], kind="stable")]
    bounds = np.append(pts[:, -1], reference[-1]).tolist()
    lower, lower_ref = pts[:, :-1], reference[:-1]
    volume = 0.0
    for i in range(pts.shape[0]):
        depth = bounds[i + 1] - bounds[i]
        if depth == 0.0:
            continue
        prefix = lower[: i + 1]
        volume += depth * filtered_sweep_4d(prefix[non_dominated_subset(prefix)], lower_ref)
    return volume


def filtered_hypervolume(front, reference):
    """hypervolume_exact as it stood with every front first filtered to its non-dominated rows."""
    pts = front[(front < reference).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    kernel = (filtered_staircase_2d, filtered_sweep_3d, filtered_sweep_4d, filtered_slice)[reference.size - 2]
    return kernel(pts[non_dominated_subset(pts)], reference)


@st.composite
def shadowed_grid_fronts(draw):
    """An (n, M) front for M = 2-5 on a coarse grid against the reference (1, ..., 1).

    Every axis ties and rows repeat.  Grid value 1.0 lies on the
    reference and the next step beyond it.  Some rows are copies of
    another lowered one step on a drawn set of axes and equal on the
    rest, the last (sweep or slicing) axis included, so a dominated row
    and its dominator often share the coordinate a sweep orders by.
    """
    m = draw(st.integers(2, 5))
    steps = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12 if m == 5 else 30))
    grid = draw(arrays(np.int64, (n, m), elements=st.integers(0, steps + 1))).astype(float)
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=4))
    shadows = draw(st.lists(st.integers(0, n - 1), max_size=6))
    lowered = draw(arrays(bool, (len(shadows), m)))
    shadowed = np.where(lowered, np.maximum(grid[shadows] - 1, 0), grid[shadows])
    return np.vstack([grid, grid[repeats], shadowed]) / steps


def record(xs, ys=None, t=0):
    xs = np.asarray(xs, dtype=float)
    ys = xs.copy() if ys is None else np.asarray(ys, dtype=float)
    return GenerationRecord(t, xs, ys)


def pair_history(separations):
    """One two-member generation per separation; nn distance equals it exactly."""
    xs, ys = [], []
    for d in separations:
        xs.append(np.array([[0.0, 0.0], [d, 0.0]]))
        ys.append(np.array([[1.0, 1.0], [1.0, 1.0]]))
    return synthetic_history(xs, ys)


def hypervolume_mc_by_broadcast(front, reference, samples, rng):
    """The estimator's coverage count as one (take, n, M) comparison per chunk."""
    pts, reference = np.asarray(front, dtype=float), np.asarray(reference, dtype=float)
    dominating = pts[(pts < reference).all(axis=1)]
    if dominating.shape[0] == 0:
        return 0.0, 0.0
    lower = pts.min(axis=0)
    box_volume = float(np.prod(reference - lower))
    hits = done = 0
    while done < samples:
        take = min(65_536, samples - done)
        sample = lower + rng.random((take, reference.size)) * (reference - lower)
        hits += int((dominating[None, :, :] <= sample[:, None, :]).all(axis=2).any(axis=1).sum())
        done += take
    fraction = hits / samples
    return fraction * box_volume, box_volume * float(np.sqrt(fraction * (1.0 - fraction) / samples))


class TestNearestNeighbour:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_scipy(self, data):
        n, dim = data.draw(st.integers(2, 212)), data.draw(st.integers(1, 24))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ys = rng.random((n, dim)) * 10 ** data.draw(st.floats(-3, 3))
        ys[data.draw(st.lists(st.integers(0, n - 1), max_size=3))] = ys[0]
        d = squareform(pdist(ys))
        np.fill_diagonal(d, np.inf)
        got = nearest_neighbour_distances(record(np.zeros((n, 1)), ys=ys), "objective")
        assert np.array_equal(got, d.min(axis=1))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_scipy_on_hard_clouds(self, data):
        # Clouds where a Gram-product distance alone goes wrong: far from
        # the origin, nearly tied, or with squares that overflow.
        n, dim = data.draw(st.integers(2, 212)), data.draw(st.integers(1, 24))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["translated", "near-tie", "overflow"]))
        if kind == "translated":
            ys = 10 ** data.draw(st.floats(3, 6)) + rng.random((n, dim)) * 1e-3
        elif kind == "near-tie":
            steps = rng.integers(-2, 3, (n, dim)) * 10 ** data.draw(st.floats(-16, -12))
            ys = rng.random(dim) + steps
        else:
            ys = rng.random((n, dim)) * rng.choice([-1.0, 1.0], (n, dim)) * 10 ** data.draw(st.floats(150, 308))
        ys[data.draw(st.lists(st.integers(0, n - 1), max_size=3))] = ys[0]
        with np.errstate(over="ignore"):
            d = squareform(pdist(ys))
            np.fill_diagonal(d, np.inf)
            got = nearest_neighbour_distances(record(np.zeros((n, 1)), ys=ys), "objective")
        assert np.array_equal(got, d.min(axis=1))

    def test_line_of_three(self):
        d = nearest_neighbour_distances(record([[0.0, 0.0], [0.3, 0.0], [1.0, 0.0]]))
        assert d == pytest.approx([0.3, 0.3, 0.7])

    def test_space_selects_matrix(self):
        rec = record([[0.0, 0.0], [0.5, 0.0]], ys=[[0.0, 0.0], [3.0, 4.0]])
        assert nearest_neighbour_distances(rec, "search") == pytest.approx([0.5, 0.5])
        assert nearest_neighbour_distances(rec, "objective") == pytest.approx([5.0, 5.0])

    def test_matches_brute_force(self):
        x = np.random.default_rng(2).random((15, 4))
        d = nearest_neighbour_distances(record(x, ys=np.zeros((15, 2))))
        for i in range(15):
            expect = min(np.linalg.norm(x[i] - x[j]) for j in range(15) if j != i)
            assert d[i] == pytest.approx(expect)

    def test_needs_two_members(self):
        with pytest.raises(ContractError):
            nearest_neighbour_distances(record([[0.5, 0.5]]))


class TestExplorationProfile:
    def test_uniform_pairs_score_exactly_half(self):
        profile = exploration_profile(pair_history([0.4, 0.4, 0.4]))
        assert profile.overall_median == pytest.approx(0.4)
        assert np.all(profile.score == 0.5)
        assert np.mean(profile.score[1] >= 0.5) == 1.0

    def test_low_median_of_generation_medians(self):
        profile = exploration_profile(pair_history([0.1, 0.2, 0.3, 0.4]))
        assert profile.per_generation_median == pytest.approx([0.1, 0.2, 0.3, 0.4])
        assert profile.overall_median == pytest.approx(0.2)  # lower of the two middles
        assert profile.score[:, 0] == pytest.approx([0.25, 0.5, 0.75, 1.0])
        assert [np.mean(profile.score[t] >= 0.5) for t in range(4)] == [0.0, 1.0, 1.0, 1.0]

    def test_coincident_generation_scores_zero(self):
        profile = exploration_profile(pair_history([0.4, 0.0, 0.8]))
        assert profile.overall_median == pytest.approx(0.4)
        assert np.all(profile.score[1] == 0.0)
        assert profile.score[0] == pytest.approx([0.5, 0.5])
        assert profile.score[2] == pytest.approx([1.0, 1.0])

    def test_zero_spread_run_uses_indicator_convention(self):
        profile = exploration_profile(pair_history([0.0, 0.0, 0.6]))
        assert profile.overall_median == 0.0
        assert np.all(profile.score[0] == 0.0)
        assert np.all(profile.score[2] == 1.0)

    def test_scores_invariant_under_uniform_scaling(self):
        a = exploration_profile(pair_history([0.2, 0.4, 0.8]))
        b = exploration_profile(pair_history([0.1, 0.2, 0.4]))
        assert np.allclose(a.score, b.score)

    def test_objective_space_profile(self):
        xs = [np.array([[0.0, 0.0], [0.5, 0.0]])] * 2
        ys = [np.array([[0.0, 0.0], [0.0, 2.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
        profile = exploration_profile(synthetic_history(xs, ys), space="objective")
        assert profile.per_generation_median == pytest.approx([2.0, 1.0])
        assert profile.overall_median == pytest.approx(1.0)
        assert profile.score[1, 0] == pytest.approx(0.5)
        assert profile.score[0, 1] == pytest.approx(1.0)

    @given(st.integers(1, 4).flatmap(lambda rows: st.integers(2, 300).flatmap(lambda pop: arrays(
        float, (rows, pop),
        elements=st.one_of(st.sampled_from([0.0, 0.0, 0.25, 1.0, 5e-324, 1e-300, 1.7976931348623157e308]),
                           st.floats(0.0, 1e6))))))
    @settings(max_examples=200, deadline=None)
    def test_row_medians_bitwise_equal_to_numpy(self, distances):
        """Each generation's median distance is np.median's, bit for bit, ties, zeros and odd or even sizes alike.

        Two middle values near the largest float overflow to inf in both, and both warn.
        """
        with np.errstate(over="ignore"):
            assert _row_medians(distances).tobytes() == np.median(distances, axis=1).tobytes()

    def test_profile_validation(self):
        with pytest.raises(ContractError):
            ExplorationProfile("search", np.array([1.0]), np.array([[1.5]]))
        with pytest.raises(ContractError, match=r"entry 0: score nan outside \[0, 1\]"):
            ExplorationProfile("search", [0.1, 0.2], [[np.nan, 0.5], [0.2, 0.3]])
        with pytest.raises(ContractError, match="profile arrays"):
            ExplorationProfile("search", [0.1, 0.2], [[0.5]])

    def test_overall_median_is_derived_from_the_generation_medians(self):
        profile = ExplorationProfile("search", [0.3, 0.1, 0.4, 0.2], np.full((4, 1), 0.5))
        assert profile.overall_median == 0.2
        assert type(profile.overall_median) is float


class TestHypervolumeExact:
    def test_two_point_staircase(self):
        hv = hypervolume_exact([(0.2, 0.6), (0.6, 0.2)], (1.0, 1.0))
        assert abs(hv - 0.48) < 1e-15

    def test_single_point_box(self):
        assert hypervolume_exact([(0.5, 0.5, 0.5)], (1.0, 1.0, 1.0)) == pytest.approx(0.125)

    def test_three_objective_union_by_inclusion_exclusion(self):
        a, b = (0.5, 0.5, 0.5), (0.25, 0.75, 0.75)
        box = lambda p: float(np.prod(1.0 - np.asarray(p)))
        overlap = box(np.maximum(a, b))
        expected = box(a) + box(b) - overlap
        assert hypervolume_exact([a, b], (1, 1, 1)) == pytest.approx(expected)

    @pytest.mark.parametrize("front, reference", [
        ([[0.5, 0.5], [0.4, 0.6]], [1e200] * 2),
        ([[0.5, 0.5, 0.5]], [1e200] * 3),
        ([[0.5] * 4], [1e100] * 4),
        ([[0.5] * 5], [1e100] * 5),
        # Each slab is below the largest float, their sum is not: fsum's intermediate overflow.
        ([[0, 5e153, 0, 0], [5e153, 0, 1, 0]], [1e154, 1e154, 3, 1]),
    ], ids=["m2", "m3", "m4", "m5", "m4-slab-sum"])
    def test_volume_beyond_the_float_range_is_refused_naming_the_reference(self, front, reference):
        with pytest.raises(ContractError, match=re.escape(f"reference {[float(r) for r in reference]} exceeds")):
            hypervolume_exact(front, reference)

    def test_four_objective_union_by_inclusion_exclusion(self):
        a, b = (0.5, 0.5, 0.5, 0.5), (0.25, 0.75, 0.75, 0.25)
        # |A| + |B| - |A ∩ B|, where A ∩ B is the box of max(a, b) = (0.5, 0.75, 0.75, 0.5)
        expected = 0.5**4 + 0.75 * 0.25 * 0.25 * 0.75 - 0.5 * 0.25 * 0.25 * 0.5
        assert hypervolume_exact([a, b], (1, 1, 1, 1)) == pytest.approx(expected)

    @given(awkward_fronts())
    @settings(max_examples=300, deadline=None)
    def test_matches_exclusive_volume_oracle(self, front):
        reference = np.ones(front.shape[1])
        expected = hypervolume_oracle(front, reference)
        assert abs(hypervolume_exact(front, reference) - expected) <= 1e-12 * expected

    @given(shadowed_grid_fronts())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_dominance_filtered_path(self, front):
        """Without the dominance filter, M=2 keeps every bit and M=3-5 move by at most 1e-15 relative.

        Where M=3-5 move, a dominated row came before an equal-coordinate
        dominator in the sweep order, entered the staircase and left it.
        """
        reference = np.ones(front.shape[1])
        got, expected = hypervolume_exact(front, reference), filtered_hypervolume(front, reference)
        if front.shape[1] == 2:
            assert got == expected
        else:
            assert abs(got - expected) <= 1e-15 * expected

    def test_dominated_and_duplicate_members_change_nothing(self):
        base = [(0.2, 0.6), (0.6, 0.2)]
        ref = (1.0, 1.0)
        hv = hypervolume_exact(base, ref)
        assert hypervolume_exact(base + [(0.7, 0.7)], ref) == pytest.approx(hv)
        assert hypervolume_exact(base + [(0.2, 0.6)], ref) == pytest.approx(hv)

    def test_members_beyond_reference_are_ignored(self):
        hv = hypervolume_exact([(0.5, 0.5), (2.0, 0.1)], (1.0, 1.0))
        assert hv == pytest.approx(0.25)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(3)
        pts = rng.random((8, 3))
        ref = np.full(3, 1.5)
        hv = hypervolume_exact(pts, ref)
        for _ in range(5):
            assert hypervolume_exact(rng.permutation(pts), ref) == pytest.approx(hv)

    def test_objective_permutation_invariant(self):
        rng = np.random.default_rng(4)
        pts = rng.random((7, 4))
        ref = np.full(4, 1.2)
        hv = hypervolume_exact(pts, ref)
        for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]):
            assert hypervolume_exact(pts[:, perm], ref[perm]) == pytest.approx(hv)

    def test_adding_nondominated_point_grows_volume(self):
        ref = (1.0, 1.0)
        hv1 = hypervolume_exact([(0.2, 0.6)], ref)
        hv2 = hypervolume_exact([(0.2, 0.6), (0.6, 0.2)], ref)
        assert hv2 > hv1

    def test_empty_contribution(self):
        assert hypervolume_exact(np.empty((0, 2)), (1.0, 1.0)) == 0.0
        assert hypervolume_exact([(1.0, 1.0)], (1.0, 1.0)) == 0.0

    def test_dimension_limits(self):
        with pytest.raises(UnsupportedDimensionError):
            hypervolume_exact(np.zeros((2, 6)), np.ones(6))
        with pytest.raises(ContractError):
            hypervolume_exact([(0.5,)], (1.0,))

    def test_five_objectives_supported(self):
        assert hypervolume_exact([np.full(5, 0.5)], np.ones(5)) == pytest.approx(0.5**5)

    def test_reference_shape_mismatch(self):
        with pytest.raises(ContractError):
            hypervolume_exact(np.zeros((2, 3)), (1.0, 1.0))


class TestSweep4d:
    """The incremental 4-D sweep against the prefix-by-prefix slicing it replaced."""

    @staticmethod
    def assert_matches_slicing(front, reference):
        below = front[(front < reference).all(axis=1)]
        expected = slice_by_prefix(below[non_dominated_subset(below)], reference) if below.size else 0.0
        assert abs(hypervolume_exact(front, reference) - expected) <= 1e-14 * expected

    @given(tied_grid_fronts(4, 80))
    @settings(max_examples=200, deadline=None)
    def test_four_objectives_match_slicing(self, front):
        self.assert_matches_slicing(front, np.ones(4))

    @given(tied_grid_fronts(5, 30))
    @settings(max_examples=100, deadline=None)
    def test_five_objectives_match_slicing(self, front):
        self.assert_matches_slicing(front, np.ones(5))

    @given(tied_grid_fronts(4, 80))
    @settings(max_examples=100, deadline=None)
    def test_unfiltered_rows_match_slicing(self, front):
        # Rows dominated in 4-D, which hypervolume_exact filters out, only drop out of the sweep.
        reference = np.ones(4)
        below = front[(front < reference).all(axis=1)]
        expected = slice_by_prefix(below, reference)
        assert abs(metrics._sweep_4d(below, reference) - expected) <= 1e-14 * expected

    def test_sphere_front_of_168_points(self):
        rng = np.random.default_rng(168)
        front = np.abs(rng.standard_normal((168, 4)))
        front /= np.linalg.norm(front, axis=1, keepdims=True)
        self.assert_matches_slicing(front, np.full(4, 1.1))


class TestHypervolumeMc:
    def test_saturated_box_is_exact(self):
        estimate, se = hypervolume_mc([(0.5, 0.5)], (1.0, 1.0), 10_000,
                                      np.random.default_rng(0))
        assert estimate == pytest.approx(0.25)
        assert se == 0.0

    def test_agrees_with_exact_within_error(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 4):
            pts = rng.random((6, m))
            ref = np.full(m, 1.1)
            exact = hypervolume_exact(pts, ref)
            estimate, se = hypervolume_mc(pts, ref, 100_000, rng)
            assert se > 0
            assert abs(estimate - exact) <= max(5 * se, 0.01 * exact)

    def test_box_beyond_the_float_range_is_refused_naming_the_reference(self):
        with pytest.raises(ContractError, match=re.escape("reference [1e+200, 1e+200, 1e+200] exceeds")):
            hypervolume_mc([[0.5, 0.5, 0.5]], [1e200] * 3, 10_000, np.random.default_rng(0))

    def test_empty_front(self):
        assert hypervolume_mc([(2.0, 2.0)], (1.0, 1.0), 10_000,
                              np.random.default_rng(0)) == (0.0, 0.0)

    def test_minimum_sample_count(self):
        with pytest.raises(ContractError):
            hypervolume_mc([(0.5, 0.5)], (1.0, 1.0), 9_999, np.random.default_rng(0))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_identical_to_broadcast_coverage(self, data):
        m, n = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 40))
        samples = data.draw(st.sampled_from([10_000, 65_536, 65_537, 100_003, 131_077]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        # Rounding and copied rows give duplicate and tied points; coordinates
        # up to 1.2 put some points on or beyond the reference.
        pts = np.round(rng.random((n, m)) * 1.2, data.draw(st.integers(1, 17)))
        pts[data.draw(st.lists(st.integers(0, n - 1), max_size=3))] = pts[0]
        ref = np.ones(m)
        expected = hypervolume_mc_by_broadcast(pts, ref, samples, np.random.default_rng(seed + 1))
        assert hypervolume_mc(pts, ref, samples, np.random.default_rng(seed + 1)) == expected

    def test_supports_many_objectives(self):
        pts = np.full((1, 7), 0.5)
        estimate, _ = hypervolume_mc(pts, np.ones(7), 10_000, np.random.default_rng(2))
        assert estimate == pytest.approx(0.5**7)


class TestTrace:
    def make_history(self, fronts):
        xs = [np.full((len(f), 2), 0.5) for f in fronts]
        ys = [np.asarray(f, dtype=float) for f in fronts]
        return synthetic_history(xs, ys)

    def test_auto_reference_scales_componentwise_max(self):
        h = self.make_history([[(0.2, 0.6), (0.6, 0.2)], [(0.1, 0.5), (0.5, 0.1)]])
        assert auto_reference(h) == pytest.approx([0.66, 0.66])

    def test_trace_values(self):
        h = self.make_history([[(0.2, 0.6), (0.6, 0.2)], [(0.1, 0.1), (0.2, 0.2)]])
        trace = hypervolume_trace(h, reference=(1.0, 1.0))
        assert len(trace) == 2
        assert trace.values[0] == pytest.approx(0.48)
        assert trace.values[1] == pytest.approx(0.81)

    def test_auto_reference_default(self):
        h = self.make_history([[(0.2, 0.6), (0.6, 0.2)]])
        trace = hypervolume_trace(h)
        assert trace.reference_point == pytest.approx([0.66, 0.66])
        assert trace.values[0] == pytest.approx(
            hypervolume_exact([(0.2, 0.6), (0.6, 0.2)], (0.66, 0.66)))

    def test_one_exact_call_per_generation(self, monkeypatch):
        # A per-generation cost measured by wrapping hypervolume_exact
        # relies on this: one call per generation, looked up at call time.
        calls = []
        exact = metrics.hypervolume_exact

        def counting(front, reference):
            calls.append(front)
            return exact(front, reference)

        monkeypatch.setattr(metrics, "hypervolume_exact", counting)
        fronts = [[(0.2, 0.6), (0.6, 0.2)], [(0.1, 0.5), (0.5, 0.5)], [(0.3, 0.3), (0.4, 0.1)]]
        trace = hypervolume_trace(self.make_history(fronts), reference=(1.0, 1.0))
        assert len(calls) == len(fronts)
        assert trace.values == pytest.approx([exact(f, (1.0, 1.0)) for f in fronts])

    def test_constant_history_constant_trace(self):
        h = self.make_history([[(0.3, 0.4), (0.4, 0.3)]] * 3)
        trace = hypervolume_trace(h, reference=(1.0, 1.0))
        assert np.all(trace.values == trace.values[0])

    def test_tight_reference_gives_zero_volume(self):
        h = self.make_history([[(0.2, 0.6), (0.6, 0.2)]])
        trace = hypervolume_trace(h, reference=(0.1, 0.1))
        assert trace.values[0] == 0.0

    def test_reference_dimension_checked(self):
        h = self.make_history([[(0.2, 0.6), (0.6, 0.2)]])
        with pytest.raises(ContractError):
            hypervolume_trace(h, reference=(1.0, 1.0, 1.0))

    def test_volume_beyond_the_float_range_names_the_generation(self):
        h = self.make_history([[(0.2, 0.6), (0.6, 0.2)], [(0.1, 0.5), (0.5, 0.1)]])
        with pytest.raises(ContractError, match=r"^generation 0: hypervolume against reference \[1e\+200, 1e\+200\]"):
            hypervolume_trace(h, reference=(1e200, 1e200))

    def test_trace_validation(self):
        with pytest.raises(ContractError):
            HypervolumeTrace(None, np.array([0.5, -0.1]))
        trace = HypervolumeTrace(None, np.array([0.5, 0.6]))
        assert trace.reference_point is None
        assert len(trace) == 2
