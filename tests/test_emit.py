import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_history
from evohist import (
    ContractError,
    Embedding,
    FormatVersionError,
    HypervolumeTrace,
    MalformedRecordError,
    OperatorConfig,
    embed_history,
    exploration_profile,
    hypervolume_trace,
    read_embedding,
    read_history,
    read_hv_trace,
    render_history_figure,
    render_hv_figure,
    write_embedding,
    write_history,
    write_hv_trace,
)
from evohist import emit
from evohist.embedding import as_space
from evohist.emit import COLOUR_ANCHORS, _row_texts, open_atomic


# The message read_history gives for a generation line laid out other than as write_history writes it.
LAYOUT = 'expected {"gen": t, "x": [[...]], "y": [[...]]} as write_history writes it'
# ... and for a matrix whose rows differ in length or hold a space that no separator accounts for.
ROWS = "matrix rows differ in length or hold a space outside a separator"


def tiny_history():
    xs = [np.array([[0.1, 0.2], [0.9, 0.4]]), np.array([[1 / 3, 0.25], [0.7, 0.6]])]
    ys = [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[0.5, 1.5], [1.5, 0.5]])]
    return synthetic_history(xs, ys)


def colour_at(score):
    """One score's colour through the array ramp, as a tuple of ints."""
    return tuple(emit._colours([score])[0].tolist())


def rewrite_line(path, lineno, new_line):
    lines = path.read_text().splitlines()
    if new_line is None:
        del lines[lineno - 1]
    else:
        lines[lineno - 1] = new_line
    path.write_text("\n".join(lines) + "\n")


def elements(svg_text, local_name):
    return [e for e in ET.fromstring(svg_text).iter() if e.tag.split("}")[-1] == local_name]


class TestHistoryFile:
    def test_round_trip_preserves_everything(self, tmp_path):
        h = tiny_history()
        path = tmp_path / "history.jsonl"
        write_history(h, path)
        back = read_history(path)
        assert (back.problem, back.M, back.D) == (h.problem, h.M, h.D)
        assert (back.algorithm, back.population_size) == (h.algorithm, h.population_size)
        assert (back.evaluation_budget, back.seed) == (h.evaluation_budget, h.seed)
        assert back.operators == h.operators
        assert back.n_generations == h.n_generations
        for a, b in zip(h.generations, back.generations):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_rewrites_are_byte_identical(self, tmp_path):
        h = tiny_history()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_history(h, p1)
        write_history(h, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        xs = [np.array([[1 / 3, np.nextafter(1.0, 0.0)], [1e-300, 0.1 + 0.2]])]
        ys = [np.array([[np.pi, -1e17], [1e-17, 123456789.123456789]])]
        h = synthetic_history(xs, ys)
        path = tmp_path / "h.jsonl"
        write_history(h, path)
        back = read_history(path)
        assert np.array_equal(back.generations[0].x, xs[0])
        assert np.array_equal(back.generations[0].y, ys[0])

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        x = np.array([[-0.0, 0.5], [0.0, 1.0]])
        y = np.array([[-0.0, 1.0], [1.0, -0.0]])
        path = tmp_path / "h.jsonl"
        write_history(synthetic_history([x], [y]), path)
        assert '"x": [[-0, 0.5], [0, 1]]' in path.read_text()
        back = read_history(path).generations[0]
        assert np.array_equal(np.signbit(back.x), np.signbit(x)) and np.array_equal(back.x, x)
        assert np.array_equal(np.signbit(back.y), np.signbit(y)) and np.array_equal(back.y, y)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        header = path.read_text().splitlines()[0]
        assert header.startswith('{"format_version": 1, "problem": "dtlz2", "M": 2, "D": 2,')
        assert '"rng_algorithm": "numpy-pcg64"' in header
        assert path.read_bytes().count(b"\r") == 0

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        rewrite_line(path, 1, path.read_text().splitlines()[0].replace(
            '"format_version": 1', '"format_version": 2'))
        with pytest.raises(FormatVersionError):
            read_history(path)

    def test_missing_header_field_named(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        rewrite_line(path, 1, path.read_text().splitlines()[0].replace(', "sbx_eta": 15', ''))
        with pytest.raises(MalformedRecordError, match="sbx_eta"):
            read_history(path)

    @pytest.mark.parametrize("field, value", [
        ("M", "x"), ("D", 2.0), ("population_size", 2.5), ("evaluation_budget", None), ("seed", True),
        ("crossover_probability", [1]), ("mutation_probability", "0.1"), ("sbx_eta", False), ("pm_eta", {}),
        ("format_version", True), ("problem", 5), ("algorithm", None), ("rng_algorithm", 1),
    ])
    def test_mistyped_header_field_named(self, tmp_path, field, value):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        header = json.loads(path.read_text().splitlines()[0])
        header[field] = value
        rewrite_line(path, 1, json.dumps(header))
        with pytest.raises(MalformedRecordError, match=f"line 1: header field '{field}'"):
            read_history(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        rewrite_line(path, 3, '{"gen": 1, "x": [[oops')
        with pytest.raises(MalformedRecordError, match="line 3"):
            read_history(path)

    def test_missing_generation_key(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        rewrite_line(path, 2, '{"gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]]}')
        with pytest.raises(MalformedRecordError, match=re.escape(f"line 2: {LAYOUT}")):
            read_history(path)

    def test_generation_order_enforced(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
        with pytest.raises(ContractError, match="line 2"):
            read_history(path)

    def test_empty_and_headerless_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(MalformedRecordError):
            read_history(empty)
        header_only = tmp_path / "header.jsonl"
        write_history(tiny_history(), header_only)
        rewrite_line(header_only, 3, None)
        rewrite_line(header_only, 2, None)
        with pytest.raises(MalformedRecordError, match="line 2"):
            read_history(header_only)

    def test_out_of_range_values_rejected_with_line(self, tmp_path):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        rewrite_line(path, 2, '{"gen": 0, "x": [[0.1, 1.5], [0.9, 0.4]], "y": [[1.0, 2.0], [2.0, 1.0]]}')
        with pytest.raises(ContractError, match="line 2"):
            read_history(path)


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path, short_run):
        emb = embed_history(short_run, "objective", max_points=200)
        profile = exploration_profile(short_run, "objective")
        path = tmp_path / "embedding.csv"
        write_embedding(emb, profile.score[emb.generation, emb.member_index], path)
        back, scores = read_embedding(path)
        assert back.space is emb.space
        assert back.stride == emb.stride
        assert back.eigenvalues is None
        # rows come back sorted by (gen, idx); emb is already in that order
        assert np.array_equal(back.generation, emb.generation)
        assert np.array_equal(back.member_index, emb.member_index)
        assert np.array_equal(back.e1, emb.e1)
        assert np.array_equal(back.e2, emb.e2)
        expected = [profile.score[g, i] for g, i in zip(emb.generation, emb.member_index)]
        assert np.array_equal(scores, expected)

    def test_rows_sorted_even_from_shuffled_embedding(self, tmp_path):
        emb = Embedding("search", np.array([3.0, 1.0, 2.0]), np.array([30.0, 10.0, 20.0]),
                        np.array([1, 0, 0]), np.array([0, 1, 0]), stride=2)
        path = tmp_path / "e.csv"
        write_embedding(emb, np.array([0.3, 0.1, 0.2]), path)
        rows = path.read_text().splitlines()
        assert rows[0] == "gen,idx,e1,e2,score,space,stride"
        assert [r.split(",")[:2] for r in rows[1:]] == [["0", "0"], ["0", "1"], ["1", "0"]]
        assert rows[1].split(",")[2] == "2"  # e1 of (gen 0, idx 0)
        assert rows[3].split(",")[4] == format(0.3, ".17g")

    def test_score_array_must_align(self, tmp_path):
        emb = Embedding("search", np.zeros(3), np.zeros(3),
                        np.zeros(3, dtype=int), np.arange(3), stride=1)
        with pytest.raises(ContractError):
            write_embedding(emb, np.zeros(2), tmp_path / "e.csv")

    def test_read_validation(self, tmp_path):
        bad_header = tmp_path / "bad.csv"
        bad_header.write_text("gen,idx,e1,e2\n0,0,1,2\n")
        with pytest.raises(MalformedRecordError, match="line 1"):
            read_embedding(bad_header)

        short_row = tmp_path / "short.csv"
        short_row.write_text("gen,idx,e1,e2,score,space,stride\n0,0,1.0,2.0\n")
        with pytest.raises(MalformedRecordError, match="line 2"):
            read_embedding(short_row)

        not_a_number = tmp_path / "nan.csv"
        not_a_number.write_text("gen,idx,e1,e2,score,space,stride\n0,0,one,2.0,0.5,search,1\n")
        with pytest.raises(MalformedRecordError, match="line 2"):
            read_embedding(not_a_number)

        mixed = tmp_path / "mixed.csv"
        mixed.write_text(
            "gen,idx,e1,e2,score,space,stride\n"
            "0,0,1.0,2.0,0.5,search,1\n0,1,1.0,2.0,0.5,objective,1\n")
        with pytest.raises(MalformedRecordError, match="space/stride"):
            read_embedding(mixed)

        for score in ("1.5", "-0.5"):
            outside = tmp_path / "outside.csv"
            outside.write_text(f"gen,idx,e1,e2,score,space,stride\n0,0,1.0,2.0,0.5,search,1\n0,1,1.0,2.0,{score},search,1\n")
            with pytest.raises(MalformedRecordError, match=rf"line 3: score {score} outside \[0, 1\]"):
                read_embedding(outside)

        empty = tmp_path / "empty.csv"
        empty.write_text("gen,idx,e1,e2,score,space,stride\n")
        with pytest.raises(MalformedRecordError):
            read_embedding(empty)


class TestHvTraceFile:
    def test_round_trip(self, tmp_path):
        trace = HypervolumeTrace(np.array([1.0, 1.0]), np.array([0.1, 1 / 3, 0.5]))
        path = tmp_path / "hv.csv"
        write_hv_trace(trace, path)
        back = read_hv_trace(path)
        assert back.reference_point is None
        assert np.array_equal(back.values, trace.values)
        assert path.read_text().splitlines()[0] == "gen,hv"

    def test_read_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("generation,hv\n0,0.5\n")
        with pytest.raises(MalformedRecordError, match="line 1"):
            read_hv_trace(bad)

        gap = tmp_path / "gap.csv"
        gap.write_text("gen,hv\n0,0.5\n2,0.6\n")
        with pytest.raises(MalformedRecordError, match="line 3"):
            read_hv_trace(gap)

        empty = tmp_path / "empty.csv"
        empty.write_text("gen,hv\n")
        with pytest.raises(MalformedRecordError):
            read_hv_trace(empty)


class TestColourRamp:
    def test_anchor_values_exact(self):
        for position, rgb in COLOUR_ANCHORS:
            assert colour_at(position) == rgb

    def test_interpolation_between_first_anchors(self):
        assert colour_at(0.125) == (64, 42, 112)

    def test_clamping(self):
        assert colour_at(-5.0) == COLOUR_ANCHORS[0][1]
        assert colour_at(5.0) == COLOUR_ANCHORS[-1][1]

    def test_channels_are_bytes(self):
        for s in np.linspace(0, 1, 101):
            rgb = colour_at(float(s))
            assert all(isinstance(c, int) and 0 <= c <= 255 for c in rgb)


class TestHistoryFigure:
    def make_embedding(self):
        rng = np.random.default_rng(0)
        n_gen, pop = 4, 5
        return Embedding(
            "search",
            rng.standard_normal(n_gen * pop),
            rng.standard_normal(n_gen * pop),
            np.repeat(np.arange(n_gen), pop),
            np.tile(np.arange(pop), n_gen),
            stride=1,
        ), np.linspace(0, 1, n_gen * pop)

    def test_structure(self):
        emb, scores = self.make_embedding()
        svg = render_history_figure(emb, scores)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"
        assert root.get("width") == "900" and root.get("height") == "700"
        assert len(elements(svg, "circle")) == emb.n_points
        crosses = [e for e in elements(svg, "path") if e.get("class") == "final-cross"]
        assert len(crosses) == 5  # one per final-generation member
        assert all(c.get("stroke") == "#ffffff" for c in crosses)
        lines = elements(svg, "line")
        assert len(lines) == 3  # e1, e2, gen axes

    def test_axis_labels_present(self):
        emb, scores = self.make_embedding()
        svg = render_history_figure(emb, scores)
        texts = [e.text for e in elements(svg, "text")]
        assert "e1" in texts and "e2" in texts and "gen" in texts

    def test_deterministic(self):
        emb, scores = self.make_embedding()
        assert render_history_figure(emb, scores) == render_history_figure(emb, scores)

    def test_scores_drive_fill_colour(self):
        emb = Embedding("search", np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                        np.array([0, 0]), np.array([0, 1]), stride=1)
        svg = render_history_figure(emb, np.array([0.0, 1.0]))
        fills = [c.get("fill") for c in elements(svg, "circle")]
        assert "rgb(68,1,84)" in fills and "rgb(253,231,37)" in fills

    def test_single_generation_renders(self):
        emb = Embedding("search", np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                        np.array([0, 0]), np.array([0, 1]), stride=1)
        svg = render_history_figure(emb, np.array([0.5, 0.5]))
        # everything is final generation, so every circle gets a cross
        assert len([e for e in elements(svg, "path") if e.get("class") == "final-cross"]) == 2


class TestHvFigure:
    def test_structure_and_determinism(self):
        trace = HypervolumeTrace(None, np.array([0.1, 0.35, 0.5]))
        svg = render_hv_figure(trace)
        root = ET.fromstring(svg)
        assert root.get("width") == "900"
        polylines = elements(svg, "polyline")
        assert len(polylines) == 1
        assert svg == render_hv_figure(trace)

    def test_increasing_trace_rises_on_canvas(self):
        trace = HypervolumeTrace(None, np.array([0.1, 0.2, 0.4, 0.8]))
        svg = render_hv_figure(trace)
        points = elements(svg, "polyline")[0].get("points").split()
        ys = [float(p.split(",")[1]) for p in points]
        xs = [float(p.split(",")[0]) for p in points]
        assert len(points) == 4
        assert all(a > b for a, b in zip(ys, ys[1:]))  # SVG y grows downwards
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_constant_trace_is_flat(self):
        trace = HypervolumeTrace(None, np.array([0.3, 0.3, 0.3]))
        svg = render_hv_figure(trace)
        points = elements(svg, "polyline")[0].get("points").split()
        ys = {p.split(",")[1] for p in points}
        assert len(ys) == 1

    def test_single_value_trace(self):
        trace = HypervolumeTrace(None, np.array([0.25]))
        points = elements(render_hv_figure(trace), "polyline")[0].get("points").split()
        assert len(points) == 1

    def test_full_pipeline_objects_render(self, short_run):
        trace = hypervolume_trace(short_run)
        svg = render_hv_figure(trace)
        assert len(elements(svg, "polyline")[0].get("points").split()) == short_run.n_generations


finite_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300, 1e-300, 5e-324, -5e-324, 2.2250738585072009e-308]),
)


class TestMatrixFormatting:
    @given(st.integers(1, 8).flatmap(
        lambda m: st.lists(st.lists(finite_reals, min_size=m, max_size=m), min_size=1, max_size=8)
    ))
    @settings(max_examples=200, deadline=None)
    def test_template_matches_per_value_format(self, rows):
        expected = ["[" + ", ".join(format(v, ".17g") for v in row) + "]" for row in rows]
        assert _row_texts(np.array(rows, dtype=float), {})[0] == expected

    def test_no_rows(self):
        assert _row_texts(np.empty((0, 3)), {}) == ([], {})


def per_value_line(rec):
    """One history line formatted value by value: the oracle for the row-reusing writer."""
    def matrix(rows):
        return "[" + ", ".join("[" + ", ".join(format(v, ".17g") for v in row) + "]" for row in rows) + "]"
    return f'{{"gen": {rec.generation}, "x": {matrix(rec.x)}, "y": {matrix(rec.y)}}}'


class TestHistoryRowReuse:
    def test_matches_per_value_format(self, tmp_path):
        a, b, c, d = [0.0, 0.5, 1 / 3], [1.0, 5e-324, 0.25], [0.1, 0.2, 0.3], [0.7, 0.0, 1.0]
        a_neg = [-0.0, 0.5, 1 / 3]  # the same values as a, but a different bit pattern
        xs = [
            [a, a, b],      # a duplicate row within one generation
            [a_neg, b, c],  # 0.0 -> -0.0 between generations
            [c, d, d],
            [a, d, a_neg],  # a recurs after a one-generation gap, beside its -0.0 twin
        ]
        ys = [[[v * 7.0 for v in row[:2]] for row in gen] for gen in xs]
        ys[2][0] = [-0.0, 1e300]
        ys[3][2] = [0.0, 1e300]
        history = synthetic_history(xs, ys)
        path = tmp_path / "history.jsonl"
        write_history(history, path)
        lines = path.read_text().splitlines()[1:]
        assert lines == [per_value_line(rec) for rec in history.generations]
        assert '"x": [[-0, 0.5' in lines[1] and '"x": [[0, 0.5' in lines[3] and "[-0, 0.5" in lines[3]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_recurrence_matches_per_value_format(self, tmp_path_factory, data):
        pop, dim, gens = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        unit = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 5e-324, 2.2250738585072009e-308])
        pool_x = data.draw(st.lists(st.lists(unit, min_size=dim, max_size=dim), min_size=1, max_size=5))
        pool_y = data.draw(st.lists(st.lists(finite_reals, min_size=2, max_size=2), min_size=1, max_size=5))
        pick = st.lists(st.integers(0, 4), min_size=pop, max_size=pop)
        xs = [[pool_x[i % len(pool_x)] for i in data.draw(pick)] for _ in range(gens)]
        ys = [[pool_y[i % len(pool_y)] for i in data.draw(pick)] for _ in range(gens)]
        history = synthetic_history(xs, ys)
        path = tmp_path_factory.mktemp("history") / "history.jsonl"
        write_history(history, path)
        assert path.read_text().splitlines()[1:] == [per_value_line(rec) for rec in history.generations]


# Decision variables where text round trips are easiest to get wrong: signed zeros, the
# smallest and the largest subnormal, the largest double below 1 and a 17-digit real.
UNIT_EDGES = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072009e-308, np.nextafter(1.0, 0.0), 1 / 3]


@st.composite
def histories(draw):
    """A RunHistory of a few generations: x from UNIT_EDGES, y from finite_reals."""
    pop, d, m, gens = draw(st.integers(2, 5)), draw(st.integers(1, 4)), draw(st.integers(2, 3)), draw(st.integers(1, 4))

    def matrices(values, width):
        return [draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=pop, max_size=pop))
                for _ in range(gens)]

    return synthetic_history(matrices(st.sampled_from(UNIT_EDGES), d), matrices(finite_reals, m))


# One-token edits of a generation line, none of which write_history can produce: a value (or
# the gen) replaced by a JSON boolean or string, '_'-grouped or space-padded digits, gen as -0,
# and a separator dropped or doubled.
TOKEN = re.compile(r"-?[0-9][-+.0-9e]*")
SEPARATORS = [", ", "], [", '{"gen": ', ', "x": [[', ']], "y": [[', "]]}"]


@st.composite
def edited_line(draw, line):
    """``line`` with one edit from the catalogue above, at a drawn place."""
    kind = draw(st.sampled_from(["token", "gen", "drop", "double"]))
    if kind in ("token", "gen"):
        tokens = list(TOKEN.finditer(line))
        token = tokens[0] if kind == "gen" else draw(st.sampled_from(tokens))
        text = "-0" if kind == "gen" else draw(st.sampled_from(["true", "false", '"0.5"', "1_0", " 1", "1 "]))
        return line[:token.start()] + text + line[token.end():]
    separator = draw(st.sampled_from([sep for sep in SEPARATORS if sep in line]))
    starts = [m.start() for m in re.finditer(re.escape(separator), line)]
    at = draw(st.sampled_from(starts))
    return line[:at] + (separator * 2 if kind == "double" else "") + line[at + len(separator):]


class TestHistoryLayout:
    """read_history reads back exactly what write_history writes and refuses any other layout."""

    @given(histories())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_bit_identical(self, tmp_path_factory, history):
        path = tmp_path_factory.mktemp("history") / "history.jsonl"
        write_history(history, path)
        back = read_history(path)
        assert back.n_generations == history.n_generations
        for a, b in zip(history.generations, back.generations):
            assert bits(a.x.view(np.int64)) == bits(b.x.view(np.int64))
            assert bits(a.y.view(np.int64)) == bits(b.y.view(np.int64))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_token_edit_is_refused_or_reads_back_as_written(self, tmp_path_factory, short_run, data):
        """Either the edited line is named in the error, or writing what was read gives the edited file's bytes."""
        path = tmp_path_factory.mktemp("history") / "history.jsonl"
        write_history(short_run, path)
        lines = path.read_text().splitlines()
        lineno = data.draw(st.integers(2, len(lines)))
        lines[lineno - 1] = data.draw(edited_line(lines[lineno - 1]))
        path.write_text("\n".join(lines) + "\n")
        try:
            back = read_history(path)
        except ValueError as exc:
            assert f": line {lineno}: " in str(exc)
            return
        write_history(back, path.with_name("again.jsonl"))
        assert path.with_name("again.jsonl").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("line, message", [
        ('{"gen":0, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2, 1]]}', LAYOUT),
        ('{"gen": 0,"x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2, 1]]}', LAYOUT),
        ('{"gen": 0, "x": [[0.1,0.2], [0.9, 0.4]], "y": [[1, 2], [2, 1]]}', ROWS),
        ('{"gen": 0, "x": [[0.1, 0.2],[0.9, 0.4]], "y": [[1, 2], [2, 1]]}', "could not convert string to float"),
        ('{"gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2, 1]] }', LAYOUT),
        ('{"y": [[1, 2], [2, 1]], "gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]]}', LAYOUT),
        ('{"gen": 00, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2, 1]]}', LAYOUT),
        ('{"gen": 0, "x": [[0.1, 0.2], [0.9,  0.4]], "y": [[1, 2], [2, 1]]}', ROWS),
        ('{"gen": 0, "x": [[0.1, 0.2], [ 0.9, 0.4]], "y": [[1, 2], [2, 1]]}', ROWS),
        ('{"gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2, 1\t]]}', "a tab"),
        ('{"gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2, \u0661]]}', "non-ASCII"),
        ('{"gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2, 1e1_0]]}', "'_'"),
        ('{"gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2]]}', ROWS),
        ('{"gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[]]}', "could not convert string to float: ''"),
    ], ids=["gen-colon", "gen-comma", "value-comma", "row-comma", "closing-space", "key-order", "gen-leading-zero",
            "double-space", "leading-space", "tab", "non-ascii-digit", "underscore", "ragged", "empty"])
    def test_other_layouts_refused(self, tmp_path, line, message):
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        rewrite_line(path, 2, line)
        with pytest.raises(MalformedRecordError, match=f"line 2: .*{re.escape(message)}"):
            read_history(path)

    def test_json_spellings_of_the_written_values_read_back(self, tmp_path):
        """Values are read by numpy's float parser, so other spellings of a real, NaN and Infinity included, parse."""
        path = tmp_path / "h.jsonl"
        write_history(tiny_history(), path)
        rewrite_line(path, 2, '{"gen": 0, "x": [[1e-1, 0.20], [+0.9, 4E-1]], "y": [[1.0, 2], [2, 1]]}')
        assert np.array_equal(read_history(path).generations[0].x, [[0.1, 0.2], [0.9, 0.4]])
        rewrite_line(path, 2, '{"gen": 0, "x": [[0.1, 0.2], [0.9, 0.4]], "y": [[1, 2], [2, Infinity]]}')
        with pytest.raises(ContractError, match="line 2: objective 1 = inf in row 1 is not finite"):
            read_history(path)


class TestAtomicWrites:
    @staticmethod
    def fail_on_third_generation(monkeypatch):
        calls = []
        real = emit._row_texts

        def flaky(rows, previous):
            calls.append(rows)
            if len(calls) == 5:  # one call for x, one for y per generation: call 5 is generation 2's x
                raise RuntimeError("disk full")
            return real(rows, previous)

        monkeypatch.setattr(emit, "_row_texts", flaky)

    def test_failed_write_keeps_existing_history(self, tmp_path, monkeypatch, short_run):
        path = tmp_path / "history.jsonl"
        path.write_bytes(b"previous contents\n")
        self.fail_on_third_generation(monkeypatch)
        with pytest.raises(RuntimeError, match="disk full"):
            write_history(short_run, path)
        assert path.read_bytes() == b"previous contents\n"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_failed_write_creates_nothing(self, tmp_path, monkeypatch, short_run):
        self.fail_on_third_generation(monkeypatch)
        with pytest.raises(RuntimeError, match="disk full"):
            write_history(short_run, tmp_path / "history.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_replaces_in_place_with_plain_file_mode(self, tmp_path, short_run):
        path = tmp_path / "history.jsonl"
        path.write_text("stale\n")
        write_history(short_run, path)
        assert read_history(path).n_generations == short_run.n_generations
        with open(tmp_path / "plain", "w") as fh:
            fh.write("x")
        assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["history.jsonl", "plain"]

    def test_all_writers_leave_no_temporary_file(self, tmp_path, short_run):
        embedding = embed_history(short_run, "search")
        profile = exploration_profile(short_run, "search")
        write_embedding(embedding, profile.score[embedding.generation, embedding.member_index],
                        tmp_path / "embedding.csv")
        write_hv_trace(hypervolume_trace(short_run), tmp_path / "hv.csv")
        with open_atomic(tmp_path / "figure.svg") as fh:
            fh.write("<svg/>\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["embedding.csv", "figure.svg", "hv.csv"]


# Oracles for the array-at-once artifact code: the per-point implementations
# it replaced, kept verbatim apart from names.

def per_point_colour(score):
    s = min(max(float(score), 0.0), 1.0)
    for (lo, lo_rgb), (hi, hi_rgb) in zip(COLOUR_ANCHORS, COLOUR_ANCHORS[1:]):
        if s <= hi:
            w = 0.0 if hi == lo else (s - lo) / (hi - lo)
            return tuple(round(a + (b - a) * w) for a, b in zip(lo_rgb, hi_rgb))
    return COLOUR_ANCHORS[-1][1]


def per_point_embedding_csv(embedding, scores):
    order = np.lexsort((embedding.member_index, embedding.generation))
    lines = [emit.EMBEDDING_CSV_HEADER]
    for i in order:
        lines.append(
            f"{embedding.generation[i]},{embedding.member_index[i]},"
            f"{format(float(embedding.e1[i]), '.17g')},{format(float(embedding.e2[i]), '.17g')},"
            f"{format(float(scores[i]), '.17g')},{embedding.space},{embedding.stride}"
        )
    return "\n".join(lines) + "\n"


def per_point_history_figure(embedding, scores):
    _px, _project, _ticks = emit._px, emit._project, emit._ticks
    width_px, height_px = 900, 700
    gen_max = int(embedding.generation.max())
    z = embedding.generation / gen_max if gen_max > 0 else np.zeros(embedding.n_points)
    u_pts, v_pts = _project(embedding.e1, embedding.e2, z)

    x_lo, x_hi = float(embedding.e1.min()), float(embedding.e1.max())
    y_lo, y_hi = float(embedding.e2.min()), float(embedding.e2.max())
    axes = []
    for name, start, end, values in (
        ("e1", (x_lo, y_lo, 0.0), (x_hi, y_lo, 0.0), _ticks(x_lo, x_hi)),
        ("e2", (x_lo, y_lo, 0.0), (x_lo, y_hi, 0.0), _ticks(y_lo, y_hi)),
        ("gen", (x_lo, y_lo, 0.0), (x_lo, y_lo, 1.0), _ticks(0, max(gen_max, 1))),
    ):
        start = np.array(start)
        end = np.array(end)
        steps = np.linspace(0.0, 1.0, values.size)[:, None]
        axes.append((name, start, end, values, start + steps * (end - start)))

    frame_xyz = np.vstack([np.vstack([a[1], a[2], a[4]]) for a in axes])
    u_frame, v_frame = _project(frame_xyz[:, 0], frame_xyz[:, 1], frame_xyz[:, 2])
    u_all = np.concatenate([u_pts, u_frame])
    v_all = np.concatenate([v_pts, v_frame])
    u_lo, u_hi = float(u_all.min()), float(u_all.max())
    v_lo, v_hi = float(v_all.min()), float(v_all.max())
    margin = 70.0
    span_u = max(u_hi - u_lo, 1e-12)
    span_v = max(v_hi - v_lo, 1e-12)
    scale = min((width_px - 2 * margin) / span_u, (height_px - 2 * margin) / span_v)

    def place(u, v):
        px = margin + (u - u_lo) * scale + ((width_px - 2 * margin) - span_u * scale) / 2
        py = height_px - margin - (v - v_lo) * scale - (
            (height_px - 2 * margin) - span_v * scale
        ) / 2
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">',
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" fill="#ffffff"/>',
    ]
    parts.append('<g stroke="#666666" stroke-width="1" fill="none">')
    for name, start, end, values, ticks_xyz in axes:
        x0, y0 = place(*_project(start[0], start[1], start[2]))
        x1, y1 = place(*_project(end[0], end[1], end[2]))
        parts.append(f'<line x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x1)}" y2="{_px(y1)}"/>')
    parts.append("</g>")
    parts.append('<g font-family="sans-serif" font-size="11" fill="#333333">')
    for name, start, end, values, ticks_xyz in axes:
        tu, tv = _project(ticks_xyz[:, 0], ticks_xyz[:, 1], ticks_xyz[:, 2])
        for value, uu, vv in zip(values, tu, tv):
            px, py = place(float(uu), float(vv))
            parts.append(f'<text x="{_px(px + 4)}" y="{_px(py - 3)}">{format(value, ".3g")}</text>')
        px, py = place(*_project(end[0], end[1], end[2]))
        parts.append(f'<text x="{_px(px + 10)}" y="{_px(py + 4)}" font-size="13">{name}</text>')
    parts.append("</g>")

    for i in range(embedding.n_points):
        px, py = place(float(u_pts[i]), float(v_pts[i]))
        r, g, b = per_point_colour(scores[i])
        parts.append(f'<circle cx="{_px(px)}" cy="{_px(py)}" r="2.5" fill="rgb({r},{g},{b})"/>')
    arm = 4.0
    for i in np.flatnonzero(embedding.generation == gen_max):
        px, py = place(float(u_pts[i]), float(v_pts[i]))
        parts.append(
            f'<path class="final-cross" d="M {_px(px - arm)} {_px(py - arm)} L {_px(px + arm)} '
            f'{_px(py + arm)} M {_px(px - arm)} {_px(py + arm)} L {_px(px + arm)} {_px(py - arm)}" '
            f'stroke="#ffffff" stroke-width="1.5" fill="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


ANCHOR_POSITIONS = [position for position, _ in COLOUR_ANCHORS]
# Scores where the ramp is easiest to get wrong: each anchor and one step
# either side of it, signed zeros, infinities, NaN and values off [0, 1].
EDGE_SCORES = sorted(
    {np.nextafter(a, d) for a in ANCHOR_POSITIONS for d in (-np.inf, np.inf)} | set(ANCHOR_POSITIONS)
) + [-0.0, np.inf, -np.inf, np.nan, -1.5, 1.5, 1e300, -5e-324]
ramp_scores = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    st.sampled_from(EDGE_SCORES),
)
unit_scores = st.one_of(st.floats(0.0, 1.0), st.sampled_from(ANCHOR_POSITIONS + [5e-324, np.nextafter(1.0, 0.0)]))
coordinates = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, 1e-9]))


@st.composite
def embeddings_with_scores(draw):
    """A shuffled embedding of whole generations and one score per point, some gathered from a profile's array."""
    n_gen, pop = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    n = n_gen * pop
    order = np.array(draw(st.permutations(range(n))))
    embedding = Embedding(
        draw(st.sampled_from(["search", "objective"])),
        draw(st.lists(coordinates, min_size=n, max_size=n)),
        draw(st.lists(coordinates, min_size=n, max_size=n)),
        np.repeat(np.arange(n_gen), pop)[order],
        np.tile(np.arange(pop), n_gen)[order],
        stride=draw(st.integers(1, 5)),
    )
    if draw(st.booleans()):
        score = np.array(draw(st.lists(unit_scores, min_size=n, max_size=n))).reshape(n_gen, pop)
        return embedding, score[embedding.generation, embedding.member_index]
    return embedding, np.array(draw(st.lists(ramp_scores, min_size=n, max_size=n)))


class TestArrayAtOnceOracles:
    """The batched ramp, CSV and figure give exactly the per-point code's values and bytes."""

    @given(st.lists(ramp_scores, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_ramp_matches_per_point(self, scores):
        expected = [per_point_colour(s) for s in scores]
        assert [tuple(rgb) for rgb in emit._colours(np.array(scores, dtype=float)).tolist()] == expected
        assert [colour_at(s) for s in scores] == expected

    def test_ramp_edges_match_per_point(self):
        for s in EDGE_SCORES:
            assert colour_at(s) == per_point_colour(s), s
        assert colour_at(np.nan) == COLOUR_ANCHORS[-1][1]

    @given(embeddings_with_scores())
    @settings(max_examples=150, deadline=None)
    def test_embedding_csv_matches_per_point(self, tmp_path_factory, case):
        embedding, scores = case
        path = tmp_path_factory.mktemp("csv") / "embedding.csv"
        write_embedding(embedding, scores, path)
        assert path.read_bytes() == per_point_embedding_csv(embedding, scores).encode()

    @given(embeddings_with_scores())
    @settings(max_examples=150, deadline=None)
    def test_history_figure_matches_per_point(self, case):
        embedding, scores = case
        assert render_history_figure(embedding, scores) == per_point_history_figure(embedding, scores)

    @pytest.mark.parametrize("n_gen, pop", [(1, 1), (1, 7)])
    def test_one_point_and_one_generation(self, tmp_path, n_gen, pop):
        n = n_gen * pop
        embedding = Embedding("objective", np.linspace(-1, 2, n), np.linspace(3, 0, n),
                              np.zeros(n, dtype=int), np.arange(n), stride=3)
        scores = np.linspace(0, 1, n)
        assert render_history_figure(embedding, scores) == per_point_history_figure(embedding, scores)
        write_embedding(embedding, scores, tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_bytes() == per_point_embedding_csv(embedding, scores).encode()

    def test_real_run_matches_per_point(self, tmp_path, short_run):
        profile = exploration_profile(short_run, "search")
        for space in ("search", "objective"):
            embedding = embed_history(short_run, space, max_points=200)
            scores = profile.score[embedding.generation, embedding.member_index]
            assert render_history_figure(embedding, scores) == per_point_history_figure(embedding, scores)
            write_embedding(embedding, scores, tmp_path / "e.csv")
            assert (tmp_path / "e.csv").read_bytes() == per_point_embedding_csv(embedding, scores).encode()


def per_generation_hv_figure(trace):
    """render_hv_figure as it placed and printed one generation at a time."""
    def px_text(value):
        return format(value, ".2f")

    n = len(trace)
    width_px, height_px, margin = 900, 700, 70.0
    plot_w = width_px - 2 * margin
    plot_h = height_px - 2 * margin
    lo, hi = float(trace.values.min()), float(trace.values.max())
    span = hi - lo

    def place(t, value):
        px = margin + (plot_w * t / (n - 1) if n > 1 else plot_w / 2)
        frac = (value - lo) / span if span > 0 else 0.5
        return px, height_px - margin - frac * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" fill="#ffffff"/>',
    ]
    x_axis_y = height_px - margin
    parts.append('<g stroke="#666666" stroke-width="1" fill="none">')
    parts.append(
        f'<line x1="{px_text(margin)}" y1="{px_text(x_axis_y)}" '
        f'x2="{px_text(width_px - margin)}" y2="{px_text(x_axis_y)}"/>'
    )
    parts.append(f'<line x1="{px_text(margin)}" y1="{px_text(margin)}" x2="{px_text(margin)}" '
                 f'y2="{px_text(x_axis_y)}"/>')
    parts.append("</g>")
    parts.append('<g font-family="sans-serif" font-size="11" fill="#333333">')
    for value in np.linspace(0, n - 1, 5):
        px = place(value, lo)[0]
        parts.append(f'<text x="{px_text(px)}" y="{px_text(x_axis_y + 16)}">{format(value, ".3g")}</text>')
    for value in np.linspace(lo, hi, 5):
        py = place(0, value)[1]
        parts.append(f'<text x="{px_text(margin - 50)}" y="{px_text(py + 4)}">{format(value, ".4g")}</text>')
    parts.append(f'<text x="{px_text(margin + plot_w / 2)}" y="{px_text(x_axis_y + 34)}" font-size="13">gen</text>')
    parts.append(f'<text x="{px_text(12)}" y="{px_text(margin - 10)}" font-size="13">hypervolume</text>')
    parts.append("</g>")
    coords = " ".join(",".join(map(px_text, place(t, v))) for t, v in enumerate(trace.values))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6f8b" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


hv_values = st.one_of(st.floats(0.0, 1e300), st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 1e300, 1.0]))
hv_traces = st.one_of(
    st.lists(hv_values, min_size=1, max_size=300),
    st.builds(lambda value, n: [value] * n, hv_values, st.integers(1, 300)),
)


class TestHvFigureOracle:
    """The placed-at-once hv chart gives exactly the per-generation code's bytes."""

    @given(hv_traces)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_generation(self, values):
        trace = HypervolumeTrace(None, np.array(values))
        assert render_hv_figure(trace) == per_generation_hv_figure(trace)

    @pytest.mark.parametrize("values", [[0.25], [0.3] * 3, [0.0, 5e-324, 1e300], [-0.0, 0.0], [5e-324] * 2],
                             ids=["one", "constant", "extremes", "signed-zeros", "subnormal"])
    def test_edge_traces(self, values):
        trace = HypervolumeTrace(None, np.array(values))
        assert render_hv_figure(trace) == per_generation_hv_figure(trace)


def finite(text):
    """float(text), refusing nan and ±inf as the CSV readers do."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def plain(parts):
    """The fields of one CSV row, refused if any holds '_', whitespace or a non-ASCII character, as the readers do."""
    if any(c == "_" or c.isspace() or not c.isascii() for part in parts for c in part):
        raise ValueError("a field holds '_', whitespace or a non-ASCII character")
    return parts


def row_by_row_read_embedding(path):
    """read_embedding as it parsed one row at a time, kept as the column reader's reference.

    Non-finite reals and fields holding '_', whitespace or non-ASCII text
    are refused on their line, and so are an unknown space or a stride
    below 1 on line 2, a space or stride that differs from line 2's, a
    negative gen or idx, a (gen, idx) no greater than the row before's, and
    a score outside [0, 1], as the column reader refuses them.
    """
    lines = emit._read_lines(path)
    if not lines or lines[0] != emit.EMBEDDING_CSV_HEADER:
        raise MalformedRecordError(f"{path}: line 1: expected header {emit.EMBEDDING_CSV_HEADER!r}")
    if len(lines) < 2:
        raise MalformedRecordError(f"{path}: line 2: embedding has no points")
    gens, idxs, e1s, e2s, scores, spaces, strides = [], [], [], [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise MalformedRecordError(f"{path}: line {lineno}: expected 7 fields, got {len(parts)}")
        try:
            plain(parts)
            gens.append(int(parts[0]))
            idxs.append(int(parts[1]))
            e1s.append(finite(parts[2]))
            e2s.append(finite(parts[3]))
            scores.append(finite(parts[4]))
            spaces.append(parts[5])
            strides.append(int(parts[6]))
        except ValueError as exc:
            raise MalformedRecordError(f"{path}: line {lineno}: {exc}") from None
    try:
        space = as_space(spaces[0])
    except ContractError as exc:
        raise MalformedRecordError(f"{path}: line 2: {exc}") from None
    if strides[0] < 1:
        raise MalformedRecordError(f"{path}: line 2: stride must be positive")
    for lineno, row in enumerate(zip(spaces, strides), start=2):
        if row != (spaces[0], strides[0]):
            raise MalformedRecordError(f"{path}: line {lineno}: space/stride columns must be constant")
    for lineno, (g, i) in enumerate(zip(gens, idxs), start=2):
        if g < 0 or i < 0:
            raise MalformedRecordError(f"{path}: line {lineno}: gen and idx must be non-negative")
    pairs = list(zip(gens, idxs))
    for lineno, (before, pair) in enumerate(zip(pairs, pairs[1:]), start=3):
        if pair <= before:
            raise MalformedRecordError(f"{path}: line {lineno}: (gen, idx) must rise from row to row")
    for lineno, score in enumerate(scores, start=2):
        if not 0 <= score <= 1:
            raise MalformedRecordError(f"{path}: line {lineno}: score {score} outside [0, 1]")
    embedding = Embedding(
        space=space,
        e1=np.array(e1s),
        e2=np.array(e2s),
        generation=np.array(gens, dtype=np.int64),
        member_index=np.array(idxs, dtype=np.int64),
        stride=strides[0],
    )
    return embedding, np.array(scores)


def row_by_row_write_hv_trace(trace, path):
    """write_hv_trace as it formatted one value at a time."""
    lines = [emit.HV_CSV_HEADER]
    for t, value in enumerate(trace.values):
        lines.append(f"{t},{format(float(value), '.17g')}")
    with open_atomic(path) as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def row_by_row_read_hv_trace(path):
    """read_hv_trace as it parsed one row at a time, refusing unplain fields, non-finite and then negative values on their line."""
    lines = emit._read_lines(path)
    if not lines or lines[0] != emit.HV_CSV_HEADER:
        raise MalformedRecordError(f"{path}: line 1: expected header {emit.HV_CSV_HEADER!r}")
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            if len(parts) != 2 or int(plain(parts)[0]) != lineno - 2:
                raise ValueError("expected 'gen,hv' with consecutive gen indices")
            values.append(finite(parts[1]))
        except ValueError as exc:
            raise MalformedRecordError(f"{path}: line {lineno}: {exc}") from None
    if not values:
        raise MalformedRecordError(f"{path}: line 2: trace has no values")
    for lineno, value in enumerate(values, start=2):
        if value < 0:
            raise MalformedRecordError(f"{path}: line {lineno}: hv {value} is negative")
    return HypervolumeTrace(reference_point=None, values=np.array(values))


INT64 = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([0, 1, -1, 2**63 - 1, -2**63]))
NON_NEGATIVE_INT64 = st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([0, 1, 2**63 - 1]))
# Spellings Python's int() and float() accept and the readers keep: signs, zero padding, exponents, case.
# Padding with whitespace and digit groups with '_' are faults ("padded int", "padded float").
INT_SPELLINGS = [str, lambda n: format(n, "+05d")]
FLOAT_SPELLINGS = [lambda v: format(v, ".17g"), repr, lambda v: format(v, ".17E")]
# Signed zeros, subnormals, the normal/subnormal boundary, the largest double and
# values whose shortest round-trip text needs all 17 digits.
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, 0.30000000000000004, 1 / 3, 2 / 3, 9007199254740993.0, 1e23]
# Per fault, the column kind it hits and the texts it puts there.
BAD_TEXTS = {
    "bad int": (int, ["", "x", "1.5", "1e3", "0x10", "nan", "--1", "1 2"]),
    "bad float": (float, ["", "one", "1.2.3", "0x1p3", "1e", "--1", "in f"]),
    "huge int": (int, ["9223372036854775808", "-9223372036854775809", "99999999999999999999"]),
    "not positive": (int, ["0", "-0", "-1", "-7", "-9223372036854775808"]),
    "non-finite": (float, ["nan", "-NaN", "inf", "-Infinity", "+inf", "1e999", "-1e400"]),
    # Texts Python's int() and float() read but the writer never writes.
    "padded int": (int, [" 1", "2\t", "0 ", "1_0", "0_0", "\u0661", "\u00a01"]),
    "padded float": (float, [" 0.5", "0.25 ", "\t1e-3", "1_0.5", "0.5_5", "\uff10.5", " +inf "]),
}
EMBEDDING_KINDS = (int, int, float, float, float, str, int)


def spelled(values, spellings):
    return st.builds(lambda value, spell: spell(value), values, st.sampled_from(spellings))


int_texts = spelled(INT64, INT_SPELLINGS)
float_texts = spelled(st.one_of(st.floats(), st.sampled_from(FLOAT_EDGES)), FLOAT_SPELLINGS)
hv_values = st.one_of(st.floats(0.0, 1.7976931348623157e308), st.sampled_from([v for v in FLOAT_EDGES if v >= 0]))
hv_float_texts = spelled(hv_values, FLOAT_SPELLINGS)


@st.composite
def corrupted(draw, rows, kinds, faults):
    """``rows`` with ``faults`` (short row, extra field, bad int, bad float, huge int, an int below 1, a
    non-finite real, or a number padded with whitespace, grouped with '_' or in non-ASCII digits) on drawn rows."""
    rows = [list(row) for row in rows]
    for fault in faults:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "short":
            if row:
                del row[draw(st.integers(0, len(row) - 1))]
        elif fault == "extra":
            row.append(draw(int_texts))
        else:
            kind, texts = BAD_TEXTS[fault]
            columns = [c for c, k in enumerate(kinds) if k is kind and c < len(row)]
            if columns:
                row[draw(st.sampled_from(columns))] = draw(st.sampled_from(texts))
    return rows


natural_texts = spelled(NON_NEGATIVE_INT64, INT_SPELLINGS)
# Mostly scores in [0, 1], its edges included, and some outside it.
score_texts = spelled(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1.5]),
                                st.floats()), FLOAT_SPELLINGS)
embedding_fields = st.tuples(natural_texts, natural_texts, float_texts, float_texts, score_texts)


@st.composite
def embedding_files(draw, faults):
    """Embedding CSV text: whole rows of valid texts, then the faults drawn in."""
    space = draw(st.sampled_from(["search", "objective"]))
    stride = draw(st.integers(1, 2**63 - 1))
    rows = [[*fields, space, spell(stride)] for fields, spell in
            draw(st.lists(st.tuples(embedding_fields, st.sampled_from(INT_SPELLINGS)), min_size=1, max_size=8))]
    if draw(st.booleans()):  # in the writer's (gen, idx) order, which repeats still break
        rows.sort(key=lambda row: (int(row[0]), int(row[1])))
    if draw(st.booleans()):
        rows = draw(corrupted(rows, EMBEDDING_KINDS, draw(st.lists(st.sampled_from(faults), min_size=1, max_size=3))))
    return "\n".join([emit.EMBEDDING_CSV_HEADER] + [",".join(row) for row in rows]) + "\n"


def outcome(read, path):
    """What a reader makes of a file: its result, or the error class and the line it names."""
    try:
        return read(path)
    except ValueError as exc:
        found = re.search(r": line (\d+):", str(exc))
        return type(exc), found and int(found.group(1))


def bits(array):
    return array.dtype, array.shape, array.tobytes()


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    """One directory whose files every hypothesis example overwrites."""
    return tmp_path_factory.mktemp("tables")


class TestTableOracles:
    """The column reader and template writer agree with the row-by-row code they replaced."""

    # No "huge int": there the row-by-row reader let numpy's OverflowError escape;
    # test_first_bad_line_across_columns and test_cli's corrupt-CSV cases cover it.
    @given(embedding_files(["short", "extra", "bad int", "bad float", "non-finite", "not positive", "padded int",
                            "padded float"]))
    @settings(max_examples=300, deadline=None)
    def test_embedding_reader_matches_row_by_row(self, table_dir, text):
        path = table_dir / "e.csv"
        path.write_text(text)
        got, expected = outcome(read_embedding, path), outcome(row_by_row_read_embedding, path)
        if not isinstance(expected[0], Embedding):
            assert got == expected
            return
        (back, scores), (ref, ref_scores) = got, expected
        assert (back.space, back.stride, type(back.stride)) == (ref.space, ref.stride, int)
        for column in ("e1", "e2", "generation", "member_index"):
            assert bits(getattr(back, column)) == bits(getattr(ref, column)), column
        assert bits(scores) == bits(ref_scores)

    @given(st.lists(hv_float_texts, min_size=1, max_size=8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_hv_reader_matches_row_by_row(self, table_dir, values, data):
        rows = [[str(t), v] for t, v in enumerate(values)]
        if data.draw(st.booleans()):
            faults = st.sampled_from(["short", "extra", "bad int", "bad float", "huge int", "non-finite", "padded int",
                                      "padded float"])
            rows = data.draw(corrupted(rows, (int, float), data.draw(st.lists(faults, min_size=1, max_size=3))))
        elif data.draw(st.booleans()):
            rows[data.draw(st.integers(0, len(rows) - 1))][0] = str(data.draw(INT64.filter(lambda n: n >= len(rows))))
        path = table_dir / "hv.csv"
        path.write_text("\n".join(["gen,hv"] + [",".join(row) for row in rows]) + "\n")
        got, expected = outcome(read_hv_trace, path), outcome(row_by_row_read_hv_trace, path)
        if isinstance(expected, HypervolumeTrace):
            assert got.reference_point is None and bits(got.values) == bits(expected.values)
        else:
            assert got == expected

    @given(st.lists(hv_values, min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_hv_writer_matches_row_by_row(self, table_dir, values):
        trace = HypervolumeTrace(None, np.array(values))
        write_hv_trace(trace, table_dir / "new.csv")
        row_by_row_write_hv_trace(trace, table_dir / "old.csv")
        assert (table_dir / "new.csv").read_bytes() == (table_dir / "old.csv").read_bytes()
        assert bits(read_hv_trace(table_dir / "new.csv").values) == bits(trace.values)

    @pytest.mark.parametrize("read, header, faults, line", [
        (read_embedding, emit.EMBEDDING_CSV_HEADER, {3: (2, "one"), 5: (0, "x")}, 3),
        (read_embedding, emit.EMBEDDING_CSV_HEADER, {3: (6, "1.0"), 4: (4, "nan?")}, 3),
        (read_embedding, emit.EMBEDDING_CSV_HEADER, {4: (1, "9" * 20), 5: (3, "")}, 4),
        (read_embedding, emit.EMBEDDING_CSV_HEADER, {lineno: (6, "0") for lineno in range(2, 7)}, 2),
        (read_embedding, emit.EMBEDDING_CSV_HEADER, {4: (0, "-3"), 3: (6, "2")}, 3),
        (read_embedding, emit.EMBEDDING_CSV_HEADER, {6: (1, "-7"), 5: (0, "-3")}, 5),
        (read_hv_trace, emit.HV_CSV_HEADER, {2: (1, "x"), 3: (0, "y")}, 2),
        (read_hv_trace, emit.HV_CSV_HEADER, {4: (1, "x"), 3: (0, "y")}, 3),
    ], ids=["e1-before-gen", "stride-before-score", "huge-idx-before-e2", "zero-stride-everywhere",
            "stride-change-before-negative-gen", "first-negative-line", "hv-before-gen", "gen-before-hv"])
    def test_first_bad_line_across_columns(self, tmp_path, read, header, faults, line):
        row = {emit.EMBEDDING_CSV_HEADER: "0,{t},1.5,2.5,0.5,search,1", emit.HV_CSV_HEADER: "{t},0.5"}[header]
        rows = [row.format(t=t).split(",") for t in range(5)]
        for lineno, (column, text) in faults.items():
            rows[lineno - 2][column] = text
        path = tmp_path / "t.csv"
        path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        with pytest.raises(MalformedRecordError, match=f": line {line}:"):
            read(path)

    def test_hv_rows_parse_before_gen_is_checked(self, tmp_path):
        """A gap in gen is reported only once every row parses, even when the gap comes first."""
        path = tmp_path / "hv.csv"
        path.write_text("gen,hv\n0,0.5\n5,0.6\n2,x\n")
        with pytest.raises(MalformedRecordError, match=": line 4:"):
            read_hv_trace(path)
        path.write_text("gen,hv\n0,0.5\n5,0.6\n2,0.7\n")
        with pytest.raises(MalformedRecordError, match=": line 3: gen 5, expected 1"):
            read_hv_trace(path)
