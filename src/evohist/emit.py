"""Deterministic serialisation and static SVG figures.

File formats (all UTF-8, LF newlines, reals printed with 17 significant
digits so every float64 round-trips bit-exactly):

* History: JSON lines.  Line 1 is a header record carrying the full run
  configuration plus ``format_version`` and the RNG algorithm tag; each
  later line is one generation laid out as ``{"gen": t, "x": [[...]], "y": [[...]]}``.
* Embedding: CSV with header ``gen,idx,e1,e2,score,space,stride``.
* Hypervolume trace: CSV with header ``gen,hv``.

Figures are hand-assembled SVG 1.1 text.  The history figure projects
(e1, e2, generation/max_generation) through a fixed orthographic camera
(azimuth 45°, elevation 25°), colours each point by its exploration
score through a five-anchor colour ramp, and overdraws the final
generation with white crosses.  Identical inputs always produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import fields

import numpy as np

from .core import ContractError, GenerationRecord, OperatorConfig, RunHistory, _check_generation, _check_run_sizes
from .embedding import Embedding, as_space
from .metrics import HypervolumeTrace
from .optimizer import RNG_ALGORITHM

__all__ = [
    "HistoryFormatError",
    "FormatVersionError",
    "MalformedRecordError",
    "FORMAT_VERSION",
    "RNG_ALGORITHM",
    "COLOUR_ANCHORS",
    "open_atomic",
    "write_history",
    "read_history",
    "write_embedding",
    "read_embedding",
    "write_hv_trace",
    "read_hv_trace",
    "render_history_figure",
    "render_hv_figure",
]

FORMAT_VERSION = 1

AZIMUTH_DEG = 45.0
ELEVATION_DEG = 25.0

# The one canvas every figure is drawn on, in pixels, the margin around its plot area, and the two lines of its SVG.
WIDTH_PX = 900
HEIGHT_PX = 700
_MARGIN = 70.0
_PLOT_W = WIDTH_PX - 2 * _MARGIN
_PLOT_H = HEIGHT_PX - 2 * _MARGIN
_SVG_OPEN = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{WIDTH_PX}" height="{HEIGHT_PX}" viewBox="0 0 {WIDTH_PX} {HEIGHT_PX}">\n'
             f'<rect x="0" y="0" width="{WIDTH_PX}" height="{HEIGHT_PX}" fill="#ffffff"/>')

COLOUR_ANCHORS = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)


class HistoryFormatError(ValueError):
    """A history file does not conform to the JSON-lines schema."""


class FormatVersionError(HistoryFormatError):
    """The header declares a format version this reader does not speak."""


class MalformedRecordError(HistoryFormatError):
    """A specific line failed to parse; the message names the line."""


def _row_texts(rows: np.ndarray, previous: dict[bytes, str]) -> tuple[list[str], dict[bytes, str]]:
    """Text of every row as a JSON list of ``%.17g`` reals, reusing ``previous`` for rows seen there.

    Rows are keyed by their raw float64 bytes, so a hit is the same bits
    and prints the same text; ``-0.0`` and ``0.0`` stay distinct keys.
    Only the rows ``previous`` lacks go through ``_rows``, in one call.
    Returns the texts and the key → text map to pass in for the next one.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0].tolist()
    texts = list(map(previous.get, keys))
    new = [i for i, text in enumerate(texts) if text is None]
    template = "[" + ", ".join(["%.17g"] * rows.shape[1]) + "]\n"
    for i, text in zip(new, _rows(template, *rows[new].T).splitlines()):
        texts[i] = text
    return texts, dict(zip(keys, texts))


@contextmanager
def open_atomic(path):
    """Open ``path`` for UTF-8 text with LF newlines; it appears only once complete.

    Writes go to a temporary file beside ``path`` that replaces it when
    the block exits cleanly.  On any exception the temporary file is
    removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_lines(path, first_only: bool = False) -> list[str]:
    """The lines of a UTF-8 text file, or only its first; bytes that are not UTF-8 make it malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return (fh.readline() if first_only else fh.read()).splitlines()
    except UnicodeDecodeError as exc:
        raise MalformedRecordError(f"{path}: not UTF-8 text: {exc}") from None


# The history header in file order: each field and its JSON type.
_HEADER = {
    "format_version": int,
    "problem": str,
    "M": int,
    "D": int,
    "algorithm": str,
    "population_size": int,
    "evaluation_budget": int,
    "seed": int,
    "crossover_probability": float,
    "mutation_probability": float,
    "sbx_eta": float,
    "pm_eta": float,
    "rng_algorithm": str,
}
# Per type: how it is printed (reals to 17 significant digits, which read
# back bit-exactly), and which json.loads types it accepts (by type(), so
# not bool, which subclasses int) under what name.
_JSON_TYPES = {int: (str, (int,), "an integer"), float: ("%.17g".__mod__, (int, float), "a number"),
               str: (json.dumps, (str,), "a string")}


def write_history(history: RunHistory, path) -> None:
    """Serialise a run to JSON-lines; see the module docstring for the schema.

    Survivors carry over between generations, so most rows repeat a row
    of the generation before.  Each generation's x and y rows are looked
    up by their raw bytes in the previous generation's texts, and only
    the rest are formatted.  Equal bytes are equal floats, and ``%.17g``
    of a float is a fixed string, so the file is the same as formatting
    every value afresh.  Only one generation's texts are kept at a time.
    """
    values = {**vars(history), **vars(history.operators),
              "format_version": FORMAT_VERSION, "rng_algorithm": RNG_ALGORITHM}
    header = ", ".join(f'"{key}": {_JSON_TYPES[kind][0](values[key])}' for key, kind in _HEADER.items())
    with open_atomic(path) as fh:
        fh.write("{" + header + "}\n")
        seen_x: dict[bytes, str] = {}
        seen_y: dict[bytes, str] = {}
        for rec in history.generations:
            x_texts, seen_x = _row_texts(rec.x, seen_x)
            y_texts, seen_y = _row_texts(rec.y, seen_y)
            fh.write(f'{{"gen": {rec.generation}, "x": [{", ".join(x_texts)}], "y": [{", ".join(y_texts)}]}}\n')


def _read_header(path, lines: list[str] | None = None) -> dict:
    """The run fields of a history's header line, ``operators`` included, as RunHistory takes them.

    ``lines`` are the file's lines; without them only the first is read.
    Raises FormatVersionError or MalformedRecordError naming line 1 on a
    bad header, and ContractError naming line 1 on sizes or operators a
    run cannot have.
    """
    lines = _read_lines(path, first_only=True) if lines is None else lines
    if not lines:
        raise MalformedRecordError(f"{path}: line 1: empty file, expected a header record")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"{path}: line 1: {exc.msg}") from None
    if not isinstance(header, dict):
        raise MalformedRecordError(f"{path}: line 1: expected a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: line 1: format_version {version!r}, this reader supports {FORMAT_VERSION}"
        )
    missing = [k for k in _HEADER if k not in header]
    if missing:
        raise MalformedRecordError(f"{path}: line 1: header missing fields {', '.join(missing)}")
    for key, kind in _HEADER.items():
        _, accepted, name = _JSON_TYPES[kind]
        if type(header[key]) not in accepted:
            raise MalformedRecordError(f"{path}: line 1: header field {key!r} is not {name}: {header[key]!r}")
    run_fields = {key: kind(header[key]) for key, kind in _HEADER.items()}
    try:
        run_fields["operators"] = OperatorConfig(**{f.name: run_fields.pop(f.name) for f in fields(OperatorConfig)})
        _check_run_sizes(run_fields["M"], run_fields["D"], run_fields["population_size"])
    except ContractError as exc:
        raise ContractError(f"{path}: line 1: {exc}") from None
    del run_fields["format_version"], run_fields["rng_algorithm"]
    return run_fields


# A generation line cut at the separators write_history joins it with:
# ``gen`` as ``%d`` prints an index, then each matrix between ``[[`` and ``]]``.
_GENERATION_LINE = re.compile(r'\{"gen": (0|[1-9][0-9]*), "x": \[\[([^"]*)\]\], "y": \[\[([^"]*)\]\]\}')


def _parse_matrix(text: str) -> np.ndarray:
    """A matrix as write_history prints it between ``[[`` and ``]]``: rows joined by ``], [``, values by ``, ``.

    Each space must be a separator's: every row holds the same number of
    spaces, and the values number one more than that per row.  Raises
    ValueError otherwise, on ``_``, a tab or non-ASCII text, which numpy's
    float parser skips or reads, and on a value it cannot read.
    """
    rows = text.split("], [")
    values = ", ".join(rows).split(", ")
    spaces = {row.count(" ") for row in rows}
    if len(spaces) != 1 or len(values) != len(rows) * (spaces.pop() + 1):
        raise ValueError("matrix rows differ in length or hold a space outside a separator")
    if not text.isascii() or "_" in text or "\t" in text:
        raise ValueError("a value holds '_', a tab or a non-ASCII character")
    return np.array(values, dtype=float).reshape(len(rows), -1)


def read_history(path) -> RunHistory:
    """Parse a file written by write_history back into a RunHistory.

    Each generation line must be laid out as write_history writes it.
    Raises FormatVersionError on a version mismatch, MalformedRecordError
    on bytes that are not UTF-8 and (naming the line) on a bad header or a
    line laid out any other way, and ContractError naming the line on a
    generation that breaks a record invariant or does not fit the header.
    """
    lines = _read_lines(path)
    run_fields = _read_header(path, lines)
    generations = []
    for lineno, text in enumerate(lines[1:], start=2):
        line = _GENERATION_LINE.fullmatch(text)
        try:
            if line is None:
                raise ValueError('expected {"gen": t, "x": [[...]], "y": [[...]]} as write_history writes it')
            generations.append(GenerationRecord(int(line[1]), _parse_matrix(line[2]), _parse_matrix(line[3])))
            _check_generation(generations[-1], lineno - 2, run_fields["M"], run_fields["D"],
                              run_fields["population_size"])
        except ContractError as exc:
            raise ContractError(f"{path}: line {lineno}: {exc}") from None
        except ValueError as exc:
            raise MalformedRecordError(f"{path}: line {lineno}: {exc}") from None
    if not generations:
        raise MalformedRecordError(f"{path}: line 2: no generation records after the header")
    return RunHistory(**run_fields, generations=tuple(generations))


EMBEDDING_CSV_HEADER = "gen,idx,e1,e2,score,space,stride"


def _point_scores(embedding: Embedding, scores) -> np.ndarray:
    """The scores as floats, checked to be one per embedded point."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (embedding.n_points,):
        raise ContractError(
            f"need one score per embedded point ({embedding.n_points}), got shape {scores.shape}"
        )
    return scores


def _rows(template: str, *columns: np.ndarray) -> str:
    """``template`` once per row of equal-length columns, filled by one ``%`` with their values as Python numbers."""
    values = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        values[k :: len(columns)] = column.tolist()
    return (template * len(columns[0])) % tuple(values)


def _write_table(path, header: str, row_template: str, columns) -> None:
    """Write a CSV: the header line, then one ``%`` template line per row of equal-length columns."""
    with open_atomic(path) as fh:
        fh.write(header + "\n" + _rows(row_template, *columns))


def _columns(rows: list[str], kinds) -> list:
    """CSV rows as one column per kind: ``int`` and ``float`` through Python's own into int64 and float64 arrays.

    A ``str`` column stays as its texts.  A row without one field per
    kind, a field with ``_``, whitespace or non-ASCII text (which Python's
    ``int`` and ``float`` skip or read), a text its kind rejects, or a
    non-finite ``float`` (``nan``, ``inf``, ``1e999``) raises ValueError;
    an integer beyond int64 raises OverflowError.
    """
    k = len(kinds)
    for row in rows:
        if row.count(",") != k - 1:
            raise ValueError(f"expected {k} fields, got {row.count(',') + 1}")
    text = ",".join(rows)
    if not text.isascii() or "_" in text or text.split() != [text]:
        raise ValueError("a field holds '_', whitespace or a non-ASCII character")
    texts = text.split(",")
    columns = [texts[c::k] if kind is str else np.fromiter(map(kind, texts[c::k]), np.int64 if kind is int else float)
               for c, kind in enumerate(kinds)]
    for c, kind in enumerate(kinds):
        if kind is float and not np.isfinite(columns[c]).all():
            raise ValueError(f"field {c + 1} is not a finite number")
    return columns


def _read_table(path, header: str, kinds) -> list:
    """The columns of a CSV file with this header line and at least one row.

    All rows are converted at once; only if that fails is each row
    converted alone, to name the first bad line.
    """
    lines = _read_lines(path)
    if not lines or lines[0] != header:
        raise MalformedRecordError(f"{path}: line 1: expected header {header!r}")
    if len(lines) < 2:
        raise MalformedRecordError(f"{path}: line 2: no rows after the header")
    try:
        return _columns(lines[1:], kinds)
    except (ValueError, OverflowError):
        for lineno, row in enumerate(lines[1:], start=2):
            try:
                _columns([row], kinds)
            except (ValueError, OverflowError) as exc:
                raise MalformedRecordError(f"{path}: line {lineno}: {exc}") from None
        raise


def _refuse_rows(path, bad: np.ndarray, message: str, *columns) -> None:
    """Raise MalformedRecordError naming the line of the first row where ``bad`` holds; ``columns`` fill ``message``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise MalformedRecordError(f"{path}: line {rows[0] + 2}: " + message.format(*(c[rows[0]] for c in columns)))


def write_embedding(embedding: Embedding, scores, path) -> None:
    """Write an embedding plus its exploration scores, one per point, as CSV.

    Rows are sorted by (gen, idx) and formatted by one ``%.17g`` template.
    """
    scores = _point_scores(embedding, scores)
    order = np.lexsort((embedding.member_index, embedding.generation))
    columns = (embedding.generation, embedding.member_index, embedding.e1, embedding.e2, scores)
    _write_table(path, EMBEDDING_CSV_HEADER, f"%d,%d,%.17g,%.17g,%.17g,{embedding.space},{embedding.stride}\n",
                 [c[order] for c in columns])


def read_embedding(path) -> tuple[Embedding, np.ndarray]:
    """Parse an embedding CSV back into (Embedding, score array).

    Every row is parsed first; then line 2's space and positive stride are
    checked, every later row must repeat them, no ``gen`` or ``idx`` may be
    negative, (gen, idx) must rise strictly from row to row as the writer
    sorts them, and every score must lie in [0, 1].
    """
    gen, idx, e1, e2, scores, spaces, strides = _read_table(
        path, EMBEDDING_CSV_HEADER, (int, int, float, float, float, str, int))
    try:
        space = as_space(spaces[0])
    except ContractError as exc:
        raise MalformedRecordError(f"{path}: line 2: {exc}") from None
    _refuse_rows(path, strides[:1] < 1, "stride {} must be positive", strides)
    _refuse_rows(path, (np.asarray(spaces) != spaces[0]) | (strides != strides[0]),
                 "space/stride differ from line 2's, must be constant")
    _refuse_rows(path, (gen < 0) | (idx < 0), "gen {}, idx {} must be non-negative", gen, idx)
    rising = (gen[1:] > gen[:-1]) | ((gen[1:] == gen[:-1]) & (idx[1:] > idx[:-1]))
    _refuse_rows(path, np.r_[False, ~rising], "gen {}, idx {} does not come after the row above's", gen, idx)
    _refuse_rows(path, (scores < 0) | (scores > 1), "score {} outside [0, 1]", scores)
    return Embedding(space, e1, e2, gen, idx, stride=int(strides[0])), scores


HV_CSV_HEADER = "gen,hv"


def write_hv_trace(trace: HypervolumeTrace, path) -> None:
    """Write a hypervolume trace as two-column CSV (gen, hv)."""
    _write_table(path, HV_CSV_HEADER, "%d,%.17g\n", (np.arange(len(trace.values)), trace.values))


def read_hv_trace(path) -> HypervolumeTrace:
    """Parse a trace CSV; the reference point is not stored, so it is None.

    Every row is parsed before ``gen`` is checked to count 0, 1, 2, … and ``hv`` to be non-negative.
    """
    gen, values = _read_table(path, HV_CSV_HEADER, (int, float))
    _refuse_rows(path, gen != np.arange(gen.size), "gen {}, expected {}", gen, np.arange(gen.size))
    _refuse_rows(path, values < 0, "hv {} is negative", values)
    return HypervolumeTrace(reference_point=None, values=values)


def _colours(scores) -> np.ndarray:
    """The five-anchor colour ramp over an array of scores, as (n, 3) ints.

    Scores are clamped to [0, 1]; a score equal to an anchor takes the
    segment below it, and channels round half to even.  NaN maps to the
    top anchor.
    """
    anchors = np.array([position for position, _ in COLOUR_ANCHORS])
    rgb = np.array([colour for _, colour in COLOUR_ANCHORS], dtype=float)
    s = np.asarray(scores, dtype=float)
    s = np.clip(np.where(np.isnan(s), 1.0, s), 0.0, 1.0)
    k = np.searchsorted(anchors[1:], s, side="left")
    w = ((s - anchors[k]) / (anchors[k + 1] - anchors[k]))[:, None]
    return np.rint(rgb[k] + (rgb[k + 1] - rgb[k]) * w).astype(np.int64)


def _project(x, y, z):
    """Fixed orthographic camera: azimuth 45°, elevation 25° (scalars or arrays)."""
    az = math.radians(AZIMUTH_DEG)
    el = math.radians(ELEVATION_DEG)
    u = -x * math.sin(az) + y * math.cos(az)
    v = -(x * math.cos(az) + y * math.sin(az)) * math.sin(el) + z * math.cos(el)
    return u, v


def _px(value: float) -> str:
    return format(value, ".2f")


def _ticks(lo: float, hi: float) -> np.ndarray:
    return np.linspace(lo, hi, 5)


def _svg(lines, labels, marks: str) -> str:
    """An SVG document in the layout both figures share: canvas, grey frame lines, labels, then the marks.

    ``lines`` holds (x1, y1, x2, y2) and ``labels`` (x, y, attributes, text)
    per element, in pixels; ``marks`` is SVG text ending in a line break.
    """
    return "".join([
        _SVG_OPEN, '\n<g stroke="#666666" stroke-width="1" fill="none">\n',
        *(f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}"/>\n' for x1, y1, x2, y2 in lines),
        '</g>\n<g font-family="sans-serif" font-size="11" fill="#333333">\n',
        *(f'<text x="{_px(x)}" y="{_px(y)}"{attributes}>{text}</text>\n' for x, y, attributes, text in labels),
        "</g>\n", marks, "</svg>\n",
    ])


def render_history_figure(embedding: Embedding, scores) -> str:
    """Static SVG of the embedded history as a projected 3-D scatter.

    Every point becomes a circle at the orthographic projection of
    (e1, e2, generation normalised to [0, 1]), coloured by exploration
    score; final-generation points are overdrawn with white crosses.
    Three labelled axes (e1, e2, gen) frame the cloud.  ``scores`` holds
    one score per point.
    """
    scores = _point_scores(embedding, scores)
    n, gen_max = embedding.n_points, int(embedding.generation.max())
    z = embedding.generation / max(gen_max, 1)
    # Under the points: the origin, then per axis its five ticks and its end, the origin moved to that axis's top.
    origin = np.array([embedding.e1.min(), embedding.e2.min(), 0.0])
    top = np.array([embedding.e1.max(), embedding.e2.max(), 1.0])
    ends = np.where(np.eye(3, dtype=bool), top, origin)
    steps = np.linspace(0.0, 1.0, 5)[:, None]
    xyz = np.vstack([np.column_stack([embedding.e1, embedding.e2, z]), origin,
                     *(np.vstack([origin + steps * (end - origin), end]) for end in ends)])
    u, v = _project(xyz[:, 0], xyz[:, 1], xyz[:, 2])
    span_u, span_v = max(u.max() - u.min(), 1e-12), max(v.max() - v.min(), 1e-12)
    scale = min(_PLOT_W / span_u, _PLOT_H / span_v)
    px = _MARGIN + (u - u.min()) * scale + (_PLOT_W - span_u * scale) / 2
    py = HEIGHT_PX - _MARGIN - (v - v.min()) * scale - (_PLOT_H - span_v * scale) / 2

    # Each axis is labelled by its five tick values, then by its name beyond its end.
    texts = []
    for lo, hi, name in zip(origin, (top[0], top[1], max(gen_max, 1)), ("e1", "e2", "gen")):
        texts += [format(value, ".3g") for value in _ticks(lo, hi)] + [name]
    is_name = np.tile([False] * 5 + [True], 3)
    labels = zip(px[n + 1:] + np.where(is_name, 10, 4), py[n + 1:] + np.where(is_name, 4, -3),
                 np.where(is_name, ' font-size="13"', ""), texts)
    lines = [(px[n], py[n], px[end], py[end]) for end in n + 6 * np.arange(1, 4)]
    final = embedding.generation == gen_max
    x, y = px[:n][final], py[:n][final]
    arm = 4.0
    marks = (_rows('<circle cx="%.2f" cy="%.2f" r="2.5" fill="rgb(%d,%d,%d)"/>\n', px[:n], py[:n], *_colours(scores).T)
             + _rows('<path class="final-cross" d="M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f" '
                     'stroke="#ffffff" stroke-width="1.5" fill="none"/>\n',
                     x - arm, y - arm, x + arm, y + arm, x - arm, y + arm, x + arm, y - arm))
    return _svg(lines, labels, marks)


def render_hv_figure(trace: HypervolumeTrace) -> str:
    """Static SVG line chart of hypervolume against generation."""
    n = len(trace)
    lo, hi = float(trace.values.min()), float(trace.values.max())
    span = hi - lo
    bottom = HEIGHT_PX - _MARGIN

    def place(t: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        px = _MARGIN + _PLOT_W * t / (n - 1) if n > 1 else np.full(t.shape, _MARGIN + _PLOT_W / 2)
        frac = (values - lo) / span if span > 0 else np.full(values.shape, 0.5)
        return px, bottom - frac * _PLOT_H

    gens, hvs = _ticks(0, n - 1), _ticks(lo, hi)
    tick_x, tick_y = place(gens, hvs)
    labels = [*((x, bottom + 16, "", format(t, ".3g")) for x, t in zip(tick_x, gens)),
              *((_MARGIN - 50, y + 4, "", format(hv, ".4g")) for y, hv in zip(tick_y, hvs)),
              (_MARGIN + _PLOT_W / 2, bottom + 34, ' font-size="13"', "gen"),
              (12, _MARGIN - 10, ' font-size="13"', "hypervolume")]
    lines = [(_MARGIN, bottom, WIDTH_PX - _MARGIN, bottom), (_MARGIN, _MARGIN, _MARGIN, bottom)]
    points = _rows("%.2f,%.2f ", *place(np.arange(n), trace.values))[:-1]
    return _svg(lines, labels, f'<polyline points="{points}" fill="none" stroke="#1f6f8b" stroke-width="1.5"/>\n')
