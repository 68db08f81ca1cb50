"""Deterministic serialisation and static SVG figures.

File formats (all UTF-8, LF newlines, reals printed with 17 significant
digits so every float64 round-trips bit-exactly):

* History: JSON lines.  Line 1 is a header record carrying the full run
  configuration plus ``format_version`` and the RNG algorithm tag; each
  later line is one generation laid out as
  ``{"gen": t, "from": [i, ...], "x": [[...]], "y": [[...]]}``.  Entry k
  of ``from`` is the lowest index of a row of the generation before whose
  x and y bytes are member k's, or -1 if there is none; ``x`` and ``y``
  spell out only the -1 members' rows, in member order.  So a generation
  line is read against the line before it.
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

import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import fields
from functools import partial
from itertools import repeat

import numpy as np

from .core import (ContractError, GenerationRecord, OperatorConfig, RunHistory, _check_choice, _check_generation,
                   _check_recorded_run, _refuse)
from .embedding import Embedding, _check_points, _check_stride, as_space
from .metrics import HypervolumeTrace, _check_hv_values, _check_scores
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

FORMAT_VERSION = 2

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


def _row_keys(x: np.ndarray, y: np.ndarray) -> list[bytes]:
    """Each member's x and y float64 bytes, joined: equal keys are equal bits, so ``-0.0`` and ``0.0`` differ."""
    rows = np.hstack([x, y], dtype=float)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0].tolist()


def _lowest_index(keys: list[bytes]) -> dict[bytes, int]:
    """Each distinct key and the lowest index that holds it."""
    return dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))


def _sources(keys: list[bytes], previous: dict[bytes, int]) -> list[int]:
    """The ``from`` of a generation with these row keys: each key's index in ``previous``, or -1."""
    return list(map(previous.get, keys, repeat(-1)))


def _matrix_text(rows: np.ndarray) -> str:
    """``rows`` as a JSON list of rows of ``%.17g`` reals, formatted by one ``_rows`` call."""
    template = "[" + ", ".join(["%.17g"] * rows.shape[1]) + "], "
    return "[" + _rows(template, *rows.T)[:-2] + "]"


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
    """The lines of a UTF-8 text file, or only its first; bytes that are not UTF-8 make it malformed.

    Lines end at LF alone, as every writer here ends them: a CR, form
    feed or other line break stays in its line, where the readers refuse
    it.  A whole file whose last line has no LF was cut short.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            lines = (fh.readline() if first_only else fh.read()).split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedRecordError(f"{path}: not UTF-8 text: {exc}") from None
    if lines[-1] == "":
        lines.pop()
    elif not first_only:
        raise MalformedRecordError(f"{path}: line {len(lines)}: no LF at its end; the file is cut short")
    return lines


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
# Per type: how write_history prints a value (reals to 17 significant digits, which read back bit-exactly),
# the spelling _read_header requires, and its name in an error: an integer in plain digits, a real as any
# JSON number, a string as a quoted name with no escape, so each reads back as the value it spells.
_INTEGER = "0|-?[1-9][0-9]*"
_JSON_TYPES = {int: (str, _INTEGER, "an integer"),
               float: ("%.17g".__mod__, r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?", "a number"),
               str: ('"%s"'.__mod__, '"[-0-9A-Za-z_]*"', "a quoted name")}
# The start of a header of any format version: read first, so a file of another version is named as such.
_VERSION = re.compile(r'\{"format_version": (%s)[,}]' % _INTEGER)


def write_history(history: RunHistory, path) -> None:
    """Serialise a run to JSON-lines; see the module docstring for the schema.

    Survivors carry over between generations, so most members repeat a
    row of the generation before.  Each member's x and y bytes are looked
    up among that generation's rows; a member found there is written as
    the lowest index holding its bytes, and only the rest are formatted.
    Only one generation's keys are kept at a time.
    """
    values = {**vars(history), **vars(history.operators),
              "format_version": FORMAT_VERSION, "rng_algorithm": RNG_ALGORITHM}
    header = ", ".join(f'"{key}": {_JSON_TYPES[kind][0](values[key])}' for key, kind in _HEADER.items())
    with open_atomic(path) as fh:
        fh.write("{" + header + "}\n")
        previous: dict[bytes, int] = {}
        for rec in history.generations:
            keys = _row_keys(rec.x, rec.y)
            source = _sources(keys, previous)
            new = [k for k, i in enumerate(source) if i < 0]
            fh.write(f'{{"gen": {rec.generation}, "from": {source}, '
                     f'"x": {_matrix_text(rec.x[new])}, "y": {_matrix_text(rec.y[new])}}}\n')
            previous = _lowest_index(keys)


def _read_header(path, lines: list[str] | None = None) -> tuple[dict, int]:
    """The run fields of a history's header line, ``operators`` included, as RunHistory takes them.

    Returns them with the number of generations such a run records.
    ``lines`` are the file's lines; without them only the first is read.
    The line is cut at the ``", "`` and ``": "`` write_history joins it
    with; each field must carry _HEADER's next key and a value spelled as
    its type's, and the values must pass the rules RunHistory applies,
    with ``rng_algorithm`` this package's.  Raises FormatVersionError on
    another format version, and MalformedRecordError naming line 1 and
    the first field that breaks a rule.
    """
    lines = _read_lines(path, first_only=True) if lines is None else lines
    if not lines:
        raise MalformedRecordError(f"{path}: line 1: empty file, expected a header record")
    text = lines[0]
    version = _VERSION.match(text)
    if version and version[1] != str(FORMAT_VERSION):
        raise FormatVersionError(f"{path}: line 1: format_version {version[1]}, this reader supports {FORMAT_VERSION}")
    try:
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError("is not one {...} record as write_history writes it")
        items, run_fields = text[1:-1].split(", "), {}
        for i, ((key, kind), item) in enumerate(zip(_HEADER.items(), items), start=1):
            name, _, value = item.partition(": ")
            _, spelling, noun = _JSON_TYPES[kind]
            if name != f'"{key}"':
                raise ValueError(f"field {i} is {item!r}, expected field {key!r}")
            if not re.fullmatch(spelling, value):
                raise ValueError(f"field {key!r} is not {noun}: {value}")
            run_fields[key] = value[1:-1] if kind is str else kind(value)
        if len(items) != len(_HEADER):
            raise ValueError(f"has {len(items)} fields, expected {len(_HEADER)}")
        del run_fields["format_version"]
        rng_algorithm = run_fields.pop("rng_algorithm")
        operators = {f.name: run_fields.pop(f.name) for f in fields(OperatorConfig)}
        n_generations = _check_recorded_run(**run_fields)
        run_fields["operators"] = OperatorConfig(**operators)
        _check_choice("rng_algorithm", rng_algorithm, (RNG_ALGORITHM,))
    except ValueError as exc:  # ContractError included
        raise MalformedRecordError(f"{path}: line 1: header {exc}") from None
    return run_fields, n_generations


# A generation line cut at the separators write_history joins it with: ``gen`` as ``%d`` prints an index, then
# ``from``'s indices as ``%d`` prints them (at most 18 digits, so each fits int64), then each matrix between
# ``[[`` and ``]]``, or ``[]`` when it has no rows.
_INDEX = "0|-?[1-9][0-9]{0,17}"
_GENERATION_LINE = re.compile(r'\{"gen": (0|[1-9][0-9]*), "from": \[((?:%s)(?:, (?:%s))*)\], '
                              r'"x": \[(?:\[([^"]*)\])?\], "y": \[(?:\[([^"]*)\])?\]\}' % (_INDEX, _INDEX))


def _fields(rows: list[str], separator: str, width: int) -> list[str]:
    """The fields of ``rows`` in order, each row cut at ``separator`` into ``width`` of them.

    ValueError on a row with another count, or on a field holding ``_``, whitespace or a non-ASCII character.
    """
    for row in rows:
        if row.count(separator) != width - 1:
            raise ValueError(f"expected {width} fields, got {row.count(separator) + 1}")
    fields = separator.join(rows).split(separator) if rows else []
    text = "".join(fields)
    if not text.isascii() or "_" in text or (text and text.split() != [text]):
        raise ValueError("a field holds '_', whitespace or a non-ASCII character")
    return fields


def _numbers(texts: list[str], kind) -> np.ndarray:
    """``texts`` through Python's ``int`` into int64, or its ``float`` into float64."""
    return np.fromiter(map(kind, texts), np.int64 if kind is int else float, len(texts))


def _new_rows(name: str, text: str | None, width: int, count: int) -> np.ndarray:
    """The ``count`` rows of a ``width``-column matrix write_history prints between ``[[`` and ``]]`` (None: ``[]``).

    ``_fields`` and ``_numbers`` read them; their ValueError passes through.
    """
    rows = _numbers(_fields([] if text is None else text.split("], ["), ", ", width), float).reshape(-1, width)
    if len(rows) != count:
        raise ValueError(f"the count of -1 entries in from is {count}, "
                         f"but the count of new rows in {name} is {len(rows)}")
    return rows


def _generation(line: re.Match, x: np.ndarray, y: np.ndarray, previous: dict[bytes, int]):
    """The x and y of the generation on ``line``, and the ``_lowest_index`` of its row keys.

    ``x``, ``y`` and ``previous`` are the generation before's (no rows
    before the first).  ``from`` gathers each kept member from them, and
    each -1 member from the line's new rows in turn.  ValueError on an
    index outside [-1, rows before), a -1 count other than the new rows
    in x or y, and a ``from`` other than the one write_history writes for
    the gathered rows: a new row whose bytes the generation before holds,
    or an index other than the lowest that holds its row's bytes.
    """
    indices = _numbers(line[2].split(", "), int)
    outside = np.flatnonzero((indices < -1) | (indices >= len(x)))
    if outside.size:
        k = outside[0]
        before = f"outside [-1, {len(x)})" if len(x) else "but the first generation has no generation before it"
        raise ValueError(f"from entry {k} is {indices[k]}, {before}")
    new = indices < 0
    n_new = np.count_nonzero(new)
    take = indices.copy()
    take[new] = len(x) + np.arange(n_new)
    x = np.concatenate([x, _new_rows("x", line[3], x.shape[1], n_new)])[take]
    y = np.concatenate([y, _new_rows("y", line[4], y.shape[1], n_new)])[take]
    keys = _row_keys(x, y)
    written = np.array(_sources(keys, previous))
    wrong = np.flatnonzero(written != indices)
    if wrong.size:
        k = wrong[0]
        raise ValueError(f"from entry {k} is {indices[k]}, but write_history writes {written[k]}: "
                         "the lowest index of a row of the generation before with its x and y bytes, or -1")
    return x, y, _lowest_index(keys)


def read_history(path) -> RunHistory:
    """Parse a file written by write_history back into a RunHistory.

    Each generation line must be laid out as write_history writes it, and
    a run's ceil(evaluation_budget / population_size) of them must follow.
    A line is read against the generation before it: ``from``'s indices
    gather that generation's rows, and its new rows alone are parsed.
    Raises FormatVersionError on a version mismatch, and
    MalformedRecordError on bytes that are not UTF-8 and, naming the
    line, on a bad header, a line laid out any other way, a ``from`` that
    write_history would not write, a generation that breaks a record rule
    or the header, or a wrong count.
    """
    lines = _read_lines(path)
    run_fields, expected = _read_header(path, lines)
    generations = []
    x, y, previous = np.empty((0, run_fields["D"])), np.empty((0, run_fields["M"])), {}
    for lineno, text in enumerate(lines[1:], start=2):
        line = _GENERATION_LINE.fullmatch(text)
        try:
            if line is None:
                raise ValueError('expected {"gen": t, "from": [i, ...], "x": [[...]], "y": [[...]]} '
                                 'as write_history writes it')
            x, y, previous = _generation(line, x, y, previous)
            generations.append(GenerationRecord(int(line[1]), x, y))
            _check_generation(generations[-1], lineno - 2, run_fields["M"], run_fields["D"],
                              run_fields["population_size"])
        except ValueError as exc:  # ContractError included
            raise MalformedRecordError(f"{path}: line {lineno}: {exc}") from None
    try:
        return RunHistory(**run_fields, generations=tuple(generations))
    except ContractError as exc:  # every line passed its checks, so only their count can be wrong
        # Named: the line after the last, or the first one too many.
        raise MalformedRecordError(f"{path}: line {min(len(generations), expected) + 2}: {exc}") from None


EMBEDDING_CSV_HEADER = "gen,idx,e1,e2,score,space,stride"


def _point_scores(embedding: Embedding, scores, refuse=_refuse) -> np.ndarray:
    """The scores as floats, checked to be one per embedded point, each in [0, 1]; ``refuse`` names a bad one."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (embedding.n_points,):
        raise ContractError(f"need one score per embedded point ({embedding.n_points}), got shape {scores.shape}")
    _check_scores(scores, refuse)
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
    """CSV rows as one column per kind, read by ``_fields`` and ``_numbers``; a ``str`` column stays as its texts.

    Their ValueError passes through; a non-finite ``float`` raises one too, an integer beyond int64 OverflowError.
    """
    k = len(kinds)
    texts = _fields(rows, ",", k)
    columns = [texts[c::k] if kind is str else _numbers(texts[c::k], kind) for c, kind in enumerate(kinds)]
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


def write_embedding(embedding: Embedding, scores, path) -> None:
    """Write an embedding and one exploration score in [0, 1] per point as CSV, by one ``%.17g`` template.

    Rows come in the embedding's own order, which rises in (gen, idx), so there is no sort.
    """
    scores = _point_scores(embedding, scores)
    _write_table(path, EMBEDDING_CSV_HEADER, f"%d,%d,%.17g,%.17g,%.17g,{embedding.space},{embedding.stride}\n",
                 (embedding.generation, embedding.member_index, embedding.e1, embedding.e2, scores))


def read_embedding(path) -> tuple[Embedding, np.ndarray]:
    """Parse an embedding CSV back into (Embedding, score array).

    Every row is parsed first; then line 2's space and stride must pass
    Embedding's rules and every later row repeat them, and the (gen, idx)
    pairs and scores must pass the rules Embedding and write_embedding
    apply.  A broken rule names the first line that breaks it.
    """
    gen, idx, e1, e2, scores, spaces, strides = _read_table(
        path, EMBEDDING_CSV_HEADER, (int, int, float, float, float, str, int))
    try:
        space = as_space(spaces[0])
        _check_stride(strides[0])
    except ContractError as exc:
        raise MalformedRecordError(f"{path}: line 2: {exc}") from None
    refuse = partial(_refuse, where=lambda row: f"{path}: line {row + 2}", error=MalformedRecordError)
    refuse((np.asarray(spaces) != spaces[0]) | (strides != strides[0]),
           "space/stride differ from line 2's, must be constant")
    _check_points(gen, idx, refuse)
    embedding = Embedding(space, e1, e2, gen, idx, stride=int(strides[0]))
    return embedding, _point_scores(embedding, scores, refuse)


HV_CSV_HEADER = "gen,hv"


def write_hv_trace(trace: HypervolumeTrace, path) -> None:
    """Write a hypervolume trace as two-column CSV (gen, hv)."""
    _write_table(path, HV_CSV_HEADER, "%d,%.17g\n", (np.arange(len(trace.values)), trace.values))


def read_hv_trace(path) -> HypervolumeTrace:
    """Parse a trace CSV; the reference point is not stored, so it is None.

    Every row is parsed before ``gen`` is checked to count 0, 1, 2, … and
    ``hv`` to pass HypervolumeTrace's rule (finite and non-negative).
    """
    gen, values = _read_table(path, HV_CSV_HEADER, (int, float))
    refuse = partial(_refuse, where=lambda row: f"{path}: line {row + 2}", error=MalformedRecordError)
    refuse(gen != np.arange(gen.size), "gen {}, expected {}", gen, np.arange(gen.size))
    _check_hv_values(values, refuse)
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
