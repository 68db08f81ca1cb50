"""Deterministic serialisation and static SVG figures.

File formats (all UTF-8, LF newlines, reals printed with 17 significant
digits so every float64 round-trips bit-exactly):

* History: JSON lines.  Line 1 is a header record carrying the full run
  configuration plus ``format_version`` and the RNG algorithm tag; each
  later line is one generation ``{"gen": t, "x": [[...]], "y": [[...]]}``.
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

# The one canvas every figure is drawn on, in pixels, and the two lines that open its SVG.
WIDTH_PX = 900
HEIGHT_PX = 700
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


def _fmt_rows(rows: np.ndarray) -> list[str]:
    """Each row of a matrix as a JSON list of 17-significant-digit reals.

    One ``%.17g`` template covers the whole matrix; its output never holds
    a line break, so the rows split apart on the ones the template adds.
    """
    n, m = rows.shape
    row = "[" + ", ".join(["%.17g"] * m) + "]\n"
    return ((row * n) % tuple(rows.ravel().tolist())).splitlines()


def _row_texts(rows: np.ndarray, previous: dict[bytes, str]) -> tuple[list[str], dict[bytes, str]]:
    """Text of every row, reusing ``previous`` for rows seen there.

    Rows are keyed by their raw float64 bytes, so a hit is the same bits
    and prints the same text; ``-0.0`` and ``0.0`` stay distinct keys.
    Only the rows ``previous`` lacks go through ``_fmt_rows``, in one call.
    Returns the texts and the key → text map to pass in for the next
    matrix.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0].tolist()
    texts = list(map(previous.get, keys))
    new = [i for i, text in enumerate(texts) if text is None]
    for i, text in zip(new, _fmt_rows(rows[new])):
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


def _parse_record(path, lineno: int, text: str, parse_int=int) -> dict:
    """One history line as a JSON object; anything else is malformed, naming the line.

    ``parse_int`` converts integer literals, as in ``json.loads``.
    """
    try:
        record = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"{path}: line {lineno}: {exc.msg}") from None
    if not isinstance(record, dict):
        raise MalformedRecordError(f"{path}: line {lineno}: expected a JSON object")
    return record


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
    header = _parse_record(path, 1, lines[0])
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


def read_history(path) -> RunHistory:
    """Parse a file written by write_history back into a RunHistory.

    Raises FormatVersionError on a version mismatch, MalformedRecordError
    on bytes that are not UTF-8 and (naming the line) on unparseable lines
    or missing or mistyped fields, and ContractError naming the line on a
    generation that breaks a record invariant or does not fit the header:
    out of order, a member count other than the population size, or
    vectors of other than D and M entries.
    """
    lines = _read_lines(path)
    run_fields = _read_header(path, lines)
    generations = []
    for lineno, text in enumerate(lines[1:], start=2):
        # %.17g prints -0.0 as "-0", an integer literal; read as a float it keeps its sign.
        record = _parse_record(path, lineno, text, parse_int=float)
        for key in ("gen", "x", "y"):
            if key not in record:
                raise MalformedRecordError(f"{path}: line {lineno}: generation record missing {key!r}")
        try:
            generations.append(GenerationRecord(record["gen"], record["x"], record["y"]))
            _check_generation(generations[-1], lineno - 2, run_fields["M"], run_fields["D"],
                              run_fields["population_size"])
        except (TypeError, ValueError) as exc:
            raise ContractError(f"{path}: line {lineno}: {exc}") from None
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


def _interleave(*columns: np.ndarray) -> list:
    """Row-major values of equal-length columns, as Python numbers for a ``%`` template."""
    flat = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        flat[k :: len(columns)] = column.tolist()
    return flat


def _write_table(path, header: str, row_template: str, columns) -> None:
    """Write a CSV: the header line, then one ``%`` template line per row of equal-length columns."""
    with open_atomic(path) as fh:
        fh.write(header + "\n")
        fh.write((row_template * len(columns[0])) % tuple(_interleave(*columns)))


def _columns(rows: list[str], kinds) -> list:
    """CSV rows as one column per kind: ``int`` and ``float`` through Python's own into int64 and float64 arrays.

    A ``str`` column stays as its texts.  A row without one field per
    kind, a text its kind rejects, or a non-finite ``float`` (``nan``,
    ``inf``, ``1e999``) raises ValueError; an integer beyond int64 raises
    OverflowError.
    """
    k = len(kinds)
    for row in rows:
        if row.count(",") != k - 1:
            raise ValueError(f"expected {k} fields, got {row.count(',') + 1}")
    texts = ",".join(rows).split(",")
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
    checked, every later row must repeat them, no ``gen`` or ``idx`` may
    be negative, and every score must lie in [0, 1].
    """
    gen, idx, e1, e2, scores, spaces, strides = _read_table(
        path, EMBEDDING_CSV_HEADER, (int, int, float, float, float, str, int))
    try:
        space = as_space(spaces[0])
    except ContractError as exc:
        raise MalformedRecordError(f"{path}: line 2: {exc}") from None
    if strides[0] < 1:
        raise MalformedRecordError(f"{path}: line 2: stride {strides[0]} must be positive")
    odd = np.flatnonzero((np.asarray(spaces) != spaces[0]) | (strides != strides[0]))
    if odd.size:
        raise MalformedRecordError(f"{path}: line {odd[0] + 2}: space/stride differ from line 2's, must be constant")
    negative = np.flatnonzero((gen < 0) | (idx < 0))
    if negative.size:
        k = negative[0]
        raise MalformedRecordError(f"{path}: line {k + 2}: gen {gen[k]}, idx {idx[k]} must be non-negative")
    outside = np.flatnonzero((scores < 0) | (scores > 1))
    if outside.size:
        k = outside[0]
        raise MalformedRecordError(f"{path}: line {k + 2}: score {scores[k]} outside [0, 1]")
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
    gaps = np.flatnonzero(gen != np.arange(gen.size))
    if gaps.size:
        raise MalformedRecordError(f"{path}: line {gaps[0] + 2}: gen {gen[gaps[0]]}, expected {gaps[0]}")
    negative = np.flatnonzero(values < 0)
    if negative.size:
        raise MalformedRecordError(f"{path}: line {negative[0] + 2}: hv {values[negative[0]]} is negative")
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


def render_history_figure(embedding: Embedding, scores) -> str:
    """Static SVG of the embedded history as a projected 3-D scatter.

    Every point becomes a circle at the orthographic projection of
    (e1, e2, generation normalised to [0, 1]), coloured by exploration
    score; final-generation points are overdrawn with white crosses.
    Three labelled axes (e1, e2, gen) frame the cloud.  ``scores`` holds
    one score per point.
    """
    scores = _point_scores(embedding, scores)

    gen_max = int(embedding.generation.max())
    z = embedding.generation / gen_max if gen_max > 0 else np.zeros(embedding.n_points)
    u_pts, v_pts = _project(embedding.e1, embedding.e2, z)

    x_lo, x_hi = float(embedding.e1.min()), float(embedding.e1.max())
    y_lo, y_hi = float(embedding.e2.min()), float(embedding.e2.max())
    axes = []  # (name, start xyz, end xyz, tick values, tick positions)
    for name, start, end, values in (
        ("e1", (x_lo, y_lo, 0.0), (x_hi, y_lo, 0.0), _ticks(x_lo, x_hi)),
        ("e2", (x_lo, y_lo, 0.0), (x_lo, y_hi, 0.0), _ticks(y_lo, y_hi)),
        ("gen", (x_lo, y_lo, 0.0), (x_lo, y_lo, 1.0), _ticks(0, max(gen_max, 1))),
    ):
        start = np.array(start)
        end = np.array(end)
        steps = np.linspace(0.0, 1.0, values.size)[:, None]
        ticks_xyz = start + steps * (end - start)
        axes.append((name, start, end, values, ticks_xyz))

    frame_xyz = np.vstack([np.vstack([a[1], a[2], a[4]]) for a in axes])
    u_frame, v_frame = _project(frame_xyz[:, 0], frame_xyz[:, 1], frame_xyz[:, 2])
    u_all = np.concatenate([u_pts, u_frame])
    v_all = np.concatenate([v_pts, v_frame])
    u_lo, u_hi = float(u_all.min()), float(u_all.max())
    v_lo, v_hi = float(v_all.min()), float(v_all.max())
    margin = 70.0
    span_u = max(u_hi - u_lo, 1e-12)
    span_v = max(v_hi - v_lo, 1e-12)
    scale = min((WIDTH_PX - 2 * margin) / span_u, (HEIGHT_PX - 2 * margin) / span_v)

    def place(u, v):
        px = margin + (u - u_lo) * scale + ((WIDTH_PX - 2 * margin) - span_u * scale) / 2
        py = HEIGHT_PX - margin - (v - v_lo) * scale - (
            (HEIGHT_PX - 2 * margin) - span_v * scale
        ) / 2
        return px, py

    parts = [_SVG_OPEN]
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

    # place() is the same float64 arithmetic on arrays as on scalars, and
    # "%.2f" prints a float as _px does.
    px_pts, py_pts = place(u_pts, v_pts)
    rgb = _colours(scores)
    circle = '<circle cx="%.2f" cy="%.2f" r="2.5" fill="rgb(%d,%d,%d)"/>'
    parts.append("\n".join([circle] * embedding.n_points) % tuple(_interleave(px_pts, py_pts, *rgb.T)))
    arm = 4.0
    final = embedding.generation == gen_max
    for px, py in zip(px_pts[final].tolist(), py_pts[final].tolist()):
        parts.append(
            f'<path class="final-cross" d="M {_px(px - arm)} {_px(py - arm)} L {_px(px + arm)} '
            f'{_px(py + arm)} M {_px(px - arm)} {_px(py + arm)} L {_px(px + arm)} {_px(py - arm)}" '
            f'stroke="#ffffff" stroke-width="1.5" fill="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_hv_figure(trace: HypervolumeTrace) -> str:
    """Static SVG line chart of hypervolume against generation."""
    n = len(trace)
    margin = 70.0
    plot_w = WIDTH_PX - 2 * margin
    plot_h = HEIGHT_PX - 2 * margin
    lo, hi = float(trace.values.min()), float(trace.values.max())
    span = hi - lo

    def place(t: float, value: float) -> tuple[float, float]:
        px = margin + (plot_w * t / (n - 1) if n > 1 else plot_w / 2)
        frac = (value - lo) / span if span > 0 else 0.5
        return px, HEIGHT_PX - margin - frac * plot_h

    parts = [_SVG_OPEN]
    x_axis_y = HEIGHT_PX - margin
    parts.append('<g stroke="#666666" stroke-width="1" fill="none">')
    parts.append(
        f'<line x1="{_px(margin)}" y1="{_px(x_axis_y)}" '
        f'x2="{_px(WIDTH_PX - margin)}" y2="{_px(x_axis_y)}"/>'
    )
    parts.append(f'<line x1="{_px(margin)}" y1="{_px(margin)}" x2="{_px(margin)}" y2="{_px(x_axis_y)}"/>')
    parts.append("</g>")
    parts.append('<g font-family="sans-serif" font-size="11" fill="#333333">')
    for value in _ticks(0, n - 1):
        px = place(value, lo)[0]
        parts.append(f'<text x="{_px(px)}" y="{_px(x_axis_y + 16)}">{format(value, ".3g")}</text>')
    for value in _ticks(lo, hi):
        py = place(0, value)[1]
        parts.append(f'<text x="{_px(margin - 50)}" y="{_px(py + 4)}">{format(value, ".4g")}</text>')
    parts.append(f'<text x="{_px(margin + plot_w / 2)}" y="{_px(x_axis_y + 34)}" font-size="13">gen</text>')
    parts.append(f'<text x="{_px(12)}" y="{_px(margin - 10)}" font-size="13">hypervolume</text>')
    parts.append("</g>")
    coords = " ".join(",".join(map(_px, place(t, v))) for t, v in enumerate(trace.values))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6f8b" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
