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
from dataclasses import dataclass

import numpy as np

from .core import ContractError, GenerationRecord, OperatorConfig, RunHistory
from .embedding import Embedding, as_space
from .metrics import HypervolumeTrace
from .optimizer import RNG_ALGORITHM

__all__ = [
    "HistoryFormatError",
    "FormatVersionError",
    "MalformedRecordError",
    "FigureOptions",
    "FORMAT_VERSION",
    "RNG_ALGORITHM",
    "COLOUR_ANCHORS",
    "colour_at",
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


def _fmt(value: float) -> str:
    """One real, 17 significant digits (exact float64 round-trip)."""
    return format(float(value), ".17g")


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


def write_history(history: RunHistory, path) -> None:
    """Serialise a run to JSON-lines; see the module docstring for the schema.

    Survivors carry over between generations, so most rows repeat a row
    of the generation before.  Each generation's x and y rows are looked
    up by their raw bytes in the previous generation's texts, and only
    the rest are formatted.  Equal bytes are equal floats, and ``%.17g``
    of a float is a fixed string, so the file is the same as formatting
    every value afresh.  Only one generation's texts are kept at a time.
    """
    op = history.operators
    header = (
        f'{{"format_version": {FORMAT_VERSION}'
        f', "problem": {json.dumps(history.problem)}'
        f', "M": {history.M}'
        f', "D": {history.D}'
        f', "algorithm": {json.dumps(history.algorithm)}'
        f', "population_size": {history.population_size}'
        f', "evaluation_budget": {history.evaluation_budget}'
        f', "seed": {history.seed}'
        f', "crossover_probability": {_fmt(op.crossover_probability)}'
        f', "mutation_probability": {_fmt(op.mutation_probability)}'
        f', "sbx_eta": {_fmt(op.sbx_eta)}'
        f', "pm_eta": {_fmt(op.pm_eta)}'
        f', "rng_algorithm": {json.dumps(RNG_ALGORITHM)}}}\n'
    )
    with open_atomic(path) as fh:
        fh.write(header)
        seen_x: dict[bytes, str] = {}
        seen_y: dict[bytes, str] = {}
        for rec in history.generations:
            x_texts, seen_x = _row_texts(rec.x, seen_x)
            y_texts, seen_y = _row_texts(rec.y, seen_y)
            fh.write(f'{{"gen": {rec.generation}, "x": [{", ".join(x_texts)}], "y": [{", ".join(y_texts)}]}}\n')


_HEADER_FIELDS = (
    "format_version",
    "problem",
    "M",
    "D",
    "algorithm",
    "population_size",
    "evaluation_budget",
    "seed",
    "crossover_probability",
    "mutation_probability",
    "sbx_eta",
    "pm_eta",
    "rng_algorithm",
)


def read_history(path) -> RunHistory:
    """Parse a file written by write_history back into a RunHistory.

    Raises FormatVersionError on a version mismatch, MalformedRecordError
    (naming the line) on unparseable lines or missing fields, and the
    usual contract errors when the decoded records violate history
    invariants such as generation ordering.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MalformedRecordError(f"{path}: line 1: empty file, expected a header record")

    def parse(lineno: int, text: str) -> dict:
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(f"{path}: line {lineno}: {exc.msg}") from None
        if not isinstance(record, dict):
            raise MalformedRecordError(f"{path}: line {lineno}: expected a JSON object")
        return record

    header = parse(1, lines[0])
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: line 1: format_version {version!r}, this reader supports {FORMAT_VERSION}"
        )
    missing = [k for k in _HEADER_FIELDS if k not in header]
    if missing:
        raise MalformedRecordError(f"{path}: line 1: header missing fields {', '.join(missing)}")

    operators = OperatorConfig(
        crossover_probability=float(header["crossover_probability"]),
        mutation_probability=float(header["mutation_probability"]),
        sbx_eta=float(header["sbx_eta"]),
        pm_eta=float(header["pm_eta"]),
    )
    generations = []
    for lineno, text in enumerate(lines[1:], start=2):
        record = parse(lineno, text)
        for key in ("gen", "x", "y"):
            if key not in record:
                raise MalformedRecordError(f"{path}: line {lineno}: generation record missing {key!r}")
        if record["gen"] != lineno - 2:
            raise ContractError(
                f"{path}: line {lineno}: generation index {record['gen']} out of order "
                f"(expected {lineno - 2})"
            )
        try:
            generations.append(GenerationRecord(record["gen"], record["x"], record["y"]))
        except (ContractError, TypeError, ValueError) as exc:
            raise ContractError(f"{path}: line {lineno}: {exc}") from None
    if not generations:
        raise MalformedRecordError(f"{path}: line 2: no generation records after the header")
    return RunHistory(
        problem=header["problem"],
        M=int(header["M"]),
        D=int(header["D"]),
        algorithm=header["algorithm"],
        population_size=int(header["population_size"]),
        evaluation_budget=int(header["evaluation_budget"]),
        seed=int(header["seed"]),
        operators=operators,
        generations=tuple(generations),
    )


EMBEDDING_CSV_HEADER = "gen,idx,e1,e2,score,space,stride"


def _point_scores(embedding: Embedding, profile) -> np.ndarray:
    """Per-embedded-point scores from a profile object or a plain array."""
    if hasattr(profile, "score_at"):
        n_gen, pop = profile.score.shape
        gen, idx = embedding.generation, embedding.member_index
        if gen.min() < 0 or gen.max() >= n_gen or idx.min() < 0 or idx.max() >= pop:
            raise ContractError(
                f"profile of {n_gen} generations x {pop} members does not cover every "
                f"embedded point (generations {gen.min()}..{gen.max()}, members {idx.min()}..{idx.max()})"
            )
        return profile.score[gen, idx]
    scores = np.asarray(profile, dtype=float)
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


def write_embedding(embedding: Embedding, profile, path) -> None:
    """Write an embedding plus per-point exploration scores as CSV.

    ``profile`` is an ExplorationProfile covering every sampled
    generation, or a pre-extracted score array aligned with the points.
    Rows are sorted by (gen, idx) and formatted by one template, whose
    ``%.17g`` prints a float exactly as ``_fmt`` does.
    """
    scores = _point_scores(embedding, profile)
    order = np.lexsort((embedding.member_index, embedding.generation))
    row = f"%d,%d,%.17g,%.17g,%.17g,{embedding.space},{embedding.stride}\n"
    columns = (embedding.generation, embedding.member_index, embedding.e1, embedding.e2, scores)
    with open_atomic(path) as fh:
        fh.write(EMBEDDING_CSV_HEADER + "\n")
        fh.write((row * embedding.n_points) % tuple(_interleave(*(c[order] for c in columns))))


def read_embedding(path) -> tuple[Embedding, np.ndarray]:
    """Parse an embedding CSV back into (Embedding, score array)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != EMBEDDING_CSV_HEADER:
        raise MalformedRecordError(f"{path}: line 1: expected header {EMBEDDING_CSV_HEADER!r}")
    if len(lines) < 2:
        raise MalformedRecordError(f"{path}: line 2: embedding has no points")
    gens, idxs, e1s, e2s, scores = [], [], [], [], []
    spaces, strides = set(), set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise MalformedRecordError(f"{path}: line {lineno}: expected 7 fields, got {len(parts)}")
        try:
            gens.append(int(parts[0]))
            idxs.append(int(parts[1]))
            e1s.append(float(parts[2]))
            e2s.append(float(parts[3]))
            scores.append(float(parts[4]))
            spaces.add(parts[5])
            strides.add(int(parts[6]))
        except ValueError as exc:
            raise MalformedRecordError(f"{path}: line {lineno}: {exc}") from None
    if len(spaces) != 1 or len(strides) != 1:
        raise MalformedRecordError(f"{path}: space/stride columns must be constant")
    embedding = Embedding(
        space=as_space(spaces.pop()),
        e1=np.array(e1s),
        e2=np.array(e2s),
        generation=np.array(gens, dtype=np.int64),
        member_index=np.array(idxs, dtype=np.int64),
        stride=strides.pop(),
    )
    return embedding, np.array(scores)


HV_CSV_HEADER = "gen,hv"


def write_hv_trace(trace: HypervolumeTrace, path) -> None:
    """Write a hypervolume trace as two-column CSV (gen, hv)."""
    lines = [HV_CSV_HEADER]
    for t, value in enumerate(trace.values):
        lines.append(f"{t},{_fmt(value)}")
    with open_atomic(path) as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_hv_trace(path) -> HypervolumeTrace:
    """Parse a trace CSV; the reference point is not stored, so it is None."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != HV_CSV_HEADER:
        raise MalformedRecordError(f"{path}: line 1: expected header {HV_CSV_HEADER!r}")
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            if len(parts) != 2 or int(parts[0]) != lineno - 2:
                raise ValueError("expected 'gen,hv' with consecutive gen indices")
            values.append(float(parts[1]))
        except ValueError as exc:
            raise MalformedRecordError(f"{path}: line {lineno}: {exc}") from None
    if not values:
        raise MalformedRecordError(f"{path}: line 2: trace has no values")
    return HypervolumeTrace(reference_point=None, values=np.array(values))


@dataclass(frozen=True)
class FigureOptions:
    """Canvas size; the projection, colour ramp and markers are fixed."""

    width_px: int = 900
    height_px: int = 700

    def __post_init__(self):
        if self.width_px < 1 or self.height_px < 1:
            raise ContractError("figure dimensions must be positive")


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


def colour_at(score: float) -> tuple[int, int, int]:
    """Linear five-anchor colour ramp; input clamped to [0, 1], NaN maps to the top anchor."""
    return tuple(_colours([score])[0].tolist())


def _project(x, y, z):
    """Fixed orthographic camera: azimuth 45°, elevation 25° (scalars or arrays)."""
    az = math.radians(AZIMUTH_DEG)
    el = math.radians(ELEVATION_DEG)
    u = -x * math.sin(az) + y * math.cos(az)
    v = -(x * math.cos(az) + y * math.sin(az)) * math.sin(el) + z * math.cos(el)
    return u, v


def _px(value: float) -> str:
    return format(value, ".2f")


def _svg_open(options: FigureOptions) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{options.width_px}" height="{options.height_px}" '
        f'viewBox="0 0 {options.width_px} {options.height_px}">',
        f'<rect x="0" y="0" width="{options.width_px}" height="{options.height_px}" fill="#ffffff"/>',
    ]


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    return np.linspace(lo, hi, count)


def render_history_figure(embedding: Embedding, profile, options: FigureOptions | None = None) -> str:
    """Static SVG of the embedded history as a projected 3-D scatter.

    Every point becomes a circle at the orthographic projection of
    (e1, e2, generation normalised to [0, 1]), coloured by exploration
    score; final-generation points are overdrawn with white crosses.
    Three labelled axes (e1, e2, gen) frame the cloud.
    """
    options = options or FigureOptions()
    scores = _point_scores(embedding, profile)
    if embedding.n_points == 0:
        raise ContractError("cannot render an empty embedding")

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
    scale = min((options.width_px - 2 * margin) / span_u, (options.height_px - 2 * margin) / span_v)

    def place(u, v):
        px = margin + (u - u_lo) * scale + ((options.width_px - 2 * margin) - span_u * scale) / 2
        py = options.height_px - margin - (v - v_lo) * scale - (
            (options.height_px - 2 * margin) - span_v * scale
        ) / 2
        return px, py

    parts = _svg_open(options)
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


def render_hv_figure(trace: HypervolumeTrace, options: FigureOptions | None = None) -> str:
    """Static SVG line chart of hypervolume against generation."""
    options = options or FigureOptions()
    n = len(trace)
    if n == 0:
        raise ContractError("cannot render an empty trace")
    margin = 70.0
    plot_w = options.width_px - 2 * margin
    plot_h = options.height_px - 2 * margin
    lo, hi = float(trace.values.min()), float(trace.values.max())
    span = hi - lo

    def place(t: int, value: float) -> tuple[float, float]:
        px = margin + (plot_w * t / (n - 1) if n > 1 else plot_w / 2)
        frac = (value - lo) / span if span > 0 else 0.5
        return px, options.height_px - margin - frac * plot_h

    parts = _svg_open(options)
    x_axis_y = options.height_px - margin
    parts.append('<g stroke="#666666" stroke-width="1" fill="none">')
    parts.append(
        f'<line x1="{_px(margin)}" y1="{_px(x_axis_y)}" '
        f'x2="{_px(options.width_px - margin)}" y2="{_px(x_axis_y)}"/>'
    )
    parts.append(f'<line x1="{_px(margin)}" y1="{_px(margin)}" x2="{_px(margin)}" y2="{_px(x_axis_y)}"/>')
    parts.append("</g>")
    parts.append('<g font-family="sans-serif" font-size="11" fill="#333333">')
    for value in _ticks(0, n - 1):
        px = margin + (plot_w * value / (n - 1) if n > 1 else plot_w / 2)
        parts.append(f'<text x="{_px(px)}" y="{_px(x_axis_y + 16)}">{format(value, ".3g")}</text>')
    for value in _ticks(lo, hi):
        frac = (value - lo) / span if span > 0 else 0.5
        py = options.height_px - margin - frac * plot_h
        parts.append(f'<text x="{_px(margin - 50)}" y="{_px(py + 4)}">{format(value, ".4g")}</text>')
    parts.append(f'<text x="{_px(margin + plot_w / 2)}" y="{_px(x_axis_y + 34)}" font-size="13">gen</text>')
    parts.append(f'<text x="{_px(12)}" y="{_px(margin - 10)}" font-size="13">hypervolume</text>')
    parts.append("</g>")
    coords = " ".join(
        f"{_px(place(t, v)[0])},{_px(place(t, v)[1])}" for t, v in enumerate(trace.values)
    )
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6f8b" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
