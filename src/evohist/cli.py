"""Command-line interface: run, embed, hv, render, and pipeline.

Every option is a key of ``_OPTIONS`` with the type that converts it.  A
flag stores under its key; a ``--config`` file (``key = value`` lines,
``#`` comments, unknown or repeated keys rejected) sets keys by name, and a command
reads only the keys it has a flag for.  Flags beat config values, which
beat the defaults of the module that owns the option.  Exit codes: 0
success, 1 I/O or data errors or running out of memory, 2 usage or
configuration errors.  Options are checked before any work is done and
before a history's records are read.

Every command computes all its outputs before it writes any, so a failure
while computing leaves no output behind; each file is then written through
``open_atomic``.  Every package function a command calls is looked up
through this module's globals: the names the benchmark's tracer and the
tests replace.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import ALGORITHMS, PROBLEM_NAMES, ConfigError, ContractError, OperatorConfig
from .embedding import DEFAULT_MAX_POINTS, EmbeddingSpace, as_space, embed_history, sampled_generations
from .emit import (HistoryFormatError, _read_header, open_atomic, read_embedding, read_history, read_hv_trace,
                   render_history_figure, render_hv_figure, write_embedding, write_history, write_hv_trace)
from .metrics import EXACT_HV_MAX_OBJECTIVES, UnsupportedDimensionError, exploration_profile, hypervolume_trace
from .optimizer import RunConfig, default_population_size, run
from .problems import make_spec

__all__ = ["main", "cmd_run", "cmd_embed", "cmd_hv", "cmd_render", "cmd_pipeline"]

# Each option's config key, which its flag stores under, and type, in README order.
_OPTIONS = {
    "problem": str,
    "objectives": int,
    "k": int,
    "algorithm": str,
    "population_size": int,
    "evaluation_budget": int,
    "seed": int,
    "crossover_probability": float,
    "mutation_probability": float,
    "sbx_eta": float,
    "pm_eta": float,
    "max_points": int,
    "space": str,
    "metric_space": str,
    "reference": str,
}


def _load_config(path) -> dict[str, str]:
    """Parse key = value lines split at LF, the last optional, ``#`` opening a comment; bad or repeated keys fail."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}: line {lineno}: key {key!r} given twice")
        values[key] = value
    return values


def _options(args) -> dict:
    """The options this command has a flag for and a flag or its ``--config`` file sets; flags win."""
    cfg = _load_config(args.config) if args.config else {}
    opts = {}
    for key, kind in _OPTIONS.items():
        if getattr(args, key, None) is not None:
            opts[key] = getattr(args, key)
        elif hasattr(args, key) and key in cfg:
            try:
                opts[key] = kind(cfg[key])
            except ValueError:
                raise ConfigError(f"config value {key} = {cfg[key]!r} is not a valid {kind.__name__}") from None
    return opts


def _resolve_run(opts):
    """Problem, run and operator settings; the defaults that depend on M are chosen here."""
    if "problem" not in opts:
        raise ConfigError("no problem given: pass --problem or set it in a config file")
    M = opts.get("objectives", 3)
    try:
        spec = make_spec(opts["problem"], M, opts.get("k"))
        run_config = RunConfig(
            population_size=opts.get("population_size", default_population_size(M)),
            evaluation_budget=opts.get("evaluation_budget", 100_000 if M <= 3 else 200_000),
            seed=opts.get("seed", 0),
            algorithm=opts.get("algorithm", "nsga2" if M <= 3 else "nsga3"),
        )
        operators = OperatorConfig(**{f.name: opts[f.name] for f in fields(OperatorConfig) if f.name in opts})
    except ContractError as exc:
        # Bad parameter values at the CLI boundary are usage errors.
        raise ConfigError(str(exc)) from None
    return spec, run_config, operators


def _resolve_embed(opts):
    """Embedding space, metric space (both ``search`` unless set) and point cap, known before any history is read."""
    spaces = []
    for key in ("space", "metric_space"):
        try:
            spaces.append(as_space(opts.get(key, EmbeddingSpace.SEARCH)))
        except ContractError as exc:
            raise ConfigError(f"config value {key}: {exc}") from None
    return *spaces, opts.get("max_points", DEFAULT_MAX_POINTS)


def _check_max_points(max_points: int, population_size: int) -> None:
    """The point cap must fit two generations of the population it will sample."""
    try:
        sampled_generations(1, population_size, max_points)
    except ContractError as exc:
        raise ConfigError(str(exc)) from None


def _parse_reference(opts):
    value = opts.get("reference", "auto")
    if value == "auto":
        return "auto"
    try:
        ref = np.array([float(part) for part in value.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"malformed reference {value!r}: expected 'auto' or comma-separated reals") from None
    if ref.size == 0 or not np.isfinite(ref).all():
        raise ConfigError(f"malformed reference {value!r}: values must be finite")
    return ref


def _check_reference(reference, M: int) -> None:
    """Exact hv scores at most EXACT_HV_MAX_OBJECTIVES objectives, against one reference value per objective."""
    if M > EXACT_HV_MAX_OBJECTIVES:
        raise UnsupportedDimensionError(
            f"exact hypervolume supports at most {EXACT_HV_MAX_OBJECTIVES} objectives (got {M})"
        )
    if not isinstance(reference, str) and reference.size != M:
        raise ConfigError(f"reference has {reference.size} values, expected {M} (one per objective)")


def _check_out_dirs(*paths) -> None:
    """Fail before any work when an output's directory does not exist, or the output is itself a directory.

    Raised as an OSError, so it exits 1 like the failed write it prevents.
    """
    for path in paths:
        parent = Path(path).parent
        if not parent.is_dir():
            raise OSError(f"cannot write {path}: {parent} is not an existing directory")
        if Path(path).is_dir():
            raise OSError(f"cannot write {path}: it is a directory")


def cmd_run(args) -> int:
    _check_out_dirs(args.out)
    spec, run_config, operators = _resolve_run(_options(args))
    started = time.perf_counter()
    history = run(spec, run_config, operators)
    write_history(history, args.out)
    elapsed = time.perf_counter() - started
    print(
        f"run: {spec.name} M={spec.M} {run_config.algorithm} "
        f"pop={run_config.population_size} generations={history.n_generations} "
        f"seed={run_config.seed} wall={elapsed:.2f}s -> {args.out}"
    )
    return 0


def cmd_embed(args) -> int:
    _check_out_dirs(args.out)
    space, metric_space, max_points = _resolve_embed(_options(args))
    _check_max_points(max_points, _read_header(args.history)[0]["population_size"])
    history = read_history(args.history)
    profile = exploration_profile(history, metric_space)
    embedding = embed_history(history, space, max_points)
    write_embedding(embedding, profile.score[embedding.generation, embedding.member_index], args.out)
    print(
        f"embed: space={embedding.space} points={embedding.n_points} "
        f"stride={embedding.stride} -> {args.out}"
    )
    return 0


def cmd_hv(args) -> int:
    _check_out_dirs(args.out)
    reference = _parse_reference(_options(args))
    _check_reference(reference, _read_header(args.history)[0]["M"])
    history = read_history(args.history)
    trace = hypervolume_trace(history, reference)
    write_hv_trace(trace, args.out)
    print(f"hv: {len(trace)} generations -> {args.out}")
    return 0


def cmd_render(args) -> int:
    if not args.embedding and not args.hv_trace:
        raise ConfigError("nothing to render: pass --embedding and/or --hv-trace")
    if args.embedding and args.hv_trace:
        base = args.out[:-4] if args.out.endswith(".svg") else args.out
        history_out, hv_out = f"{base}.history.svg", f"{base}.hv.svg"
    else:
        history_out = hv_out = args.out
    _check_out_dirs(history_out, hv_out)
    figures = {}
    if args.embedding:
        figures[history_out] = render_history_figure(*read_embedding(args.embedding))
    if args.hv_trace:
        figures[hv_out] = render_hv_figure(read_hv_trace(args.hv_trace))
    for out, svg in figures.items():
        with open_atomic(out) as fh:
            fh.write(svg)
    print(f"render: wrote {', '.join(figures)}")
    return 0


def cmd_pipeline(args) -> int:
    # Every option is checked before optimising or creating --outdir; the
    # embed and hv stages would only meet a bad one after the run.
    opts = _options(args)
    spec, run_config, operators = _resolve_run(opts)
    _, metric_space, max_points = _resolve_embed(opts)  # pipeline embeds both spaces
    _check_max_points(max_points, run_config.population_size)
    reference = _parse_reference(opts)
    _check_reference(reference, spec.M)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = ["history.jsonl", "hv.csv", "figure.hv.svg"]
    names += [name for space in EmbeddingSpace for name in (f"embedding.{space}.csv", f"figure.{space}.svg")]
    _check_out_dirs(*(outdir / name for name in names))

    started = time.perf_counter()
    history = run(spec, run_config, operators)
    profile = exploration_profile(history, metric_space)
    embeddings, figures = {}, {}
    for space in EmbeddingSpace:
        embedding = embed_history(history, space, max_points)
        embeddings[space] = embedding, profile.score[embedding.generation, embedding.member_index]
        figures[outdir / f"figure.{space}.svg"] = render_history_figure(*embeddings[space])
    trace = hypervolume_trace(history, reference)
    figures[outdir / "figure.hv.svg"] = render_hv_figure(trace)

    write_history(history, outdir / "history.jsonl")
    for space, (embedding, scores) in embeddings.items():
        write_embedding(embedding, scores, outdir / f"embedding.{space}.csv")
    write_hv_trace(trace, outdir / "hv.csv")
    for out, svg in figures.items():
        with open_atomic(out) as fh:
            fh.write(svg)
    elapsed = time.perf_counter() - started
    print(
        f"pipeline: {spec.name} M={spec.M} {run_config.algorithm} "
        f"generations={history.n_generations} wall={elapsed:.2f}s -> {outdir}/ (7 files)"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    def flag(parser, spelling, key=None, **kwargs):  # stores under its config key, typed by _OPTIONS
        key = key or spelling[2:].replace("-", "_")
        parser.add_argument(spelling, dest=key, type=_OPTIONS[key], **kwargs)

    spaces = [str(space) for space in EmbeddingSpace]
    run_flags = argparse.ArgumentParser(add_help=False)
    flag(run_flags, "--problem", help="|".join(PROBLEM_NAMES))
    flag(run_flags, "--objectives", help="number of objectives M (default 3)")
    flag(run_flags, "--k", help="distance-variable count (default per problem)")
    flag(run_flags, "--algorithm", choices=ALGORITHMS)
    flag(run_flags, "--pop", "population_size", help="population size (default from M)")
    flag(run_flags, "--evaluations", "evaluation_budget", help="evaluation budget")
    flag(run_flags, "--seed", help="run seed (default 0)")
    flag(run_flags, "--crossover-probability")
    flag(run_flags, "--mutation-probability")
    flag(run_flags, "--sbx-eta")
    flag(run_flags, "--pm-eta")
    run_flags.add_argument("--config", help="key = value configuration file")

    parser = argparse.ArgumentParser(
        prog="evohist",
        description="Optimise DTLZ benchmarks, record full population histories, "
        "and turn them into MDS embeddings, exploration scores, hypervolume "
        "traces and SVG figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[run_flags], help="optimise and write a history file")
    p.add_argument("--out", required=True, help="history output path (JSON lines)")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("embed", help="embed a history into 2-D and write CSV")
    p.add_argument("--history", required=True)
    flag(p, "--space", choices=spaces)
    flag(p, "--metric-space", choices=spaces)
    flag(p, "--max-points")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("hv", help="write a per-generation hypervolume trace CSV")
    p.add_argument("--history", required=True)
    flag(p, "--ref", "reference", help="'auto' or comma-separated reference point")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_hv)

    p = sub.add_parser("render", help="render SVG figures from CSV artifacts")
    p.add_argument("--embedding", help="embedding CSV to draw as a history figure")
    p.add_argument("--hv-trace", dest="hv_trace", help="trace CSV to draw as a line chart")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_render)

    p = sub.add_parser(
        "pipeline", parents=[run_flags], help="run + embed both spaces + hv + render, into a directory"
    )
    flag(p, "--metric-space", choices=spaces)
    flag(p, "--max-points")
    flag(p, "--ref", "reference")
    p.add_argument("--outdir", required=True)
    p.set_defaults(handler=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ConfigError, UnsupportedDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HistoryFormatError, ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # The objects the imports made live until exit; frozen, no later full
    # collection walks them, interpreter shutdown's included.  Not in main():
    # where it runs many times, as in a test run, a freeze would also keep
    # every cycle the earlier calls left.
    gc.freeze()
    sys.exit(main())
