"""Command-line interface: run, embed, hv, render, and pipeline.

Every option can come from three places with fixed precedence: explicit
flags beat values from a ``--config`` file (plain ``key = value`` lines,
``#`` comments, unknown keys rejected), which beat built-in defaults.
Exit codes: 0 success, 1 I/O or data errors, 2 usage or configuration
errors.  Each command resolves and checks its options before it runs a
stage, and ``pipeline`` runs the same stage functions as the subcommands.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .core import ConfigError, ContractError, OperatorConfig
from .embedding import DEFAULT_MAX_POINTS, as_space, embed_history, sampled_generations
from .emit import (
    HistoryFormatError,
    MalformedRecordError,
    _read_lines,
    open_atomic,
    read_embedding,
    read_history,
    read_hv_trace,
    render_history_figure,
    render_hv_figure,
    write_embedding,
    write_history,
    write_hv_trace,
)
from .metrics import (
    EXACT_HV_MAX_OBJECTIVES,
    UnsupportedDimensionError,
    exploration_profile,
    hypervolume_trace,
)
from .optimizer import RunConfig, default_population_size, run
from .problems import make_spec

__all__ = ["main", "cmd_run", "cmd_embed", "cmd_hv", "cmd_render", "cmd_pipeline"]

_CONFIG_KEYS = frozenset(
    {
        "problem",
        "objectives",
        "k",
        "algorithm",
        "population_size",
        "evaluation_budget",
        "seed",
        "crossover_probability",
        "mutation_probability",
        "sbx_eta",
        "pm_eta",
        "max_points",
        "space",
        "metric_space",
        "reference",
    }
)


def _load_config(path) -> dict[str, str]:
    """Parse a key = value config file; unknown keys fail closed."""
    try:
        lines = _read_lines(path)
    except (OSError, MalformedRecordError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _pick(flag_value, cfg: dict[str, str], key: str, cast, default=None):
    """Precedence: command-line flag, then config file, then default."""
    if flag_value is not None:
        return flag_value
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError:
            raise ConfigError(f"config value {key} = {cfg[key]!r} is not a valid {cast.__name__}") from None
    return default


def _config_of(args) -> dict[str, str]:
    return _load_config(args.config) if getattr(args, "config", None) else {}


def _resolve_run(args, cfg):
    problem = _pick(args.problem, cfg, "problem", str)
    if problem is None:
        raise ConfigError("no problem given: pass --problem or set it in a config file")
    M = _pick(args.objectives, cfg, "objectives", int, 3)
    k = _pick(args.k, cfg, "k", int)
    algorithm = _pick(args.algorithm, cfg, "algorithm", str, "nsga2" if M <= 3 else "nsga3")
    seed = _pick(args.seed, cfg, "seed", int, 0)
    try:
        spec = make_spec(problem, M, k)
        population = _pick(args.pop, cfg, "population_size", int, default_population_size(M))
        budget = _pick(args.evaluations, cfg, "evaluation_budget", int, 100_000 if M <= 3 else 200_000)
        run_config = RunConfig(
            population_size=population,
            evaluation_budget=budget,
            seed=seed,
            algorithm=algorithm,
        )
        operators = OperatorConfig(
            crossover_probability=_pick(args.crossover_probability, cfg, "crossover_probability", float, 0.8),
            mutation_probability=_pick(args.mutation_probability, cfg, "mutation_probability", float, 0.1),
            sbx_eta=_pick(args.sbx_eta, cfg, "sbx_eta", float, 15.0),
            pm_eta=_pick(args.pm_eta, cfg, "pm_eta", float, 7.0),
        )
    except ContractError as exc:
        # Bad parameter values at the CLI boundary are usage errors.
        raise ConfigError(str(exc)) from None
    return spec, run_config, operators


def _pick_space(flag_value, cfg: dict[str, str], key: str):
    """An embedding space from flag, config or the "search" default; unknown names are usage errors."""
    try:
        return as_space(_pick(flag_value, cfg, key, str, "search"))
    except ContractError as exc:
        raise ConfigError(f"config value {key}: {exc}") from None


def _resolve_embed(args, cfg):
    """The embed stage's exploration metric space and point cap, known before any history is read."""
    metric_space = _pick_space(args.metric_space, cfg, "metric_space")
    max_points = _pick(args.max_points, cfg, "max_points", int, DEFAULT_MAX_POINTS)
    return metric_space, max_points


def _check_max_points(max_points: int, population_size: int) -> None:
    """The point cap must fit two generations of the population it will sample."""
    try:
        sampled_generations(1, population_size, max_points)
    except ContractError as exc:
        raise ConfigError(str(exc)) from None


def _parse_reference(text: str | None, cfg: dict[str, str]):
    value = _pick(text, cfg, "reference", str, "auto")
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
    """Fail before a stage runs when an output's directory does not exist.

    Raised as an OSError, so it exits 1 like the failed write it prevents.
    """
    for path in paths:
        parent = Path(path).parent
        if not parent.is_dir():
            raise OSError(f"cannot write {path}: {parent} is not an existing directory")


# Stages, shared by `pipeline` and the subcommands.  Every package
# function a command runs is looked up through this module's globals: the
# names the benchmark's tracer and the tests replace.


def _run_stage(spec, run_config, operators, out):
    history = run(spec, run_config, operators)
    write_history(history, out)
    return history


def _embed_stage(history, space, max_points, profile, out):
    embedding = embed_history(history, space, max_points)
    write_embedding(embedding, profile, out)
    return embedding


def _hv_stage(history, reference, out):
    trace = hypervolume_trace(history, reference)
    write_hv_trace(trace, out)
    return trace


def _render_history_stage(embedding, scores, out) -> None:
    with open_atomic(out) as fh:
        fh.write(render_history_figure(embedding, scores))


def _render_hv_stage(trace, out) -> None:
    with open_atomic(out) as fh:
        fh.write(render_hv_figure(trace))


def cmd_run(args) -> int:
    _check_out_dirs(args.out)
    cfg = _config_of(args)
    spec, run_config, operators = _resolve_run(args, cfg)
    started = time.perf_counter()
    history = _run_stage(spec, run_config, operators, args.out)
    elapsed = time.perf_counter() - started
    print(
        f"run: {spec.name} M={spec.M} {run_config.algorithm} "
        f"pop={run_config.population_size} generations={history.n_generations} "
        f"seed={run_config.seed} wall={elapsed:.2f}s -> {args.out}"
    )
    return 0


def cmd_embed(args) -> int:
    _check_out_dirs(args.out)
    cfg = _config_of(args)
    space = _pick_space(args.space, cfg, "space")
    metric_space, max_points = _resolve_embed(args, cfg)
    history = read_history(args.history)
    _check_max_points(max_points, history.population_size)
    profile = exploration_profile(history, metric_space)
    embedding = _embed_stage(history, space, max_points, profile, args.out)
    print(
        f"embed: space={embedding.space} points={embedding.n_points} "
        f"stride={embedding.stride} -> {args.out}"
    )
    return 0


def cmd_hv(args) -> int:
    _check_out_dirs(args.out)
    cfg = _config_of(args)
    reference = _parse_reference(args.ref, cfg)
    history = read_history(args.history)
    _check_reference(reference, history.M)
    trace = _hv_stage(history, reference, args.out)
    print(f"hv: {len(trace)} generations -> {args.out}")
    return 0


def cmd_render(args) -> int:
    if not args.embedding and not args.hv_trace:
        raise ConfigError("nothing to render: pass --embedding and/or --hv-trace")
    outputs = []
    if args.embedding and args.hv_trace:
        base = args.out[:-4] if args.out.endswith(".svg") else args.out
        history_out, hv_out = f"{base}.history.svg", f"{base}.hv.svg"
    else:
        history_out = hv_out = args.out
    _check_out_dirs(history_out, hv_out)
    # Both inputs are read before either figure is written, so a bad one
    # leaves no output behind.
    if args.embedding:
        embedding, scores = read_embedding(args.embedding)
    if args.hv_trace:
        trace = read_hv_trace(args.hv_trace)
    if args.embedding:
        _render_history_stage(embedding, scores, history_out)
        outputs.append(history_out)
    if args.hv_trace:
        _render_hv_stage(trace, hv_out)
        outputs.append(hv_out)
    print(f"render: wrote {', '.join(outputs)}")
    return 0


def cmd_pipeline(args) -> int:
    # Every option is checked before optimising or creating --outdir; the
    # embed and hv stages would only meet a bad one after the run.
    cfg = _config_of(args)
    spec, run_config, operators = _resolve_run(args, cfg)
    metric_space, max_points = _resolve_embed(args, cfg)
    _check_max_points(max_points, run_config.population_size)
    reference = _parse_reference(args.ref, cfg)
    _check_reference(reference, spec.M)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    history = _run_stage(spec, run_config, operators, outdir / "history.jsonl")
    profile = exploration_profile(history, metric_space)
    for space in ("search", "objective"):
        embedding = _embed_stage(history, space, max_points, profile, outdir / f"embedding.{space}.csv")
        _render_history_stage(embedding, profile, outdir / f"figure.{space}.svg")
    trace = _hv_stage(history, reference, outdir / "hv.csv")
    _render_hv_stage(trace, outdir / "figure.hv.svg")
    elapsed = time.perf_counter() - started
    print(
        f"pipeline: {spec.name} M={spec.M} {run_config.algorithm} "
        f"generations={history.n_generations} wall={elapsed:.2f}s -> {outdir}/ (7 files)"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--problem", help="dtlz1|dtlz2|dtlz3|dtlz4|dtlz7")
    run_flags.add_argument("--objectives", type=int, help="number of objectives M (default 3)")
    run_flags.add_argument("--k", type=int, help="distance-variable count (default per problem)")
    run_flags.add_argument("--algorithm", choices=["nsga2", "nsga3"])
    run_flags.add_argument("--pop", type=int, help="population size (default from M)")
    run_flags.add_argument("--evaluations", type=int, help="evaluation budget")
    run_flags.add_argument("--seed", type=int, help="run seed (default 0)")
    run_flags.add_argument("--crossover-probability", type=float, dest="crossover_probability")
    run_flags.add_argument("--mutation-probability", type=float, dest="mutation_probability")
    run_flags.add_argument("--sbx-eta", type=float, dest="sbx_eta")
    run_flags.add_argument("--pm-eta", type=float, dest="pm_eta")
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
    p.add_argument("--space", choices=["search", "objective"])
    p.add_argument("--metric-space", choices=["search", "objective"], dest="metric_space")
    p.add_argument("--max-points", type=int, dest="max_points")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("hv", help="write a per-generation hypervolume trace CSV")
    p.add_argument("--history", required=True)
    p.add_argument("--ref", help="'auto' or comma-separated reference point")
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
    p.add_argument("--metric-space", choices=["search", "objective"], dest="metric_space")
    p.add_argument("--max-points", type=int, dest="max_points")
    p.add_argument("--ref")
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


if __name__ == "__main__":
    sys.exit(main())
