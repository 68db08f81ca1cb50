"""Run one evohist CLI command in-process, with spans around every layer.

    python3 perfbench/traced.py SPANS.json [--alloc] -- <evohist arguments>

The program's public functions are wrapped at the names their callers
look them up under (``evohist.cli.hypervolume_trace`` for the CLI stage,
``evohist.metrics.hypervolume_exact`` for its per-generation calls, and
so on), so no file of the program changes.  Spans (id, parent id, name,
start, end) and counters are kept in memory and written to SPANS.json
once, after ``evohist.cli.main`` returns.  The process exits with the
CLI's own exit code.

With ``--alloc`` only the optimiser and embedding stages are wrapped, and
each runs under tracemalloc; their peak allocation is recorded instead of
times, so that allocation tracking never skews the span times.
"""

from __future__ import annotations

import json
import os
import sys
import tracemalloc
from functools import wraps
from time import perf_counter

import numpy as np

import evohist.cli
import evohist.embedding
import evohist.metrics
import evohist.optimizer
from evohist.core import non_dominated_subset
from evohist.embedding import as_space


class Tracer:
    """In-memory span recorder; each wrapped call becomes one span."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = {}
        self.hv_inputs: list[tuple[np.ndarray, np.ndarray]] = []
        self.alloc_peak_bytes: dict[str, int] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, module, attr: str, name, observe=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``name`` is the span name, or a function of the call's arguments
        returning it; ``observe(args, result)`` updates counters after
        the span has closed, so its cost is not charged to the layer.
        """
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, parent, name if isinstance(name, str) else name(args), start, end)
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, wrapper)

    def wrap_alloc(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a wrapper that records its tracemalloc peak."""
        fn = getattr(module, attr)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak_bytes[name] = max(self.alloc_peak_bytes.get(name, 0), peak)

        setattr(module, attr, wrapper)

    def hv_front_sizes(self) -> list[int]:
        """Non-dominated members inside the reference box, per hv call."""
        sizes = []
        for front, reference in self.hv_inputs:
            inside = front[(front < reference).all(axis=1)]
            sizes.append(len(non_dominated_subset(inside)) if len(inside) else 0)
        return sizes


def _embed_name(args) -> str:
    return f"embedding.embed_{as_space(args[1]).value}"


def install(tracer: Tracer) -> None:
    cli, metrics, embedding, optimizer = evohist.cli, evohist.metrics, evohist.embedding, evohist.optimizer
    add = tracer.add

    def on_run(args, history):
        add("optimizer.generations", history.n_generations)
        add("optimizer.evaluations", history.n_generations * history.population_size)

    def on_write_history(args, result):
        add("emit.history_bytes", os.path.getsize(args[1]))

    def on_read_history(args, result):
        add("emit.history_read_bytes", os.path.getsize(args[0]))

    def on_embed(args, result):
        tracer.peak("embedding.points", result.n_points)
        tracer.peak("embedding.stride", result.stride)

    def on_svg(args, document):
        add("emit.svg_bytes", len(document.encode("utf-8")))

    def on_hv(args, result):
        tracer.hv_inputs.append((np.array(args[0], dtype=float), np.array(args[1], dtype=float)))

    def on_evaluate(args, result):
        add("problems.rows_evaluated", len(result))

    def on_select(args, keep):
        # The pool is parents then offspring, each half of the rows.
        parents = len(args[0]) // 2
        add("optimizer.survivors", len(keep))
        add("optimizer.offspring_kept", sum(1 for i in keep if i >= parents))

    # Stages, as cli looks them up.
    tracer.wrap(cli, "run", "optimizer.run", on_run)
    tracer.wrap(cli, "write_history", "emit.write_history", on_write_history)
    tracer.wrap(cli, "read_history", "emit.read_history", on_read_history)
    tracer.wrap(cli, "exploration_profile", "metrics.exploration_profile")
    tracer.wrap(cli, "embed_history", _embed_name, on_embed)
    tracer.wrap(cli, "write_embedding", "emit.write_embedding")
    tracer.wrap(cli, "read_embedding", "emit.read_embedding")
    tracer.wrap(cli, "hypervolume_trace", "metrics.hypervolume_trace")
    tracer.wrap(cli, "write_hv_trace", "emit.write_hv_trace")
    tracer.wrap(cli, "read_hv_trace", "emit.read_hv_trace")
    tracer.wrap(cli, "render_history_figure", "emit.render_history_figure", on_svg)
    tracer.wrap(cli, "render_hv_figure", "emit.render_hv_figure", on_svg)
    # Calls inside the stages, as their own modules look them up.
    tracer.wrap(metrics, "hypervolume_exact", "metrics.hypervolume_exact", on_hv)
    tracer.wrap(metrics, "nearest_neighbour_distances", "metrics.nearest_neighbour_distances")
    tracer.wrap(embedding, "pairwise_sq_distances", "embedding.pairwise_sq_distances")
    tracer.wrap(embedding, "classical_mds", "embedding.classical_mds")
    tracer.wrap(optimizer, "evaluate_batch", "problems.evaluate_batch", on_evaluate)
    tracer.wrap(optimizer, "sbx_crossover", "optimizer.sbx_crossover")
    tracer.wrap(optimizer, "polynomial_mutation", "optimizer.polynomial_mutation")
    tracer.wrap(optimizer, "nsga2_select", "optimizer.select", on_select)
    tracer.wrap(optimizer, "nsga3_select", "optimizer.select", on_select)
    tracer.wrap(optimizer, "fast_nondominated_sort", "optimizer.fast_nondominated_sort")


def install_alloc(tracer: Tracer) -> None:
    tracer.wrap_alloc(evohist.cli, "run", "optimizer.run")
    tracer.wrap_alloc(evohist.cli, "embed_history", "embedding.embed_history")


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    out, options, cli_args = argv[0], argv[1:split], argv[split + 1:]
    alloc = "--alloc" in options
    tracer = Tracer()
    (install_alloc if alloc else install)(tracer)
    tracer.wrap(evohist.cli, "main", "cli.main")
    code = evohist.cli.main(cli_args)
    record = {
        "spans": tracer.spans,
        "counts": tracer.counts,
        "hv_front_sizes": tracer.hv_front_sizes(),
        "alloc_peak_bytes": tracer.alloc_peak_bytes,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
