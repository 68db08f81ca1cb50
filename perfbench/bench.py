"""Benchmark for evohist: end-to-end CLI timings and a traced per-layer pass.

Run from anywhere inside a source checkout (it locates the checkout from
its own path and imports the program only from ``src/``):

    python3 perfbench/bench.py --workload dtlz2-m3-pipeline --seed 42 --seconds 35 --trace 0

``--trace 0`` spawns the workload's ``evohist`` commands as child
processes, one at a time, repeatedly for ``--seconds`` seconds, and
reports the end-to-end metrics as medians over those repetitions.
``--trace 1`` alternates untraced repetitions with traced ones (the same
commands run in-process by ``traced.py``, with spans around every layer)
and ends with one allocation-tracking repetition; it reports the
per-layer metrics.  Every repetition's artifacts are checked by
``check.py`` after the timed loop; a repetition that exits non-zero or
fails any check counts as failed.

bench.py itself uses only the standard library and never imports the
program, so it starts no threads and runs at most one child at a time.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Repetition i of a run passes program seed SEED_STRIDE * seed + i, so a
# run's median covers several inputs and no two benchmark seeds share one.
SEED_STRIDE = 1000
# A child that runs longer than this is killed and the run aborts without
# a result; a repetition normally takes seconds.
CHILD_TIMEOUT_S = 120
# Children run single-threaded BLAS.  With a thread per core, a child's
# wall and CPU time depend on whether other load holds the second core,
# which made both spread two to three times wider across runs.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
PIPELINE_FILES = (
    "history.jsonl",
    "embedding.search.csv",
    "embedding.objective.csv",
    "hv.csv",
    "figure.search.svg",
    "figure.objective.svg",
    "figure.hv.svg",
)
RUN_EMBED_FILES = ("history.jsonl", "embedding.search.csv", "figure.search.svg")
DEFAULT_MAX_POINTS = 10_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed evohist configuration and its checks.

    ``pop`` is the population the program must use; it is passed on the
    command line only when ``pass_pop`` is set, so the NSGA-III workloads
    exercise the program's own default population size.
    """

    name: str
    kind: str  # "pipeline" or "run-embed"
    objectives: int
    pop: int
    pass_pop: bool
    evaluations: int
    max_points: int
    residual_limit: float

    def commands(self, out: Path, seed: int, evaluations: int) -> list[list[str]]:
        shape = ["--problem", "dtlz2", "--objectives", str(self.objectives)]
        if self.pass_pop:
            shape += ["--pop", str(self.pop)]
        shape += ["--evaluations", str(evaluations), "--seed", str(seed)]
        points = [] if self.max_points == DEFAULT_MAX_POINTS else ["--max-points", str(self.max_points)]
        if self.kind == "pipeline":
            return [["pipeline", *shape, *points, "--outdir", str(out)]]
        history = out / "history.jsonl"
        embedding = out / "embedding.search.csv"
        return [
            ["run", *shape, "--out", str(history)],
            ["embed", "--history", str(history), *points, "--out", str(embedding)],
            ["render", "--embedding", str(embedding), "--out", str(out / "figure.search.svg")],
        ]

    def files(self) -> tuple[str, ...]:
        return PIPELINE_FILES if self.kind == "pipeline" else RUN_EMBED_FILES

    def expected(self, evaluations: int) -> dict:
        """Generation and embedded-point counts the README's rules imply."""
        generations = -(-evaluations // self.pop)
        cap = self.max_points // self.pop
        stride = -(-generations // cap)
        points = -(-generations // stride) * self.pop
        return {"generations": generations, "points": points, "pop": self.pop}


# Budgets are sized so that one repetition takes a few seconds on a
# 2-core machine: a 35-second run then holds several repetitions, and
# ten runs per workload on each of two commits fit in under an hour.
# Each keeps the stage mix its name promises (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        # NSGA-II variation loop, M=3 exact hv, two MDS embeddings, history write.
        Workload("dtlz2-m3-pipeline", "pipeline", 3, 92, True, 9_200, 4_000, 0.1),
        # The >=4-D hv recursion dominates; run and embed stay small.
        Workload("dtlz2-m4-pipeline", "pipeline", 4, 168, False, 1_344, DEFAULT_MAX_POINTS, 0.85),
        # No hv at all; NSGA-III sort/niching, history written then read
        # back by a second process, three CLI start-ups.
        Workload("dtlz2-m5-run-embed", "run-embed", 5, 212, False, 12_720, 4_000, 0.5),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}

PER_LAYER_UNITS = {
    "metrics.hv_trace_s": "s",
    "metrics.hv_calls": "count",
    "metrics.hv_gen_ms_p50": "ms",
    "metrics.hv_gen_ms_max": "ms",
    "metrics.hv_front_size_mean": "count",
    "metrics.profile_s": "s",
    "metrics.nn_calls": "count",
    "embedding.embed_search_s": "s",
    "embedding.embed_objective_s": "s",
    "embedding.distances_s": "s",
    "embedding.mds_s": "s",
    "embedding.points": "count",
    "embedding.stride": "count",
    "embedding.peak_alloc_mb": "MB",
    "optimizer.run_s": "s",
    "optimizer.generations": "count",
    "optimizer.evaluations": "count",
    "optimizer.variation_s": "s",
    "optimizer.variation_calls": "count",
    "optimizer.select_s": "s",
    "optimizer.select_calls": "count",
    "optimizer.sort_s": "s",
    "optimizer.sort_calls": "count",
    "optimizer.offspring_kept_ratio": "ratio",
    "optimizer.peak_alloc_mb": "MB",
    "problems.evaluate_s": "s",
    "problems.evaluate_calls": "count",
    "problems.rows_evaluated": "count",
    "emit.write_history_s": "s",
    "emit.history_mb": "MB",
    "emit.write_history_mb_per_s": "MB/s",
    "emit.read_history_s": "s",
    "emit.read_history_mb_per_s": "MB/s",
    "emit.write_csv_s": "s",
    "emit.read_csv_s": "s",
    "emit.render_s": "s",
    "emit.svg_kb": "KB",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

MB = 2**20


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout(f"a child ran longer than {CHILD_TIMEOUT_S} s")


def child_env() -> dict:
    env = dict(os.environ, **dict.fromkeys(BLAS_ENV, "1"))
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    code: int
    wall: float
    cpu: float
    maxrss_mb: float


def spawn(argv: list[str], log: Path) -> ChildResult:
    """Run one child to completion and return its exit code and resource use.

    The child is reaped with wait4 so that its own CPU time and peak RSS
    are read without mixing in other children.  On timeout or any
    interruption it is killed and reaped before the exception propagates.
    """
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return ChildResult(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "evohist.cli", *args]


def traced_argv(args: list[str], spans: Path, alloc: bool) -> list[str]:
    mode = ["--alloc"] if alloc else []
    return [sys.executable, str(HERE / "traced.py"), str(spans), *mode, "--", *args]


@dataclass
class Rep:
    """One execution of a workload's commands into its own directory."""

    kind: str  # "plain", "traced" or "alloc"
    seed: int
    out: Path
    ok: bool
    wall: float
    cpu: float
    maxrss_mb: float
    artifact_mb: float
    span_files: list[Path]
    error: str = ""


def run_rep(workload: Workload, seed: int, evaluations: int, out: Path, kind: str) -> Rep:
    out.mkdir(parents=True)
    log = out.with_suffix(".log")
    span_files: list[Path] = []
    wall = cpu = rss = 0.0
    error = ""
    for i, args in enumerate(workload.commands(out, seed, evaluations)):
        if kind == "plain":
            argv = cli_argv(args)
        else:
            span_files.append(out.with_name(f"{out.name}.spans{i}.json"))
            argv = traced_argv(args, span_files[-1], kind == "alloc")
        result = spawn(argv, log)
        wall += result.wall
        cpu += result.cpu
        rss = max(rss, result.maxrss_mb)
        if result.code != 0:
            error = f"{args[0]} exited {result.code}: {log.read_text(errors='replace')[-500:]}"
            break
    size = sum(p.stat().st_size for p in out.iterdir()) / MB
    return Rep(kind, seed, out, not error, wall, cpu, rss, size, span_files, error)


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports the CLI and prints its help."""
    log = WORK / "setup.log"
    result = spawn(cli_argv(["--help"]), log)
    if result.code != 0:
        raise RuntimeError(f"evohist --help exited {result.code}: {log.read_text(errors='replace')[-500:]}")
    return result.wall


def check_reps(workload: Workload, evaluations: int, residual_limit: float, reps: list[Rep]) -> dict:
    """Run check.py on every repetition that exited cleanly; mark failures in place.

    Besides each directory's own checks, all repetitions at one program
    seed must produce byte-identical artifacts: any repetition whose
    digests differ from the most common set at its seed fails.  Returns
    the digests per program seed and the library versions.
    """
    spec = {
        "files": list(workload.files()),
        "objectives": workload.objectives,
        "residual_limit": residual_limit,
        "mc_check": workload.kind == "pipeline",
        **workload.expected(evaluations),
    }
    dirs = [str(rep.out) for rep in reps if rep.ok]
    report_path = WORK / "check.json"
    argv = [sys.executable, str(HERE / "check.py"), json.dumps(spec), str(report_path), *dirs]
    result = spawn(argv, WORK / "check.log")
    if result.code != 0:
        raise RuntimeError(f"check.py exited {result.code}: {(WORK / 'check.log').read_text(errors='replace')[-800:]}")
    report = json.loads(report_path.read_text())
    by_dir = report["dirs"]
    digests = {rep.out: json.dumps(by_dir[str(rep.out)]["digests"], sort_keys=True) for rep in reps if rep.ok}
    common = {}
    for seed in {rep.seed for rep in reps if rep.ok}:
        sets = [digests[rep.out] for rep in reps if rep.ok and rep.seed == seed]
        common[seed] = max(set(sets), key=sets.count)
    for rep in reps:
        if not rep.ok:
            continue
        errors = list(by_dir[str(rep.out)]["errors"])
        if digests[rep.out] != common[rep.seed]:
            errors.append("artifact bytes differ from another repetition at this program seed")
        if errors:
            rep.ok = False
            rep.error = "; ".join(errors)
    return {"digests": {seed: json.loads(d) for seed, d in sorted(common.items())}, "versions": report["versions"]}


def provenance(seed: int, versions: dict) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    return {
        "seed": seed,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "child_blas_env": {key: child_env()[key] for key in BLAS_ENV},
    }


# ---------------------------------------------------------------- per-layer


def load_spans(rep: Rep) -> list[dict]:
    return [json.loads(path.read_text()) for path in rep.span_files]


def layer_metrics(traces: list[dict], wall: float) -> dict:
    """Per-layer metrics of one traced repetition (one trace per CLI command)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    main_s = self_s = 0.0
    hv_front_sizes: list[int] = []
    for trace in traces:
        spans = trace["spans"]
        child_time: dict[int, float] = {}
        for span_id, parent, name, start, end in spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(dur)
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + dur
        for span_id, parent, name, start, end in spans:
            if name == "cli.main":
                main_s += end - start
                self_s += end - start - child_time.get(span_id, 0.0)
        for key, value in trace["counts"].items():
            if key in ("embedding.points", "embedding.stride"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        hv_front_sizes += trace["hv_front_sizes"]

    def s(name):
        return total.get(name, 0.0)

    hv_ms = [1000 * d for d in durations.get("metrics.hypervolume_exact", [])]
    history_mb = counts.get("emit.history_bytes", 0) / MB
    read_mb = counts.get("emit.history_read_bytes", 0) / MB
    survivors = counts.get("optimizer.survivors", 0)
    return {
        "metrics.hv_trace_s": s("metrics.hypervolume_trace"),
        "metrics.hv_calls": calls.get("metrics.hypervolume_exact", 0),
        "metrics.hv_gen_ms_p50": statistics.median(hv_ms) if hv_ms else 0.0,
        "metrics.hv_gen_ms_max": max(hv_ms) if hv_ms else 0.0,
        "metrics.hv_front_size_mean": statistics.fmean(hv_front_sizes) if hv_front_sizes else 0.0,
        "metrics.profile_s": s("metrics.exploration_profile"),
        "metrics.nn_calls": calls.get("metrics.nearest_neighbour_distances", 0),
        "embedding.embed_search_s": s("embedding.embed_search"),
        "embedding.embed_objective_s": s("embedding.embed_objective"),
        "embedding.distances_s": s("embedding.pairwise_sq_distances"),
        "embedding.mds_s": s("embedding.classical_mds"),
        "embedding.points": counts.get("embedding.points", 0),
        "embedding.stride": counts.get("embedding.stride", 0),
        "optimizer.run_s": s("optimizer.run"),
        "optimizer.generations": counts.get("optimizer.generations", 0),
        "optimizer.evaluations": counts.get("optimizer.evaluations", 0),
        "optimizer.variation_s": s("optimizer.sbx_crossover") + s("optimizer.polynomial_mutation"),
        "optimizer.variation_calls": calls.get("optimizer.sbx_crossover", 0)
        + calls.get("optimizer.polynomial_mutation", 0),
        "optimizer.select_s": s("optimizer.select"),
        "optimizer.select_calls": calls.get("optimizer.select", 0),
        "optimizer.sort_s": s("optimizer.fast_nondominated_sort"),
        "optimizer.sort_calls": calls.get("optimizer.fast_nondominated_sort", 0),
        "optimizer.offspring_kept_ratio": counts.get("optimizer.offspring_kept", 0) / survivors if survivors else 0.0,
        "problems.evaluate_s": s("problems.evaluate_batch"),
        "problems.evaluate_calls": calls.get("problems.evaluate_batch", 0),
        "problems.rows_evaluated": counts.get("problems.rows_evaluated", 0),
        "emit.write_history_s": s("emit.write_history"),
        "emit.history_mb": history_mb,
        "emit.write_history_mb_per_s": history_mb / s("emit.write_history") if s("emit.write_history") else 0.0,
        "emit.read_history_s": s("emit.read_history"),
        "emit.read_history_mb_per_s": read_mb / s("emit.read_history") if s("emit.read_history") else 0.0,
        "emit.write_csv_s": s("emit.write_embedding") + s("emit.write_hv_trace"),
        "emit.read_csv_s": s("emit.read_embedding") + s("emit.read_hv_trace"),
        "emit.render_s": s("emit.render_history_figure") + s("emit.render_hv_figure"),
        "emit.svg_kb": counts.get("emit.svg_bytes", 0) / 1024,
        "cli.self_s": self_s,
        "cli.startup_s": wall - main_s,
        "trace.wall_s": wall,
    }


def alloc_metrics(traces: list[dict]) -> dict:
    peaks: dict[str, int] = {}
    for trace in traces:
        for name, peak in trace["alloc_peak_bytes"].items():
            peaks[name] = max(peaks.get(name, 0), peak)
    return {
        "embedding.peak_alloc_mb": peaks.get("embedding.embed_history", 0) / MB,
        "optimizer.peak_alloc_mb": peaks.get("optimizer.run", 0) / MB,
    }


# ---------------------------------------------------------------- runs


def _median(values):
    return statistics.median(values) if values else 0.0


def bench(workload: Workload, seed: int, seconds: float, trace: bool,
          evaluations: int | None = None, residual_limit: float | None = None) -> dict:
    """Measure one workload at one benchmark seed; returns the result record.

    Repetition i runs the workload at program seed ``SEED_STRIDE * seed +
    i``, so the medians cover several inputs; the run ends by repeating
    the first program seed, which the byte-identity check compares.  An
    untraced run times one CLI set-up before each repetition.  A traced
    run times an untraced and a traced repetition at each program seed,
    then one allocation-tracking repetition.  ``evaluations`` and
    ``residual_limit`` override the workload's budget and convergence
    limit (smoke.py uses a tiny budget).
    """
    evaluations = evaluations or workload.evaluations
    residual_limit = workload.residual_limit if residual_limit is None else residual_limit
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    reps: list[Rep] = []
    setup: list[float] = []

    def rep(kind: str, i: int) -> None:
        reps.append(run_rep(workload, SEED_STRIDE * seed + i, evaluations, WORK / f"rep{len(reps):03d}", kind))

    def walls(kind: str) -> float:
        return _median([r.wall for r in reps if r.kind == kind])

    try:
        started = time.perf_counter()
        i = 0
        if not trace:
            while True:
                setup.append(measure_setup())
                rep("plain", i)
                i += 1
                # Leave room for the closing repeat of the first seed.
                if time.perf_counter() - started + 2 * (_median(setup) + walls("plain")) > seconds:
                    break
            rep("plain", 0)
        else:
            while True:
                rep("plain", i)
                rep("traced", i)
                i += 1
                # Leave room for the allocation pass, which runs slower.
                if time.perf_counter() - started + walls("plain") + 3 * walls("traced") > seconds:
                    break
            rep("alloc", 0)
        checked = check_reps(workload, evaluations, residual_limit, reps)

        attempted, failed = len(reps), sum(not r.ok for r in reps)
        ok = [r for r in reps if r.ok]
        if not trace:
            plain = ok or reps
            values = {
                "wall_s": _median([r.wall for r in plain]),
                "cpu_s": _median([r.cpu for r in plain]),
                "setup_s": _median(setup),
                "peak_rss_mb": _median([r.maxrss_mb for r in plain]),
                "artifact_mb": _median([r.artifact_mb for r in plain]),
            }
            units = END_TO_END_UNITS
        else:
            values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
            traced = [r for r in ok if r.kind == "traced"]
            if traced:
                per_rep = [layer_metrics(load_spans(r), r.wall) for r in traced]
                for key in per_rep[0]:
                    values[key] = _median([m[key] for m in per_rep])
                plain_wall = _median([r.wall for r in ok if r.kind == "plain"])
                values["trace.overhead_s"] = values["trace.wall_s"] - plain_wall
            for r in ok:
                if r.kind == "alloc":
                    values.update(alloc_metrics(load_spans(r)))
            units = PER_LAYER_UNITS
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    return {
        "workload": workload.name,
        "evaluations": evaluations,
        "trace": int(trace),
        "provenance": provenance(seed, checked["versions"]),
        "digests": checked["digests"],
        "reps": [
            {"kind": r.kind, "seed": r.seed, "ok": r.ok, "wall_s": r.wall, "cpu_s": r.cpu, "peak_rss_mb": r.maxrss_mb,
             "artifact_mb": r.artifact_mb, **({"error": r.error} if r.error else {})}
            for r in reps
        ],
        "setup_samples_s": setup,
        "fail_ratio": failed / attempted,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def report(record: dict) -> None:
    """Print the record for people, then the result as the last line."""
    print(f"workload {record['workload']} evaluations={record['evaluations']} trace={record['trace']}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for seed, digests in record["digests"].items():
        print(f"digests at program seed {seed}: " + json.dumps(digests, sort_keys=True))
    for i, rep in enumerate(record["reps"]):
        line = (f"  rep {i:2d} {rep['kind']:6s} seed={rep['seed']} ok={rep['ok']!s:5s} wall={rep['wall_s']:.3f}s "
                f"cpu={rep['cpu_s']:.3f}s rss={rep['peak_rss_mb']:.1f}MB")
        print(line + (f"  {rep['error']}" if "error" in rep else ""))
    result = record["result"]
    print(f"  {'fail_ratio':32s} {record['fail_ratio']:.4f} ratio "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)


def _on_term(signum, frame):
    # Unwinds through spawn(), which kills and reaps the running child.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_term)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=42, help="benchmark seed, a non-negative integer")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "evohist" / "cli.py").is_file():
        print(f"error: no evohist sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            record = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except (ChildTimeout, RuntimeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
