"""Self-test of the benchmark: each workload's code path once, at a tiny budget.

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced measurement at a
budget of three generations and checks:

- the result has exactly the keys correct, attempted, failed and
  metrics, with the metric names and units of BENCHMARK.json, every value a finite number
  and no run failed;
- the traced stage spans plus ``cli.self_s`` and ``cli.startup_s`` add up
  to ``trace.wall_s``, and the layer counters agree with the budget;
- the output checks catch broken artifacts: a truncated hv trace, a
  malformed SVG, a missing file and changed bytes each fail a repetition;
- bench.py refuses to run, without printing a result, from a directory
  holding only the benchmark.

Exits 0 when everything holds; prints each failure and exits 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import bench

SMOKE_GENERATIONS = 3
# Three generations do not converge; the limit only has to pass.
SMOKE_RESIDUAL_LIMIT = 1.0

STAGE_METRICS = (
    "optimizer.run_s",
    "emit.write_history_s",
    "emit.read_history_s",
    "metrics.profile_s",
    "embedding.embed_search_s",
    "embedding.embed_objective_s",
    "emit.write_csv_s",
    "emit.read_csv_s",
    "metrics.hv_trace_s",
    "emit.render_s",
)

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def check_result(workload, trace: bool, record: dict, declared: dict) -> None:
    name = f"{workload.name} trace={int(trace)}"
    result = record["result"]
    expect(list(result) == ["correct", "attempted", "failed", "metrics"], f"{name}: result keys {list(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name}: runs failed: {[r.get('error') for r in record['reps']]}")
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{name}: metrics {got} differ from BENCHMARK.json {wanted}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()),
           f"{name}: non-numeric or non-finite values {values}")
    if not trace:
        expect(all(v > 0 for v in values.values()), f"{name}: end-to-end metric reads 0: {values}")
        return
    pop = workload.pop
    expect(values["optimizer.generations"] == SMOKE_GENERATIONS, f"{name}: generations {values['optimizer.generations']}")
    expect(values["problems.rows_evaluated"] == SMOKE_GENERATIONS * pop, f"{name}: rows {values['problems.rows_evaluated']}")
    expect(values["optimizer.select_calls"] == SMOKE_GENERATIONS - 1, f"{name}: select calls {values['optimizer.select_calls']}")
    hv_calls = SMOKE_GENERATIONS if workload.kind == "pipeline" else 0
    expect(values["metrics.hv_calls"] == hv_calls, f"{name}: hv calls {values['metrics.hv_calls']}")
    expect(0 < values["optimizer.offspring_kept_ratio"] <= 1, f"{name}: kept ratio {values['optimizer.offspring_kept_ratio']}")
    parts = sum(values[k] for k in STAGE_METRICS) + values["cli.self_s"] + values["cli.startup_s"]
    expect(math.isclose(parts, values["trace.wall_s"], rel_tol=1e-9),
           f"{name}: stages + cli.self_s + cli.startup_s = {parts}, trace.wall_s = {values['trace.wall_s']}")
    expect(0 <= values["cli.self_s"] < 0.1 * values["trace.wall_s"], f"{name}: cli.self_s {values['cli.self_s']}")
    expect(values["optimizer.peak_alloc_mb"] > 0 and values["embedding.peak_alloc_mb"] > 0,
           f"{name}: peak allocations not measured")


def tamper(out, how: str) -> None:
    if how == "truncated hv trace":
        path = out / "hv.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    elif how == "malformed svg":
        path = out / "figure.search.svg"
        path.write_text(path.read_text()[:-10])
    elif how == "missing file":
        (out / "embedding.search.csv").unlink()
    elif how == "changed bytes":
        # Still well-formed: only the byte-identity check can catch it.
        path = out / "figure.search.svg"
        path.write_text(path.read_text().replace("</svg>", "<!-- changed --></svg>"))


def check_tampering(workload) -> None:
    """Each kind of damage must fail its repetition and only that one."""
    evaluations = SMOKE_GENERATIONS * workload.pop
    shutil.rmtree(bench.WORK, ignore_errors=True)
    bench.WORK.mkdir(parents=True)
    try:
        kinds = ["malformed svg", "missing file", "changed bytes"]
        if workload.kind == "pipeline":
            kinds.append("truncated hv trace")
        reps = [bench.run_rep(workload, 1, evaluations, bench.WORK / f"rep{i}", "plain") for i in range(len(kinds) + 2)]
        for rep, how in zip(reps, kinds):
            tamper(rep.out, how)
        bench.check_reps(workload, evaluations, SMOKE_RESIDUAL_LIMIT, reps)
        for rep, how in zip(reps, kinds):
            expect(not rep.ok, f"{workload.name}: {how} was not detected")
        expect(all(rep.ok for rep in reps[len(kinds):]), f"{workload.name}: an intact repetition failed")
    finally:
        shutil.rmtree(bench.WORK, ignore_errors=True)


def check_refuses_without_sources() -> None:
    """From a directory holding only the benchmark, bench.py must exit non-zero."""
    bare = bench.ROOT / ".bench_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.HERE, bare / bench.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{bench.HERE.name}/bench.py", "--workload", "dtlz2-m3-pipeline",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    started = time.perf_counter()
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in declared["workloads"]) == sorted(bench.WORKLOADS),
           "BENCHMARK.json workloads differ from bench.WORKLOADS")
    for workload in bench.WORKLOADS.values():
        for trace in (False, True):
            record = bench.bench(workload, 1, 0.1, trace, SMOKE_GENERATIONS * workload.pop, SMOKE_RESIDUAL_LIMIT)
            check_result(workload, trace, record, declared)
        check_tampering(workload)
        print(f"ok {workload.name}", flush=True)
    check_refuses_without_sources()
    print(f"{'FAILED' if failures else 'passed'} in {time.perf_counter() - started:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
