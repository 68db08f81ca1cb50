"""Check the artifacts of benchmark repetitions; one process checks them all.

    python3 perfbench/check.py SPEC_JSON REPORT.json DIR...

SPEC_JSON gives the expected file names, generation and point counts,
population, objective count, the convergence limit and whether the
hypervolume cross-check applies.  For each DIR the report lists the
errors found (empty when every check passes) and the sha256 of every
file; it also records the library versions the checks ran with.
"""

from __future__ import annotations

import hashlib
import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import scipy

from evohist import (
    front_residual,
    hypervolume_mc,
    make_spec,
    non_dominated_subset,
    read_embedding,
    read_history,
    read_hv_trace,
)
from evohist.metrics import auto_reference

MC_SAMPLES = 200_000
MC_SEED = 20_200_612


def final_residual(history) -> float:
    """Median front residual of the final generation's non-dominated members."""
    spec = make_spec(history.problem, history.M)
    y = history.generations[-1].y
    return float(np.median([front_residual(spec, row) for row in y[non_dominated_subset(y)]]))


def mc_disagreement(history, exact: float) -> str:
    """Cross-check the final exact hv against a fixed-seed Monte Carlo estimate."""
    rng = np.random.Generator(np.random.PCG64(MC_SEED))
    estimate, std_error = hypervolume_mc(history.generations[-1].y, auto_reference(history), MC_SAMPLES, rng)
    if abs(estimate - exact) <= max(3.0 * std_error, 0.01 * exact):
        return ""
    return f"final hv {exact!r} disagrees with Monte Carlo {estimate!r} (se {std_error!r})"


def check_dir(out: Path, spec: dict, mc_cache: dict) -> tuple[list[str], dict]:
    errors: list[str] = []
    names = sorted(p.name for p in out.iterdir())
    if names != sorted(spec["files"]):
        return [f"file inventory {names}, expected {sorted(spec['files'])}"], {}
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}

    history = read_history(out / "history.jsonl")
    if history.n_generations != spec["generations"]:
        errors.append(f"history has {history.n_generations} generations, expected {spec['generations']}")
    if history.population_size != spec["pop"] or history.M != spec["objectives"]:
        errors.append(f"history has pop {history.population_size} and M {history.M}, "
                      f"expected {spec['pop']} and {spec['objectives']}")
    residual = final_residual(history)
    if not residual < spec["residual_limit"]:
        errors.append(f"final median front residual {residual:.4f} not under {spec['residual_limit']}")

    for name in names:
        path = out / name
        if name.startswith("embedding."):
            embedding, scores = read_embedding(path)
            if embedding.n_points != spec["points"] or scores.shape != (spec["points"],):
                errors.append(f"{name} has {embedding.n_points} points, expected {spec['points']}")
        elif name.endswith(".svg"):
            try:
                ET.parse(path)
            except ET.ParseError as exc:
                errors.append(f"{name} is not well-formed XML: {exc}")
        elif name == "hv.csv":
            trace = read_hv_trace(path)
            if len(trace) != spec["generations"]:
                errors.append(f"hv.csv has {len(trace)} rows, expected {spec['generations']}")
            elif spec["mc_check"]:
                key = (digests["history.jsonl"], digests["hv.csv"])
                if key not in mc_cache:
                    mc_cache[key] = mc_disagreement(history, float(trace.values[-1]))
                if mc_cache[key]:
                    errors.append(mc_cache[key])
    return errors, digests


def main() -> int:
    spec = json.loads(sys.argv[1])
    report_path = Path(sys.argv[2])
    mc_cache: dict = {}
    dirs = {}
    for arg in sys.argv[3:]:
        try:
            errors, digests = check_dir(Path(arg), spec, mc_cache)
        except (ValueError, OSError) as exc:
            # evohist's format and contract errors are ValueErrors.
            errors, digests = [f"{type(exc).__name__}: {exc}"], {}
        dirs[arg] = {"errors": errors, "digests": digests}
    report = {"dirs": dirs, "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
