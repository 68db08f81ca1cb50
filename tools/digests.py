"""Print a sha256 digest of every artifact the benchmark workloads write.

    python3 tools/digests.py --seeds 42000 7000 [--evaluations N]

For each workload named in BENCHMARK.json and each program seed, runs the
workload's commands, taken from ``WORKLOADS`` in perfbench/bench.py, as
``python -m evohist.cli`` children on this checkout's ``src``, in a
temporary directory.  Prints one ``<sha256>  <workload>/<seed>/<file>``
line per artifact, in workload, seed and file order, so the output of two
checkouts can be compared with ``diff``.  ``--evaluations`` replaces every
workload's evaluation budget, for a quick run.  Standard library only;
exits 1 if a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # no __pycache__ beside bench.py

import bench  # noqa: E402  (perfbench/bench.py, found through the path entry above)


def digests(seeds: list[int], evaluations: int | None = None) -> list[str]:
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workload = bench.WORKLOADS[name]
            for seed in seeds:
                out = Path(tmp, name, str(seed))
                out.mkdir(parents=True)
                for args in workload.commands(out, seed, evaluations or workload.evaluations):
                    subprocess.run(bench.cli_argv(args), cwd=ROOT, env=bench.child_env(), check=True,
                                   stdout=subprocess.DEVNULL)
                for file in workload.files():
                    lines.append(f"{hashlib.sha256((out / file).read_bytes()).hexdigest()}  {name}/{seed}/{file}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="program seeds")
    parser.add_argument("--evaluations", type=int, help="evaluation budget for every workload (default: its own)")
    args = parser.parse_args(argv)
    try:
        lines = digests(args.seeds, args.evaluations)
    except subprocess.CalledProcessError as exc:
        print(f"error: evohist {' '.join(exc.cmd[3:])} exited {exc.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
