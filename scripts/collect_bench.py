#!/usr/bin/env python3
"""Collect perfbench runs into one BENCH_<n>.json.

Reads every `<work>/*/result.json` with its `manifest.json` that a
perfbench run (`perfbench/run.py`) left. Each untraced run (`--trace 0`)
gives one value of each end-to-end metric, as perfbench reports it: the
medians of its `op_s` and `setup_s` samples, and its `peak_rss_mb`. Each
traced run (`--trace 1`) gives its per-cycle `layers` metrics. For each
workload and seed the file holds the median, quartiles and count of the
untraced run values, and under `layers` the count of traced runs and the
median of each layer metric over them (a metric a run lacks counts as 0,
as perfbench reports it), next to perfbench's environment block and the
checkout's commit. `graph.candidate_pairs` and `graph.edge_yield` are
computed by `run.py` from the inputs, are not in `result.json`, and so are
not collected.

perfbench keeps one work directory per workload, seed and trace setting,
so to pool several runs, rename each run's directory before the next,
for example to `.perfbench_work/chains-cv-seed1-trace0.r2`.

Example:
  python3 perfbench/run.py --workload chains-cv --seed 1 --seconds 20 --trace 0
  python3 scripts/collect_bench.py --out BENCH_24.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("op_s", "setup_s", "peak_rss_mb")


def run_values(result: dict) -> dict:
    """One run's end-to-end metrics, as perfbench/run.py reports them."""
    return {"op_s": statistics.median(result["op_s"]),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"]}


def summary(values: list) -> dict:
    """Median, quartiles (perfbench's method) and count of the run values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git(root: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def layer_medians(layers: list) -> dict:
    """Count of traced runs and the median of each layer metric over them."""
    names = sorted(set().union(*layers))
    return {"n": len(layers),
            "median": {k: statistics.median(run.get(k, 0.0) for run in layers) for k in names}}


def collect(work: Path, root: Path) -> dict:
    runs, traced, environment = {}, {}, None
    for path in sorted(work.glob("*/result.json")):
        result = json.loads(path.read_text())
        if "setup_s" in result:
            kind, value = runs, run_values(result)
        elif "layers" in result:        # a traced run reports no setup samples
            kind, value = traced, result["layers"]
        else:
            continue
        manifest = json.loads((path.parent / "manifest.json").read_text())
        env = {k: v for k, v in result["environment"].items() if k != "seed"}
        if environment is None:
            environment = env
        elif env != environment:
            raise SystemExit(f"{path}: environment differs from the other runs")
        kind.setdefault((manifest["workload"], manifest["seed"]), []).append(value)
    if not runs and not traced:
        raise SystemExit(f"no perfbench results under {work}")
    workloads = {}
    for (workload, seed), values in sorted(runs.items()):
        workloads.setdefault(workload, {})[str(seed)] = {
            m: summary([v[m] for v in values]) for m in METRICS}
    for (workload, seed), layers in sorted(traced.items()):
        workloads.setdefault(workload, {}).setdefault(str(seed), {})["layers"] = layer_medians(layers)
    return {
        "commit": git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "environment": environment,
        "workloads": workloads,
    }


def main() -> int:
    root = Path.cwd()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", type=Path, default=root / ".perfbench_work",
                    help="perfbench's work directory")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args()
    args.out.write_text(json.dumps(collect(args.work, root), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
