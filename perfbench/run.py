#!/usr/bin/env python3
"""sdakit benchmark: three workloads, end-to-end metrics, traced per-layer split.

Run from the root of a checkout:

  python3 perfbench/run.py --workload fp-knn --seed 1 --seconds 20 --trace 0

The script generates the workload's inputs from --seed with its own code
(workloads.py), computes what the checks compare against (the exact
Tanimoto graph for the graph-building workloads), then starts client.py,
the single closed-loop client process that runs the program and is
measured. It prints a few readable lines and, last, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (op_s, setup_s, peak_rss_mb),
--trace 1 the per-layer metrics. Work files go to .perfbench_work/ in
the checkout; only the manifest, the result, the span log and the
program's log stay after the run. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CLIENT_TIMEOUT_S = 150   # the whole run must end within 180 s
ORACLE_BLOCK = 500
KEEP = ("manifest.json", "result.json", "spans.jsonl", "program.log")

# What one operation is, per workload (the op_s metric).
OPERATION = {
    "fp-knn": "train_s: sdakit train, fsda then sr-sda",
    "chains-cv": "cv_s: sdakit cv, fsda then csr-sda",
    "big-solve": "solve_s: sda.solve, fsda, csr-sda, sa-sda, sr-sda",
}


def tanimoto_oracle(x: workloads.Csr, *, k: int | None = None, theta: float | None = None):
    """Exact graph by dense bit GEMM: returns (sorted adjacency keys, candidate pairs).

    kNN: each row takes its k most similar other rows, ties (including
    similarity 0) going to the lowest index; the graph is the union of both
    directions. Threshold: every pair with similarity >= theta. Similarity
    is inter / (|a| + |b| - inter), computed in float64 from exact counts.
    Candidate pairs are unordered pairs sharing at least one feature.
    """
    n = x.n_rows
    bits = np.zeros((n, x.n_cols), dtype=np.float32)
    bits[x.rows(), x.cols] = 1.0
    pop = np.diff(x.offsets)
    src, dst, candidates = [], [], 0
    for start in range(0, n, ORACLE_BLOCK):
        stop = min(start + ORACLE_BLOCK, n)
        local = np.arange(stop - start)
        inter = (bits[start:stop] @ bits.T).astype(np.float64)  # exact below 2^24
        inter[local, local + start] = 0.0
        candidates += int(np.count_nonzero(inter))
        union = pop[start:stop, None] + pop[None, :] - inter
        sims = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
        sims[local, local + start] = -1.0
        if k is not None:
            kth = -np.partition(-sims, k - 1, axis=1)[:, k - 1:k]
            gt, eq = sims > kth, sims == kth
            need = k - np.count_nonzero(gt, axis=1, keepdims=True)
            take = gt | (eq & (np.cumsum(eq, axis=1) <= need))
        else:
            take = sims >= theta
        r, c = np.nonzero(take)
        src.append(r + start)
        dst.append(c)
    src, dst = np.concatenate(src), np.concatenate(dst)
    keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    return keys, candidates // 2


def env_line(env: dict) -> str:
    return (f"env: nproc={env['nproc']} affinity={env['affinity_cpus']} "
            f"blas_threads={env['blas_threads']} cli_threads={env['cli_threads']} "
            f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
            f"l2={env['cache_bytes']['l2']} l3={env['cache_bytes']['l3']} seed={env['seed']}")


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def main() -> int:
    ap = argparse.ArgumentParser(description="sdakit benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sdakit" / "__init__.py").is_file():
        print(f"error: no sdakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    inp = workloads.generate(args.workload, args.seed)
    pinned = workloads.pinned_digests(args.workload, args.seed)
    files = workloads.write_inputs(inp, work)
    candidates = 0
    if args.workload != "big-solve":
        knn = args.workload == "fp-knn"
        keys, candidates = tanimoto_oracle(inp.x, k=5 if knn else None,
                                           theta=None if knn else 0.5)
        np.savez(work / "expected.npz", adjacency=keys)
    (work / "manifest.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "sha256": inp.digests,
        "pinned_sha256": pinned, "files": files}, indent=1))
    print(f"inputs: {args.workload} seed={args.seed} "
          + " ".join(f"{k}:sha256={v[:16]}" for k, v in inp.digests.items()))

    cmd = [sys.executable, str(HERE / "client.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:   # run() has killed and reaped the client
        print(f"error: client exceeded {CLIENT_TIMEOUT_S}s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: client exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads((work / "result.json").read_text())
    for path in work.iterdir():     # inputs and outputs run to 100 MB per run
        if path.name not in KEEP:
            path.unlink()

    failures = list(res["failures"])
    if pinned is not None and pinned != inp.digests:
        failures.append(f"generated inputs differ from digests.json for seed {args.seed}")
    attempted = res["attempted"]
    failed = min(len(failures), attempted)
    print(env_line(res["environment"]))
    for msg in failures:
        print(f"FAILED {msg}")
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} commands)")
    print(f"op_s is {OPERATION[args.workload]}; samples {quartiles(res['op_s'])}")

    if args.trace == 0:
        print(f"setup_s samples {quartiles(res['setup_s'])}")
        metrics = {
            "op_s": {"value": statistics.median(res["op_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    else:
        print(f"traced op samples {quartiles(res['traced_op_s'])}")
        layers = res["layers"]
        layers["graph.candidate_pairs"] = float(candidates)
        layers["graph.edge_yield"] = (layers.get("graph.edges", 0.0) / candidates
                                      if candidates else 0.0)
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in per_layer_units().items()}
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics reported with --trace 1, as BENCHMARK.json lists them."""
    table = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in table["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
