"""Seeded workload inputs, written with the benchmark's own code.

Nothing here calls sdakit: the generators, the file writers and the
digests are independent of `sdakit.synthetic` and the `sdakit.io`
writers, so a change there cannot silently change a workload. Every
generated array gets a sha256 over its canonical little-endian bytes;
`digests.json` pins them for the documented seeds.

Workloads (N samples, D features):
  fp-knn     random fingerprints, N=6000, D=1024, exactly 40 bits per row
             (uniform popcount), 25 labels per class at random rows;
             written as sparse text.
  chains-cv  two noisy chain manifolds, N=4000, D=200 (80 + 80 chain
             features, 40 noise features), window 12, drop 0.3, noise 0.1
             (popcounts about 4-21), 10 labels per class at random rows;
             written as sparse text.
  big-solve  N=200000, D=1000, 2M draws with power-law columns (weight
             (j+1)^-0.7), about 1.95M distinct ones; a random 5-out graph,
             union-symmetrized; 50 labels per class in the first 100 rows;
             written in the SPRSMX01 binary format.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("fp-knn", "chains-cv", "big-solve")
_STREAM = {name: i + 1 for i, name in enumerate(WORKLOADS)}

SPARSE_MAGIC = b"SPRSMX01"


@dataclass
class Csr:
    """Binary CSR pattern: every stored value is 1."""

    n_rows: int
    n_cols: int
    offsets: np.ndarray
    cols: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.cols.size)

    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.offsets))


@dataclass
class Inputs:
    """One workload's generated arrays plus their digests."""

    x: Csr
    labels: np.ndarray                  # int64 in {+1, -1, 0}
    graph: Csr | None = None            # symmetric adjacency, big-solve only
    digests: dict[str, str] = field(default_factory=dict)


def _csr_from_keys(n_rows: int, n_cols: int, keys: np.ndarray) -> Csr:
    # Sort and drop repeats: np.unique is far slower on numpy 2.4.
    keys = np.sort(keys.astype(np.int64))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    rows, cols = keys // n_cols, keys % n_cols
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
    return Csr(n_rows, n_cols, offsets, cols)


def _reveal(rng: np.random.Generator, truth: np.ndarray, per_class: int) -> np.ndarray:
    labels = np.zeros(truth.size, dtype=np.int64)
    for cls in (1, -1):
        idx = np.flatnonzero(truth == cls)
        labels[rng.choice(idx, per_class, replace=False)] = cls
    return labels


def _fp_knn(rng: np.random.Generator) -> Inputs:
    n, d, bits = 6000, 1024, 40
    picks = np.argpartition(rng.random((n, d)), bits, axis=1)[:, :bits]
    keys = (np.arange(n, dtype=np.int64)[:, None] * d + picks).ravel()
    # The data has no classes; any balanced labeling is a valid problem.
    truth = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)
    return Inputs(_csr_from_keys(n, d, keys), _reveal(rng, truth, 25))


def _chains_cv(rng: np.random.Generator) -> Inputs:
    n, per_chain, window, n_noise = 4000, 80, 12, 40
    p_noise, p_drop = 0.1, 0.3
    d = 2 * per_chain + n_noise
    truth = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int64)
    start = np.where(truth == 1, 0, per_chain) + rng.integers(0, per_chain - window + 1, n)
    on = np.zeros((n, d), dtype=bool)
    keep = rng.random((n, window)) >= p_drop
    rows = np.repeat(np.arange(n), window).reshape(n, window)
    on[rows[keep], (start[:, None] + np.arange(window))[keep]] = True
    on[:, 2 * per_chain:] = rng.random((n, n_noise)) < p_noise
    r, c = np.nonzero(on)
    return Inputs(_csr_from_keys(n, d, r.astype(np.int64) * d + c), _reveal(rng, truth, 10))


def _big_solve(rng: np.random.Generator) -> Inputs:
    n, d, draws, power, out_degree = 200_000, 1000, 2_000_000, 0.7, 5
    weights = (np.arange(d) + 1.0) ** -power
    rows = rng.integers(0, n, draws)
    cols = rng.choice(d, size=draws, p=weights / weights.sum())
    x = _csr_from_keys(n, d, rows * d + cols)
    src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    dst = rng.integers(0, n - 1, src.size)
    dst += dst >= src                       # never a self loop
    graph = _csr_from_keys(n, n, np.concatenate([src * n + dst, dst * n + src]))
    labels = np.zeros(n, dtype=np.int64)
    labels[:100] = rng.permutation(np.repeat([1, -1], 50))
    return Inputs(x, labels, graph=graph)


_GENERATORS = {"fp-knn": _fp_knn, "chains-cv": _chains_cv, "big-solve": _big_solve}


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def generate(workload: str, seed: int) -> Inputs:
    """Inputs for one workload; the same (workload, seed) gives the same arrays."""
    rng = np.random.default_rng([seed, _STREAM[workload]])
    inp = _GENERATORS[workload](rng)
    inp.digests["x"] = _sha([inp.x.n_rows, inp.x.n_cols], inp.x.offsets, inp.x.cols)
    inp.digests["labels"] = _sha(inp.labels)
    if inp.graph is not None:
        g = inp.graph
        inp.digests["graph"] = _sha([g.n_rows, g.n_cols], g.offsets, g.cols)
    return inp


def pinned_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Digests recorded in digests.json for (workload, seed), if any."""
    table = json.loads((Path(__file__).parent / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def write_sparse_text(path: Path, m: Csr) -> None:
    """'n_rows n_cols nnz' header, then one 'row col 1' line per entry."""
    body = np.column_stack([m.rows(), m.cols]).astype(str)
    with open(path, "w") as f:
        f.write(f"{m.n_rows} {m.n_cols} {m.nnz}\n")
        f.write("".join(f"{r} {c} 1\n" for r, c in body))


def write_sparse_binary(path: Path, m: Csr) -> None:
    """SPRSMX01: magic, int64 n_rows n_cols nnz, offsets, cols, float64 values."""
    with open(path, "wb") as f:
        f.write(SPARSE_MAGIC)
        f.write(np.asarray([m.n_rows, m.n_cols, m.nnz], dtype="<i8").tobytes())
        f.write(m.offsets.astype("<i8").tobytes())
        f.write(m.cols.astype("<i8").tobytes())
        f.write(np.ones(m.nnz, dtype="<f8").tobytes())


def write_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("".join(f"{int(v)}\n" for v in labels))


def write_inputs(inp: Inputs, out: Path) -> dict[str, str]:
    """Write the program's input files plus the arrays the checks need."""
    files = {}
    if inp.graph is None:
        files["data"] = out / "data.txt"
        write_sparse_text(files["data"], inp.x)
        files["labels"] = out / "labels.txt"
        write_labels(files["labels"], inp.labels)
    else:
        files["data"] = out / "data.bin"
        write_sparse_binary(files["data"], inp.x)
        files["graph"] = out / "graph.bin"
        write_sparse_binary(files["graph"], inp.graph)
    files["arrays"] = out / "arrays.npz"
    np.savez(files["arrays"], offsets=inp.x.offsets, cols=inp.x.cols,
             shape=np.asarray([inp.x.n_rows, inp.x.n_cols]), labels=inp.labels)
    return {k: str(v) for k, v in files.items()}
