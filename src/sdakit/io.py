"""File formats: sparse matrices (text and binary), labels, ratings.

Text matrix format: a header line "n_rows n_cols nnz", then one
"row col value" triple per line with 0-based indices. '#' comment lines
may appear anywhere; the writer puts provenance in leading ones. Values
are written with 17 significant digits so float64 round-trips exactly.

Binary matrix format: magic bytes b"SPRSMX01", then little-endian int64
n_rows, n_cols, nnz, then row_offsets (n_rows + 1 int64), col_indices
(nnz int64), values (nnz float64).

Ratings format: magic bytes b"RATING01", int64 n_betas and n_samples,
the beta grid as float64, then scores row-major (one row per beta).

Label file: one integer per line in {+1, -1, 0}.
"""

from __future__ import annotations

import hashlib
from io import StringIO
from pathlib import Path

import numpy as np

from .sparse import LabelVector, SparseFormatError, SparseMatrix, build_sparse

MAGIC_SPARSE = b"SPRSMX01"
MAGIC_RATINGS = b"RATING01"
_TRIPLET = np.dtype([("r", "<i8"), ("c", "<i8"), ("v", "<f8")])


def _i64(x: np.ndarray | list | int) -> bytes:
    return np.asarray(x, dtype="<i8").tobytes()


def _f64(x) -> bytes:
    return np.asarray(x, dtype="<f8").tobytes()


def matrix_checksum(x: SparseMatrix) -> str:
    """sha256 over the canonical little-endian serialization of x."""
    h = hashlib.sha256()
    h.update(_i64([x.n_rows, x.n_cols, x.nnz]))
    h.update(_i64(x.row_offsets))
    h.update(_i64(x.col_indices))
    h.update(_f64(x.values))
    return h.hexdigest()


def write_sparse_text(path, x: SparseMatrix, comments: list[str] | tuple = ()) -> None:
    with open(path, "w") as f:
        for c in comments:
            f.write(f"# {c}\n")
        f.write(f"{x.n_rows} {x.n_cols} {x.nnz}\n")
        rows = np.repeat(np.arange(x.n_rows), np.diff(x.row_offsets))
        triplets = zip(rows.tolist(), x.col_indices.tolist(), x.values.tolist())
        f.write("".join(map("%d %d %.17g\n".__mod__, triplets)))


def read_sparse_text(path) -> tuple[SparseMatrix, list[str]]:
    """Read the text format; returns (matrix, comment lines without '#').

    The triplets are parsed in bulk by np.loadtxt, which accepts a subset
    of what int() and float() accept. A file it cannot parse, or one with
    '#' lines after the header, goes through the line scan instead, which
    either reads it or raises SparseFormatError naming path:lineno.
    """
    text = _read_text(path)
    parsed = None if text is None else _bulk_sparse_text(text)
    return _scan_sparse_text(path) if parsed is None else parsed


def _read_text(path) -> str | None:
    """The whole file, or None when it does not decode: the line scan then
    reports whichever comes first, a bad line or the undecodable bytes."""
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError:
        return None


def _bulk_sparse_text(text: str) -> tuple[SparseMatrix, list[str]] | None:
    """(matrix, comments) from one loadtxt over the triplets, or None when
    the file needs the line scan."""
    comments: list[str] = []
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line = text[pos:end].strip()
        pos = end + 1
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line.lstrip("#").strip())
            continue
        parts = line.split()
        break
    else:
        return None
    body = text[pos:]
    if len(parts) != 3 or "#" in body:
        return None
    try:
        n_rows, n_cols, nnz = (int(p) for p in parts)
        if not body or body.isspace():
            triplets = np.zeros(0, dtype=_TRIPLET)
        else:
            triplets = np.loadtxt(StringIO(body), dtype=_TRIPLET, comments=None, ndmin=1)
    except ValueError:
        return None
    if triplets.size != nnz:
        return None
    return build_sparse(n_rows, n_cols, triplets["r"], triplets["c"], triplets["v"]), comments


def _scan_sparse_text(path) -> tuple[SparseMatrix, list[str]]:
    """Line-by-line reader: the reference for read_sparse_text, and its
    source of line-numbered errors."""
    comments: list[str] = []
    header = None
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line.lstrip("#").strip())
                continue
            parts = line.split()
            try:
                if header is None:
                    if len(parts) != 3:
                        raise SparseFormatError(f"{path}:{lineno}: header must be 'rows cols nnz'")
                    header = tuple(int(p) for p in parts)
                    continue
                if len(parts) != 3:
                    raise SparseFormatError(f"{path}:{lineno}: expected 'row col value'")
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                vals.append(float(parts[2]))
            except SparseFormatError:
                raise
            except ValueError as e:
                raise SparseFormatError(f"{path}:{lineno}: {e}") from e
    if header is None:
        raise SparseFormatError(f"{path}: missing header line")
    n_rows, n_cols, nnz = header
    if len(vals) != nnz:
        raise SparseFormatError(f"{path}: header promises {nnz} entries, found {len(vals)}")
    return build_sparse(n_rows, n_cols, rows, cols, vals), comments


def write_sparse_binary(path, x: SparseMatrix) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC_SPARSE)
        f.write(_i64([x.n_rows, x.n_cols, x.nnz]))
        f.write(_i64(x.row_offsets))
        f.write(_i64(x.col_indices))
        f.write(_f64(x.values))


def read_sparse_binary(path) -> SparseMatrix:
    data = Path(path).read_bytes()
    if data[:8] != MAGIC_SPARSE:
        raise SparseFormatError(f"{path}: bad magic bytes for binary sparse format")
    head = np.frombuffer(data, dtype="<i8", count=3, offset=8)
    n_rows, n_cols, nnz = (int(v) for v in head)
    off = 8 + 3 * 8
    expected = off + (n_rows + 1) * 8 + nnz * 8 + nnz * 8
    if len(data) != expected:
        raise SparseFormatError(f"{path}: truncated or oversized binary sparse file")
    row_offsets = np.frombuffer(data, dtype="<i8", count=n_rows + 1, offset=off)
    off += (n_rows + 1) * 8
    col_indices = np.frombuffer(data, dtype="<i8", count=nnz, offset=off)
    off += nnz * 8
    values = np.frombuffer(data, dtype="<f8", count=nnz, offset=off)
    return SparseMatrix(n_rows, n_cols, row_offsets, col_indices, values)


def read_sparse(path) -> SparseMatrix:
    """Read either format, sniffing the binary magic bytes."""
    with open(path, "rb") as f:
        magic = f.read(8)
    if magic == MAGIC_SPARSE:
        return read_sparse_binary(path)
    x, _ = read_sparse_text(path)
    return x


def write_labels(path, labels: LabelVector) -> None:
    with open(path, "w") as f:
        for v in labels.labels:
            f.write(f"{int(v)}\n")


def read_labels(path) -> LabelVector:
    """Read a label file in bulk, or through the line scan when it holds
    '#' lines or anything np.loadtxt cannot parse as one integer per line."""
    text = _read_text(path)
    if text and "#" not in text and not text.isspace():
        try:
            vals = np.loadtxt(StringIO(text), dtype="<i8", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if vals.shape[1] == 1:
                return LabelVector(vals.ravel())
    return _scan_labels(path)


def _scan_labels(path) -> LabelVector:
    """Line-by-line reader: the reference for read_labels, and its source
    of line-numbered errors."""
    vals = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals.append(int(line))
            except ValueError as e:
                raise SparseFormatError(f"{path}:{lineno}: labels must be integers") from e
    return LabelVector(np.asarray(vals, dtype=np.int64))


def write_ratings(path, betas: np.ndarray, scores: np.ndarray) -> None:
    """Compact binary ratings: one row of scores per beta."""
    betas = np.asarray(betas, dtype=np.float64)
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if scores.shape[0] != betas.size:
        raise ValueError("scores must have one row per beta")
    with open(path, "wb") as f:
        f.write(MAGIC_RATINGS)
        f.write(_i64([betas.size, scores.shape[1]]))
        f.write(_f64(betas))
        f.write(_f64(scores))


def read_ratings(path) -> tuple[np.ndarray, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:8] != MAGIC_RATINGS:
        raise SparseFormatError(f"{path}: bad magic bytes for ratings format")
    nb, ns = (int(v) for v in np.frombuffer(data, dtype="<i8", count=2, offset=8))
    off = 8 + 2 * 8
    betas = np.frombuffer(data, dtype="<f8", count=nb, offset=off).astype(np.float64)
    off += nb * 8
    scores = np.frombuffer(data, dtype="<f8", count=nb * ns, offset=off).astype(np.float64)
    return betas, scores.reshape(nb, ns)


def write_ratings_text(path, betas: np.ndarray, scores: np.ndarray) -> None:
    """Opt-in text dump: a beta header row, then one line per sample."""
    betas = np.asarray(betas, dtype=np.float64)
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    with open(path, "w") as f:
        f.write("# ratings: columns are beta values, rows are samples\n")
        f.write(" ".join("%.17g" % b for b in betas) + "\n")
        for j in range(scores.shape[1]):
            f.write(" ".join("%.17g" % s for s in scores[:, j]) + "\n")


def parse_provenance(comments: list[str]) -> dict[str, str]:
    """Parse 'key=value' tokens out of comment lines."""
    out: dict[str, str] = {}
    for line in comments:
        for tok in line.split():
            if "=" in tok:
                k, _, v = tok.partition("=")
                out[k] = v
    return out
