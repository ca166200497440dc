"""File formats: sparse matrices (text and binary), labels, ratings.

Text matrix format: a header line "n_rows n_cols nnz", then one
"row col value" triple per line with 0-based indices. '#' comment lines
may appear anywhere; the writer puts provenance in leading ones. Values
are written with 17 significant digits so float64 round-trips exactly.

Binary matrix format: magic bytes b"SPRSMX01", then little-endian int64
n_rows, n_cols, nnz, then row_offsets (n_rows + 1 int64), col_indices
(nnz int64), values (nnz float64). The file stays int64; in memory the
indices take the narrowest dtype that fits (sdakit.sparse).

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
    if any("\n" in c or "\r" in c for c in comments):
        raise ValueError("a comment must be one line")
    with open(path, "w") as f:
        for c in comments:
            f.write(f"# {c}\n")
        f.write(f"{x.n_rows} {x.n_cols} {x.nnz}\n")
        rows = np.repeat(np.arange(x.n_rows), np.diff(x.row_offsets))
        triplets = zip(rows.tolist(), x.col_indices.tolist(), x.values.tolist())
        f.write("".join(map("%d %d %.17g\n".__mod__, triplets)))


def read_sparse_text(path) -> tuple[SparseMatrix, list[str]]:
    """Read the text format; returns (matrix, comment lines without '#').

    The triplets are parsed in bulk: integer ones in the writer's layout by
    one np.fromstring pass (_bulk_ints), any others by np.loadtxt, which
    accepts a subset of what int() and float() accept. A file neither can
    parse, or one with '#' lines after the header, goes through the line
    scan instead, which either reads it or raises SparseFormatError naming
    path:lineno.
    """
    parsed = _bulk_sparse_text(_read_text(path))
    return _scan_sparse_text(path) if parsed is None else parsed


def _read_text(path) -> str:
    """The whole file, or '' when it does not decode: the line scan then
    reports whichever comes first, a bad line or the undecodable bytes."""
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError:
        return ""


def _int64(token: str) -> int:
    """int(token), or ValueError when it does not fit in int64."""
    value = int(token)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{token!r} does not fit in int64")
    return value


def _bulk_ints(body: str, width: int) -> np.ndarray | None:
    """body as an n x width int64 array from one np.fromstring pass, or None
    unless it is the writer's integer layout: lines of `width` tokens, each
    followed by one ' ' or, last in its line, '\\n'. np.fromstring sees no
    lines, merges a token such as '-' with the next one, and saturates at
    the int64 extremes without an error, so such bodies go elsewhere."""
    raw = body.encode()
    b = np.frombuffer(raw, dtype=np.uint8)
    seps = np.flatnonzero(b <= 32)
    pattern = np.array([32] * (width - 1) + [10], dtype=np.uint8)
    if (not seps.size or seps.size % width or seps[0] == 0 or seps[-1] != b.size - 1
            or np.any(np.diff(seps) == 1) or np.any(b[seps].reshape(-1, width) != pattern)):
        return None
    try:
        ints = np.fromstring(raw, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    limits = np.iinfo(np.int64)
    if ints.size != seps.size or ints.min() == limits.min or ints.max() == limits.max:
        return None
    return ints.reshape(-1, width)


def _bulk_sparse_text(text: str) -> tuple[SparseMatrix, list[str]] | None:
    """(matrix, comments) from one bulk parse of the triplets, or None when
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
        n_rows, n_cols, nnz = (_int64(p) for p in parts)
        if (ints := _bulk_ints(body, 3)) is not None:
            rows, cols, vals = ints.T
        elif body and not body.isspace():
            t = np.loadtxt(StringIO(body), dtype=_TRIPLET, comments=None, ndmin=1)
            rows, cols, vals = t["r"], t["c"], t["v"]
        else:
            rows = cols = vals = np.zeros(0)
    except ValueError:
        return None
    if vals.size != nnz:
        return None
    return build_sparse(n_rows, n_cols, rows, cols, vals), comments


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
                    header = tuple(_int64(p) for p in parts)
                    continue
                if len(parts) != 3:
                    raise SparseFormatError(f"{path}:{lineno}: expected 'row col value'")
                rows.append(_int64(parts[0]))
                cols.append(_int64(parts[1]))
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
    """Read each section into an array of its own, not a view of the file."""
    with open(path, "rb") as f:
        if f.read(8) != MAGIC_SPARSE:
            raise SparseFormatError(f"{path}: bad magic bytes for binary sparse format")
        head = np.fromfile(f, dtype="<i8", count=3).tolist()
        if len(head) != 3 or Path(path).stat().st_size != 8 * (5 + head[0] + 2 * head[2]):
            raise SparseFormatError(f"{path}: truncated or oversized binary sparse file")
        n_rows, n_cols, nnz = head
        row_offsets = np.fromfile(f, dtype="<i8", count=n_rows + 1)
        col_indices = np.fromfile(f, dtype="<i8", count=nnz)
        values = np.fromfile(f, dtype="<f8", count=nnz)
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
    """Read a label file in bulk when it is the writer's layout, one integer
    and '\\n' per line (_bulk_ints), else through the line scan."""
    ints = _bulk_ints(_read_text(path), 1)
    return _scan_labels(path) if ints is None else LabelVector(ints.ravel())


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
                vals.append(_int64(line))
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
    nb, ns = np.frombuffer(data, dtype="<i8", count=2, offset=8).tolist() if len(data) >= 24 else (-1, -1)
    if nb < 0 or ns < 0 or len(data) != 8 * (3 + nb + nb * ns):
        raise SparseFormatError(f"{path}: truncated or oversized ratings file")
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
