"""On-disk formats: edge lists, CSV signals, parameter checkpoints.

Edge lists are one ``i j`` pair per line (0-based, whitespace separated,
``#`` starts a comment); the node count is the largest index plus one
unless passed explicitly. Signals are plain CSV, one node per row.
A checkpoint is one ``.npz`` archive: each parameter a ``<f8`` member, the
meta one JSON string, the whole file published by one ``os.replace`` and
read back with every member's CRC-32 checked.

Each text file is parsed by one ``np.loadtxt`` call. The writers format a
block of rows per ``%`` call and write the bytes of one ``"i j"`` line per
edge and of ``np.savetxt(fmt="%.17g")``.
"""
from __future__ import annotations

import json
import os
import warnings
import zipfile
from pathlib import Path

import numpy as np

from .graphs import Graph, build_graph

_BLOCK_VALUES = 1 << 15  # values formatted per write call; bounds the transient text
_META = "__meta__"  # the checkpoint member holding the meta JSON


def _edge_rows(source) -> np.ndarray | None:
    """(m, 2) int64 pairs from a path or list of lines; None if a line is not 'i j'."""
    with warnings.catch_warnings():  # no data rows is an empty edge list
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            e = np.loadtxt(source, dtype=np.int64, comments="#", ndmin=2)
        except ValueError:
            return None
    return e.reshape(-1, 2) if e.size == 0 or e.shape[1] == 2 else None


def read_edge_list(path, n: int | None = None) -> Graph:
    e = _edge_rows(path)
    if e is None:  # rescan only to name the first bad line
        lines = Path(path).read_text().split("\n")
        line_no = next(k for k, line in enumerate(lines, 1) if _edge_rows([line]) is None)
        raise ValueError(f"{path}:{line_no}: expected 'i j', got {lines[line_no - 1]!r}")
    if n is None and not e.size:
        raise ValueError(f"{path}: empty edge list needs an explicit node count")
    try:
        return build_graph(int(e.max()) + 1 if n is None else n, e)
    except ValueError as exc:  # endpoint out of range or a self-loop
        raise ValueError(f"{path}: {exc}") from None


def _write_rows(path, rows: np.ndarray, row_fmt: str, head: str = "") -> None:
    """Write ``head`` then ``row_fmt % tuple(row)`` for each row of a 2-D array."""
    step = max(1, _BLOCK_VALUES // max(rows.shape[1], 1))
    with open(path, "w") as fh:
        fh.write(head)
        for start in range(0, rows.shape[0], step):
            block = rows[start:start + step]
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_edge_list(g: Graph, path) -> None:
    _write_rows(path, g.edges, "%d %d\n")


def read_csv_matrix(path) -> np.ndarray:
    """CSV of floats, row r = values of node r; returns (n, c) or (n,).

    A file without data rows gives an empty array.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=1)


def write_csv_matrix(arr: np.ndarray, path, header: str | None = None) -> None:
    """One ``%.17g`` row per node; ``header`` (if any) is the first line, uncommented."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D or 2-D array, got {arr.ndim}-D")
    arr = arr[:, None] if arr.ndim == 1 else arr
    _write_rows(path, arr, ",".join(["%.17g"] * arr.shape[1]) + "\n",
                f"{header}\n" if header else "")


def save_checkpoint(path, params: dict, meta: dict | None = None) -> Path:
    """Write ``params`` as ``<f8`` members and ``meta`` as JSON under ``__meta__`` to one
    ``.npz``: a temporary file beside ``path``, flushed to disk, then one ``os.replace``,
    so ``path`` holds the old checkpoint or the new one, never a mix; returns ``path``."""
    path = Path(path)
    taken = sorted(set(params) & {_META, "file", "allow_pickle"})  # np.savez's own keywords
    if taken:
        raise ValueError(f"parameter names {taken} are reserved in a checkpoint")
    members = {name: np.asarray(value, dtype="<f8") for name, value in params.items()}
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **members, **{_META: np.array(json.dumps(meta or {}))})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_checkpoint(path):
    """Returns (params dict, meta dict) from a :func:`save_checkpoint` file. Every
    member is read, so zipfile checks each one's CRC-32, and nothing is unpickled.
    ``ValueError`` names the file when it is a directory or not an intact ``.npz``,
    when ``__meta__`` is not a JSON object and when a parameter is not float64."""
    if Path(path).is_dir():
        raise ValueError(f"{path}: a directory, not a .npz checkpoint")
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":  # every .npz starts with the zip magic
            raise ValueError(f"{path}: not a .npz archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                params = {name: npz[name] for name in npz.files}
            meta = json.loads(str(params.pop(_META, "null")))
        except (EOFError, NotImplementedError, OSError, ValueError,
                zipfile.BadZipFile) as exc:  # a torn or corrupt archive, a bad CRC-32
            raise ValueError(f"{path}: not an intact .npz archive ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: needs a {_META!r} member holding a JSON object")
    for name, value in params.items():
        if getattr(value, "dtype", None) != np.dtype("<f8"):
            raise ValueError(f"{path}: parameter {name!r} is not a float64 array")
    return params, meta


def dump_instance(directory, instance) -> Path:
    """Per-instance dataset dump: graph.edges, x.csv, y.csv, mask.csv, meta.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_edge_list(instance.graph, directory / "graph.edges")
    write_csv_matrix(instance.X, directory / "x.csv")
    write_csv_matrix(np.atleast_1d(instance.y), directory / "y.csv")
    if instance.mask is not None:
        write_csv_matrix(instance.mask.astype(np.float64), directory / "mask.csv")
    (directory / "meta.json").write_text(json.dumps(instance.meta, indent=2))
    return directory
