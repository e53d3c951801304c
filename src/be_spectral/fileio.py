"""On-disk formats: edge lists, CSV signals, parameter checkpoints.

Edge lists are one ``i j`` pair per line (0-based, whitespace separated,
``#`` starts a comment); the node count is the largest index plus one
unless passed explicitly. Signals are plain CSV, one node per row.
Checkpoints are a JSON manifest plus one raw little-endian float64 blob
per parameter tensor.

Each text file is parsed by one ``np.loadtxt`` call. The writers format a
block of rows per ``%`` call and write the bytes of one ``"i j"`` line per
edge and of ``np.savetxt(fmt="%.17g")``.
"""
from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .graphs import Graph, build_graph

_BLOCK_VALUES = 1 << 15  # values formatted per write call; bounds the transient text


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


def save_checkpoint(directory, params: dict, meta: dict | None = None) -> Path:
    """Write a manifest + one .bin blob per parameter; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, (name, value) in enumerate(sorted(params.items())):
        value = np.asarray(value, dtype=np.float64)
        fname = f"param_{idx:04d}.bin"
        (directory / fname).write_bytes(value.astype("<f8").tobytes())
        entries.append({"name": name, "shape": list(value.shape),
                        "dtype": "<f8", "file": fname})
    manifest = {"format": "be-spectral-checkpoint/1", "tensors": entries,
                "meta": meta or {}}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return directory


def load_checkpoint(directory):
    """Returns (params dict, meta dict)."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    params = {}
    for entry in manifest["tensors"]:
        path, shape = directory / entry["file"], tuple(entry["shape"])
        raw, need = path.read_bytes(), 8 * int(np.prod(shape))
        if len(raw) != need:
            raise ValueError(f"{path}: {len(raw)} bytes, shape {shape} needs {need}")
        params[entry["name"]] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    return params, manifest.get("meta", {})


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
