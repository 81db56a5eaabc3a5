"""Deterministic run output: CSV tables and a manifest.

A table is written from equal-length columns in blocks of CSV_BLOCK rows:
a float cell as %.12e, an integer cell as %d and a str cell as is, with LF
line endings, so identical configurations give byte-identical files.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__

CSV_BLOCK = 8192


def _cells(block: np.ndarray) -> list:
    """The rendered cells of one block of a column. Each distinct value is
    formatted once, all by a single %, and gathered back into row order;
    floats are told apart by their bits, so -0.0 keeps its sign."""
    if block.dtype.kind == "U":
        return block.tolist()
    is_float = block.dtype.kind == "f"
    keys = block.view(np.int64) if is_float else block
    uniq, inverse = np.unique(keys, return_inverse=True)
    values = uniq.view(block.dtype).tolist()
    fmt = "%.12e" if is_float else "%d"
    text = ("\n".join([fmt] * len(values)) % tuple(values)).split("\n")
    return np.array(text, dtype=object)[inverse].tolist()


def write_csv(path: Path, header: str, columns) -> Path:
    """Write `columns` under `header`. A column is a float array (each cell
    rendered %.12e), an integer array (%d) or a sequence of str (written as
    is); all have the same length. Rows go out in blocks of CSV_BLOCK, each
    line ending in LF."""
    columns = [np.asarray(c) for c in columns]
    columns = [c.astype(np.float64, copy=False) if c.dtype.kind == "f"
               else c for c in columns]
    for c in columns:
        if c.ndim != 1 or c.dtype.kind not in "fiuU":
            raise TypeError(f"not a float, integer or str column: {c.dtype}")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns differ in length")
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), CSV_BLOCK):
            cells = [_cells(c[lo:lo + CSV_BLOCK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
            del cells   # free this block before the next is built
    return Path(path)


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def file_entry(out_dir: Path, path: Path) -> dict:
    path = Path(path)
    return {
        "path": path.relative_to(out_dir).as_posix(),
        "sha256": sha256_of(path),
        "bytes": path.stat().st_size,
    }


def write_manifest(out_dir: Path, scenario: str, config: dict, seed,
                   files) -> Path:
    """files: paths inside out_dir; entries are sorted by path so the
    manifest itself is reproducible."""
    entries = sorted((file_entry(out_dir, p) for p in files),
                     key=lambda e: e["path"])
    manifest = {
        "scenario": scenario,
        "config": config,
        "seed": seed,
        "versions": {
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
            "fluxcomb": __version__,
        },
        "files": entries,
    }
    path = Path(out_dir) / "manifest.json"
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
