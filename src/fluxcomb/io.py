"""Deterministic run output: CSV tables and a manifest.

Floats are rendered as {:.12e} with LF line endings so identical
configurations produce byte-identical files on every platform.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__

FLOAT_FMT = "{:.12e}"


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT.format(float(value))


# %-format of each cell type whose rendering matches format_cell
_CELL_FORMATS = {str: "%s", int: "%d", np.int64: "%d",
                 float: "%.12e", np.float64: "%.12e"}


def _row_format(types: tuple):
    """One %-format for a whole row of these cell types, or None when a
    type needs format_cell."""
    if all(t in _CELL_FORMATS for t in types):
        return ",".join(_CELL_FORMATS[t] for t in types) + "\n"
    return None


def write_csv(path: Path, header: str, rows) -> Path:
    """Stream rows to path, each formatted by one % operation; the format
    is built once per distinct tuple of cell types."""
    path = Path(path)
    formats = {}
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            if types not in formats:
                formats[types] = _row_format(types)
            fmt = formats[types]
            if fmt is None:
                fh.write(",".join(format_cell(v) for v in row) + "\n")
            else:
                fh.write(fmt % row)
    return path


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
