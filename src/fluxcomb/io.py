"""Deterministic run output: CSV tables and a manifest.

A table is written from equal-length columns in blocks of CSV_BLOCK rows:
a float cell exactly as '%.12e' % x renders it, an integer cell as %d and
a str cell as is, in UTF-8 with LF line endings, so identical
configurations give byte-identical files.

A float block is rendered with no Python formatting per cell; an integer
cell is its str(), which is short and reads as %d. Each column's block
becomes a (rows, words) uint32 matrix of NUL-padded UTF-8; the
matrices, a ',' word between columns and a newline word at each row end
are stacked side by side, and the block goes out in one write as the
matrix's bytes with the NULs dropped. A column given as a (values, index)
pair, such as a grid coordinate repeated over the rows, is rendered once
for its distinct values, and each block gathers its rows' word rows.

A float x != 0 has the 13 significant digits M = round(v), where
v = |x| 10^(12-E) and E = floor(log10|x|). E is exact: log10 is checked
against 10^E held as hi + lo wherever it lies within 1e-10 of an integer.
v is taken in double-double, a Dekker two-product against 10^(12-E) as
hi + lo, each correctly rounded, so its distance from the nearest integer
is known to about 1e-16. A v that rounds up to 10^13 carries, as % does,
into M = 10^12 at E + 1. The words come from tables: the sign, first
digit, point and second digit; two groups of four digits; the last three
digits and 'e'; the exponent. 0.0 and -0.0 take the same path. Python's
'%.12e' renders only the cells this cannot: v within _TIE_MARGIN of a half
(possibly an exact tie, which % rounds half to even), a non-finite value,
and |x| outside [_FAST_MIN, _FAST_MAX], where 10^(12-E) or the split of x
would overflow.
"""

import functools
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__

CSV_BLOCK = 8192

# |x| range of the vectorized float path
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# exponents k of the 10^k table, which holds 10^E, 10^(E+1) and 10^(12-E)
# for every E of that range, with room
_K_MIN, _K_MAX = -290, 297
# a v this close to a half may be an exact tie
_TIE_MARGIN = 1e-7
_SPLIT = 134217729.0   # 2^27 + 1: Dekker's split of a double into halves
# offsets of the four float word tables in one
_HEAD, _QUAD, _TAIL, _EXP = 0, 200, 10200, 11200


def _words(chars) -> np.ndarray:
    """ASCII codes (..., 4k), 0 for no byte, as (..., k) uint32 words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32)


def _digits(k: np.ndarray, divisors) -> np.ndarray:
    """The decimal digits k // d % 10 for each d in divisors, as codes."""
    return k[:, None] // np.array(divisors) % 10 + 48


@functools.cache
def _tables() -> SimpleNamespace:
    """The word tables and 10^k, built on first use: a few ms, mostly the
    correctly rounded 10^k from Python's int division."""
    n = np.arange(10000)
    quad = _digits(n, [1000, 100, 10, 1])
    e = np.arange(_K_MIN, _K_MAX + 1)
    pow10 = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        pow10.append((hi, (num * q - p * den) / (den * q)))
    hi, lo = np.array(pow10).T
    hi_a = _SPLIT * hi
    hi_a -= hi_a - hi
    lead = _digits(n[:200], [10, 1])
    return SimpleNamespace(
        # the float words, one table at offsets _HEAD, _QUAD, _TAIL, _EXP:
        # '-' or nothing, first digit, '.', second digit, indexed by
        # 100 * negative + the first two digits; four digits; the last
        # three digits and 'e'; the sign and two or three digits of
        # exponent _K_MIN + index
        floats=np.concatenate([
            _words(np.column_stack([
                np.where(n[:200] >= 100, 45, 0), lead[:, 0],
                np.full(200, 46), lead[:, 1]]))[:, 0],
            _words(quad)[:, 0],
            _words(np.column_stack([_digits(n[:1000], [100, 10, 1]),
                                    np.full(1000, 101)]))[:, 0],
            _words(np.column_stack([
                np.where(e < 0, 45, 43),
                np.where(abs(e) < 100, 0, _digits(abs(e), [100])[:, 0]),
                _digits(abs(e), [10, 1])]))[:, 0]]),
        comma=_words([44, 0, 0, 0]), newline=_words([10, 0, 0, 0]),
        # 10^k = hi + lo, each correctly rounded; hi = hi_a + hi_b split
        hi=hi, lo=lo, hi_a=hi_a, hi_b=hi - hi_a)


def _decimal_exponent(y: np.ndarray) -> np.ndarray:
    """floor(log10 y), exactly, for y in [_FAST_MIN, _FAST_MAX]. log10 is
    off by far less than 1e-10, so only a y whose log10 lies that close to
    an integer E is compared with 10^E and 10^(E+1)."""
    lg = np.log10(y)
    e = np.floor(lg).astype(np.int64)
    near = np.flatnonzero(np.abs(lg - np.rint(lg)) < 1e-10)
    if near.size:
        t = _tables()
        y, k = y[near], e[near] - _K_MIN
        k -= (y < t.hi[k]) | ((y == t.hi[k]) & (t.lo[k] > 0.0))
        k += (y > t.hi[k + 1]) | ((y == t.hi[k + 1]) & (t.lo[k + 1] <= 0.0))
        e[near] = k + _K_MIN
    return e


def _float_words(x: np.ndarray) -> np.ndarray:
    """(rows, 5) words of '%.12e' % x."""
    t = _tables()
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)   # NaN is neither
    zero = ax == 0.0
    y = np.where(fast, ax, 1.0)
    e = _decimal_exponent(y)
    # v = y 10^(12-e) = p + tail: p = fl(y hi), and y hi - p is exact by
    # the two-product
    k = (12 - _K_MIN) - e
    hi_a, hi_b, lo = np.take(t.hi_a, k), np.take(t.hi_b, k), np.take(t.lo, k)
    y_a = _SPLIT * y
    y_a -= y_a - y
    y_b = y - y_a
    p = y * (hi_a + hi_b)
    tail = ((y_a * hi_a - p) + y_a * hi_b + y_b * hi_a) + y_b * hi_b \
        + y * lo
    m = np.rint(p)
    frac = (p - m) + tail            # v - m, to about 1e-16
    m += frac > 0.5
    m -= frac < -0.5
    carry = m == 1e13
    m[carry], e[carry] = 1e12, e[carry] + 1
    m[zero], e[zero] = 0.0, 0
    digits = m.astype(np.int64)
    d3 = digits // 1000
    d7 = d3 // 10000
    d11 = d7 // 10000
    words = np.take(t.floats, np.stack([
        np.signbit(x) * 100 + d11, d7 - d11 * 10000 + _QUAD,
        d3 - d7 * 10000 + _QUAD, digits - d3 * 1000 + _TAIL,
        e + (_EXP - _K_MIN)])).T
    slow = np.flatnonzero(~(fast | zero)
                          | (np.abs(np.abs(frac) - 0.5) < _TIE_MARGIN))
    if slow.size:
        text = b"".join(("%.12e" % v).encode().ljust(20, b"\0")
                        for v in x[slow].tolist())
        words[slow] = np.frombuffer(text, np.uint32).reshape(-1, 5)
    return words


def _str_words(x: np.ndarray) -> np.ndarray:
    """(rows, k) words of the UTF-8 cells, each padded with NULs to whole
    words."""
    chars = np.char.encode(x, "utf-8")
    codes = np.zeros((x.size, -(-chars.itemsize // 4) * 4), np.uint8)
    codes[:, :chars.itemsize] = chars.view(np.uint8).reshape(x.size, -1)
    filled = codes != 0
    if np.any(filled[:, 1:] & ~filled[:, :-1]):
        raise ValueError("a str cell holds a NUL character")
    return codes.view(np.uint32)


def _render(c: np.ndarray) -> np.ndarray:
    """(rows, words) of the cells of a float, integer or str column; an
    integer is rendered as its str(), each value in Python: every integer
    column written is short, or a pair's distinct values."""
    if c.dtype.kind == "f":
        return _float_words(c)
    if c.dtype.kind != "U":
        c = np.array([str(x) for x in c.tolist()], dtype=str)
    return _str_words(c)


def _block_bytes(words: list) -> bytes:
    """The CSV lines of one block, from each column's (rows, k) words."""
    t = _tables()
    rows = len(words[0])
    parts = []
    for w in words:
        parts += [w, np.full((rows, 1), t.comma)]
    parts[-1] = np.full((rows, 1), t.newline)
    return np.hstack(parts).tobytes().translate(None, b"\0")


def _column(c) -> tuple:
    """A write_csv column as (values, index); index is None for a plain
    column."""
    values, index = c if isinstance(c, tuple) else (c, None)
    values = np.asarray(values)
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
    if values.ndim != 1 or values.dtype.kind not in "fiuU":
        raise TypeError(f"not a float, integer or str column: {values.dtype}")
    if index is not None:
        index = np.asarray(index)
        if index.ndim != 1 or index.dtype.kind not in "iu":
            raise TypeError(f"not a 1-D integer index: {index.dtype}")
        if index.size and not 0 <= index.min() <= index.max() < len(values):
            raise IndexError(f"index outside 0..{len(values) - 1}")
    return values, index


def write_csv(path: Path, header: str, columns) -> Path:
    """Write `columns` under `header`. A column is a float array (each cell
    rendered %.12e), an integer array (%d) or a sequence of str (written as
    is, and holding no NUL); all have the same length. A column may also be
    a (values, index) tuple: `values` is such a column and `index` a 1-D
    integer array into it, so the column reads values[index] and has
    len(index) rows; `values` is rendered once, not once per row. Rows go
    out in blocks of CSV_BLOCK, each line ending in LF."""
    columns = [_column(c) for c in columns]
    lengths = {len(v if i is None else i) for v, i in columns}
    if len(lengths) > 1:
        raise ValueError("columns differ in length")
    (n_rows,) = lengths
    # a pair's values are rendered here, once; a plain column block by
    # block (an empty table renders nothing)
    words = [_render(v) if i is not None and n_rows else None
             for v, i in columns]
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for lo in range(0, n_rows, CSV_BLOCK):
            hi = lo + CSV_BLOCK
            fh.write(_block_bytes([_render(v[lo:hi]) if i is None
                                   else w[i[lo:hi]]
                                   for (v, i), w in zip(columns, words)]))
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


def write_manifest(out_dir: Path, scenario: str, config: dict, files) -> Path:
    """files: paths inside out_dir; entries are sorted by path so the
    manifest itself is reproducible."""
    entries = sorted((file_entry(out_dir, p) for p in files),
                     key=lambda e: e["path"])
    manifest = {
        "scenario": scenario,
        "config": config,
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
