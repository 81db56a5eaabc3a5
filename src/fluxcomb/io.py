"""Deterministic run output: CSV tables and a manifest.

A table is written from equal-length columns in blocks of CSV_BLOCK rows:
a float cell exactly as '%.12e' % x renders it, an integer cell as %d and
a str cell as is, in UTF-8 with LF line endings, so identical
configurations give byte-identical files.

Each write_csv call allocates one workspace, sized to its first block,
and renders every block into it: a (rows, words) uint32 matrix of
NUL-padded UTF-8 held in a bytearray, whose ',' word after each column
and newline word at each row end are set once; the scratch arrays of the
float path; and a word buffer and a row index for the gathered columns.
A column is rendered in one of two ways. The plain float columns of a
block go through the float path together, as many in one pass as
CSV_BLOCK values fill, with no Python formatting per cell. Every other
column is rendered once per distinct value (an integer cell as its
str(), which reads as %d), and each block gathers its rows' word rows:
np.unique splits a plain integer or str column into its distinct values
and a row index, and a caller passes a (values, index) pair for a float
coordinate repeated over the rows, whose grid order must stay, or for a
long repeated index column, which np.unique would sort. Each column's
words are copied into its slice of the matrix, and the block goes out in
one write as the bytearray with its NULs dropped by bytes.translate.
Past the first block, what a block allocates is that result, and the
index list of the few cells rendered through %. NumPy offers no cheaper
way to drop the NULs into a reused buffer: compress first builds an
8-byte index per kept byte, and boolean indexing is slower than
translate.

A float x != 0 has the 13 significant digits M = round(v), where
v = |x| 10^(12-E) and E = floor(log10|x|). v is taken as one rounded
product p = fl(y h) of y = |x| and h = 10^(12-E) correctly rounded (from
Python's int division). Each of the two roundings is off by at most
2^-53 relatively and v < 10^13, so |p - v| < 10^13 (2^-52 + 2^-106)
< 2.3e-3; p - m is exact for m = rint(p), so m = M wherever
|p - m| <= 0.5 - 2^-8. A |x| below 1e-280, subnormals included, is first
scaled by the exact power of two 2^1000 against an h divided by 2^1000,
which keeps both in the normal range; above 1e280 the plain product
stays in range. A v that rounds up to 10^13 carries, as % does, into
M = 10^12 at E + 1. The words come from tables: the sign, first digit,
point and second digit; two groups of four digits; the last three digits
and 'e'; the exponent. 0.0 and -0.0 take the same path. Python's '%.12e'
renders the cells this cannot: a non-finite value; a log10 within 1e-10
of an integer, which may floor to a wrong E (log10 itself is off by far
less); and a p within 2^-8 of a half, where v may round either way or be
an exact tie (% rounds half to even). On the seed-0 tables of the
benchmark's three workloads that is 0.36-0.46% of the float cells.
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

# a |x| below 10^-_FAST_EXP is scaled by 2^_SCALE
_FAST_EXP = 280
_SCALE = 1000
# decimal exponents of the rendered cells
_E_MIN, _E_MAX = -324, 308
# p is within 2.3e-3 of v, so a p this close to a half may round either
# way, or v may be an exact tie
_TIE_MARGIN = 2.0 ** -8
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
    """The word tables and the powers of ten, built on first use: a few
    ms, mostly the correctly rounded 10^k from Python's int division."""
    n = np.arange(10000)
    quad = _digits(n, [1000, 100, 10, 1])
    e = np.arange(_E_MIN, _E_MAX + 1)
    lead = _digits(n[:200], [10, 1])
    return SimpleNamespace(
        # the float words, one table at offsets _HEAD, _QUAD, _TAIL, _EXP:
        # '-' or nothing, first digit, '.', second digit, indexed by
        # 100 * negative + the first two digits; four digits; the last
        # three digits and 'e'; the sign and two or three digits of
        # exponent _E_MIN + index
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
        # 10^(12-E) at index E - _E_MIN, correctly rounded, and divided by
        # 2^_SCALE for an E below -_FAST_EXP
        pow10=np.array([
            10 ** max(12 - j, 0)
            / (10 ** max(j - 12, 0) * 2 ** (_SCALE if j < -_FAST_EXP else 0))
            for j in range(_E_MIN, _E_MAX + 1)]))


def _scratch(n: int) -> SimpleNamespace:
    """Working memory of _float_words for up to n values."""
    return SimpleNamespace(x=np.empty(n), f=np.empty((4, n)),
                           i=np.empty((4, n), np.int64),
                           b=np.empty((3, n), bool),
                           words=np.empty(5 * n, np.uint32))


def _float_words(x: np.ndarray, s: SimpleNamespace) -> np.ndarray:
    """(5, rows) words of '%.12e' % x, written into the scratch s, which
    has room for len(x) values and holds none of them."""
    t = _tables()
    n = len(x)
    y, lg, p, m = (a[:n] for a in s.f)
    e, d, q, r = (a[:n] for a in s.i)
    zero, slow, mask = (a[:n] for a in s.b)
    words = s.words[:5 * n].reshape(5, n)
    np.abs(x, out=y)
    np.equal(y, 0.0, out=zero)
    np.isfinite(y, out=slow)
    np.logical_not(slow, out=slow)
    # 2.0, whose log10 is far from an integer, stands in for a zero or
    # non-finite cell, which the words ignore
    np.logical_or(slow, zero, out=mask)
    np.copyto(y, 2.0, where=mask)
    # E = floor(log10 |x|); log10 is off by far less than 1e-10, so only a
    # log that close to an integer may floor to a wrong E, and goes to %
    np.log10(y, out=lg)
    np.floor(lg, out=p)
    np.copyto(e, p, casting="unsafe")
    np.rint(lg, out=p)
    p -= lg
    np.abs(p, out=p)
    np.less(p, 1e-10, out=mask)
    slow |= mask
    # below 10^-_FAST_EXP, y = |x| 2^_SCALE exactly, against a 10^(12-E)
    # divided by 2^_SCALE in the table
    np.less(e, -_FAST_EXP, out=mask)
    np.multiply(y, 2.0 ** _SCALE, out=y, where=mask)
    # p = fl(y fl(10^(12-E))) is within 2.3e-3 of v, and p - m is exact
    np.subtract(e, _E_MIN, out=d)
    np.take(t.pow10, d, out=p, mode="clip")
    p *= y
    np.rint(p, out=m)
    p -= m
    np.abs(p, out=p)
    np.greater(p, 0.5 - _TIE_MARGIN, out=mask)
    slow |= mask
    np.equal(m, 1e13, out=mask)
    np.copyto(m, 1e12, where=mask)
    e += mask
    np.copyto(m, 0.0, where=zero)
    np.copyto(e, 0, where=zero)
    # the words, each looked up at index r: the last three digits and 'e',
    # two groups of four digits, the sign and first two digits, and the
    # exponent
    np.copyto(d, m, casting="unsafe")
    for row, div, offset in ((3, 1000, _TAIL), (2, 10000, _QUAD),
                             (1, 10000, _QUAD)):
        np.floor_divide(d, div, out=q)   # divmod does not divide as fast
        np.multiply(q, -div, out=r)
        r += d
        r += offset
        np.take(t.floats, r, out=words[row], mode="clip")
        d, q = q, d
    np.signbit(x, out=mask)
    np.multiply(mask, 100, out=r)
    r += d
    np.take(t.floats, r, out=words[0], mode="clip")
    np.add(e, _EXP - _E_MIN, out=r)
    np.take(t.floats, r, out=words[4], mode="clip")
    # the rest through %: non-finite cells, a log10 near an integer and a
    # p near a half
    if slow.any():
        cells = np.flatnonzero(slow)
        text = b"".join(("%.12e" % v).encode().ljust(20, b"\0")
                        for v in x[cells].tolist())
        words[:, cells] = np.frombuffer(text, np.uint32).reshape(-1, 5).T
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
    """(rows, words) of a column's cells, an integer as its str(); the
    writer renders integer and str columns once per distinct value."""
    if c.dtype.kind == "f":
        return _float_words(c, _scratch(len(c))).T.copy()
    if c.dtype.kind != "U":
        c = np.array([str(x) for x in c.tolist()], dtype=str)
    return _str_words(c)


def _column(c) -> tuple:
    """A write_csv column as (values, index): index is None for a plain
    float column, and a plain integer or str column becomes its distinct
    values and a row index."""
    values, index = c if isinstance(c, tuple) else (c, None)
    values = np.asarray(values)
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
    if values.ndim != 1 or values.dtype.kind not in "fiuU":
        raise TypeError(f"not a float, integer or str column: {values.dtype}")
    if index is None and values.dtype.kind != "f":
        return np.unique(values, return_inverse=True)
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
    len(index) rows. Every column but a plain float one is rendered once
    per distinct value, not once per row. Rows go out in blocks of
    CSV_BLOCK, each line ending in LF."""
    columns = [_column(c) for c in columns]
    lengths = {len(v if i is None else i) for v, i in columns}
    if len(lengths) > 1:
        raise ValueError("columns differ in length")
    (n_rows,) = lengths
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        if n_rows:
            _write_blocks(fh, columns, n_rows)
    return Path(path)


def _write_blocks(fh, columns: list, n_rows: int) -> None:
    """Render the rows of `columns` block by block into one workspace and
    write each block's bytes."""
    t = _tables()
    # every column but a plain float one is rendered once, here
    rendered = [None if i is None else _render(v) for v, i in columns]
    widths = [5 if w is None else w.shape[1] for w in rendered]
    ends = np.cumsum(widths) + np.arange(1, len(widths) + 1)
    rows = min(n_rows, CSV_BLOCK)
    # the block's text, NULs included, is the bytearray's memory
    text = bytearray(4 * rows * ends[-1])
    matrix = np.frombuffer(text, np.uint32).reshape(rows, -1)
    matrix[:, ends - 1] = t.comma
    matrix[:, -1] = t.newline
    cells = [matrix[:, end - 1 - width:end - 1]
             for width, end in zip(widths, ends)]
    # the plain float columns go through _float_words together, as many at
    # a time as CSV_BLOCK values fill
    floats = [k for k, w in enumerate(rendered) if w is None]
    group = max(1, CSV_BLOCK // rows)
    scratch = _scratch(rows * min(group, len(floats)))
    gathered = np.empty(rows * max(widths), np.uint32)
    index = np.empty(rows, np.intp)
    for lo in range(0, n_rows, CSV_BLOCK):
        n = min(CSV_BLOCK, n_rows - lo)
        for g in range(0, len(floats), group):
            ks = floats[g:g + group]
            x = scratch.x[:len(ks) * n].reshape(len(ks), n)
            for row, k in zip(x, ks):
                row[:] = columns[k][0][lo:lo + n]
            words = _float_words(x.reshape(-1), scratch).reshape(
                5, len(ks), n)
            for j, k in enumerate(ks):
                cells[k][:n] = words[:, j].T
        for (_, i), w, c in zip(columns, rendered, cells):
            if w is not None:
                # np.take would copy an index that is not intp
                np.copyto(index[:n], i[lo:lo + n])
                c[:n] = np.take(w, index[:n], axis=0, mode="clip",
                                out=gathered[:n * w.shape[1]].reshape(n, -1))
        fh.write((text if n == rows else text[:4 * n * ends[-1]])
                 .translate(None, b"\0"))


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
