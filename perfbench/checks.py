"""Output checks for one benchmark pass.

Every operation is checked on the first pass of a run:
  * its manifest: each listed file exists with the recorded sha256 and size;
  * invariants that hold on every seed: all values finite, scores, Ramsey
    contrasts and echoes in [0, 1], levels ascending from 0, and
    |isolation| < 1 dB for a kappa_s = 0 reciprocal control;
  * on the seeds that have a recorded reference (reference/*.json), a
    comparison with the values recorded there.
Later passes of the run repeat the same inputs, so their outputs are checked
for being byte-identical to the first pass (by the manifest's sha256, each
verified against its file), which also catches nondeterminism.

Reference values are a summary per CSV column (evenly spaced sample rows,
quantiles and, for scores, the peak rows) so the files stay small.
Tolerances are per column: |got - ref| <= abs + rel * scale, with scale
the largest |value| the reference holds for that column. They are wide
enough for the numerically equivalent changes planned on the roadmap and
tight enough to catch a wrong answer:
  * score: 0.03 absolute. Replacing the FluxCurve interpolation with exact
    solves moves scores by <= 0.024 (omega by <= 2.8 MHz, about 0.06 of the
    50 MHz resonance width); the LAPACK eigensolver moves them by <= 1.3e-9
    relative.
  * freq_hz: 1e-8 relative. The LAPACK swap leaves levels.csv
    byte-identical; exact calibration root-finds pin levels to ~1e-12.
  * contrast, echo: 1e-9 absolute; s_omega 1e-9 relative. Spectroscopy as
    matrix products moves these by <= 1.6e-14 absolute.
  * rho00: 1e-7 absolute; gamma_eff_hz: 1e-5 relative. A closed-form
    memory kernel differs from the RK4 integration by ~1e-10 in amplitude.
  * v_volts, i_amps, power_abs: 1e-6 relative; power_dbc: 0.01 dB. A
    batched or angle-addition stepper changes rounding only.
  * isolation_report values: 0.5 dB absolute, the band of acceptance 3.
  * everything else (grids, budgets, scalability): 1e-9 relative.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

SAMPLE_ROWS = 16
PEAK_ROWS = 16
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)
PEAK_COLUMNS = ("score",)

DEFAULT_TOL = (0.0, 1e-9)
COLUMN_TOL = {
    "score": (0.03, 0.0),
    "freq_hz": (0.0, 1e-8),
    "contrast": (1e-9, 0.0),
    "echo": (1e-9, 0.0),
    "s_omega": (0.0, 1e-9),
    "rho00": (1e-7, 0.0),
    "gamma_eff_hz": (0.0, 1e-5),
    "v_volts": (0.0, 1e-6),
    "i_amps": (0.0, 1e-6),
    "power_abs": (0.0, 1e-6),
    "power_dbc": (0.01, 0.0),
}
ISOLATION_TOL_DB = 0.5
CONTROL_LIMIT_DB = 1.0
UNIT_INTERVAL = ("score", "contrast", "echo")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def _read_csv(path: Path):
    """Header and columns; a column is a list of floats, or of strings when
    any cell is not a number."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = []
    for j in range(len(header)):
        cells = [r[j] for r in body]
        try:
            columns.append([float(c) for c in cells])
        except ValueError:
            columns.append(cells)
    return header, columns


def _sample_rows(n: int) -> list[int]:
    if n <= SAMPLE_ROWS:
        return list(range(n))
    return sorted({round(k * (n - 1) / (SAMPLE_ROWS - 1))
                   for k in range(SAMPLE_ROWS)})


def _quantile(sorted_vals, q):
    return sorted_vals[round(q * (len(sorted_vals) - 1))]


def summarize_csv(header, columns) -> dict:
    n = len(columns[0]) if columns else 0
    rows = _sample_rows(n)
    peaks = []
    for name, col in zip(header, columns):
        if name in PEAK_COLUMNS:
            peaks = sorted(range(n), key=lambda r: -col[r])[:PEAK_ROWS]
    summary = {"rows": n, "header": header, "sample_rows": rows,
               "peak_rows": peaks, "columns": {}}
    for name, col in zip(header, columns):
        entry = {"samples": [col[r] for r in rows],
                 "peaks": [col[r] for r in peaks]}
        if col and not isinstance(col[0], str):
            ordered = sorted(col)
            entry["quantiles"] = [_quantile(ordered, q) for q in QUANTILES]
        summary["columns"][name] = entry
    return summary


def compare_csv(header, columns, ref: dict, label: str) -> list[str]:
    """Compare a produced CSV with the reference summary, at the
    reference's sample and peak rows and on whole-column quantiles."""
    n = len(columns[0]) if columns else 0
    if header != ref["header"] or n != ref["rows"]:
        return [f"{label}: header/rows {header}/{n} != "
                f"{ref['header']}/{ref['rows']}"]
    errors = []
    for name, col in zip(header, columns):
        if not col:
            continue
        r = ref["columns"][name]
        pairs = [(col[k], v) for k, v in zip(ref["sample_rows"],
                                             r["samples"])]
        pairs += [(col[k], v) for k, v in zip(ref["peak_rows"], r["peaks"])]
        if isinstance(col[0], str):
            bad = [(a, b) for a, b in pairs if a != b]
        else:
            ordered = sorted(col)
            pairs += [(_quantile(ordered, q), v)
                      for q, v in zip(QUANTILES, r["quantiles"])]
            scale = max(abs(v) for _, v in pairs)
            tol_abs, tol_rel = COLUMN_TOL.get(name, DEFAULT_TOL)
            bad = [(a, b) for a, b in pairs
                   if not abs(a - b) <= tol_abs + tol_rel * scale]
        if bad:
            errors.append(f"{label}:{name}: {len(bad)} value(s) off the "
                          f"reference, first {bad[0][0]!r} vs {bad[0][1]!r}")
    return errors


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out_dir: Path) -> tuple[list[str], dict]:
    """Errors, and the sha256 of every file the manifest names."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    errors, hashes = [], {}
    for entry in manifest["files"]:
        path = out_dir / entry["path"]
        hashes[entry["path"]] = entry["sha256"]
        if not path.is_file():
            errors.append(f"manifest names missing {entry['path']}")
        elif (_sha256(path) != entry["sha256"]
              or path.stat().st_size != entry["bytes"]):
            errors.append(f"sha256/size mismatch for {entry['path']}")
    return errors, hashes


def invariant_errors(name: str, header, columns) -> list[str]:
    errors = []
    for col_name, col in zip(header, columns):
        if not col or isinstance(col[0], str):
            continue
        if not all(math.isfinite(v) for v in col):
            errors.append(f"{name}:{col_name} has non-finite values")
        elif col_name in UNIT_INTERVAL and not all(
                0.0 <= v <= 1.0 for v in col):
            errors.append(f"{name}:{col_name} leaves [0, 1]")
    if name == "levels.csv":
        levels = columns[header.index("freq_hz")]
        if levels[0] != 0.0 or any(b <= a for a, b in zip(levels,
                                                          levels[1:])):
            errors.append("levels.csv: levels not ascending from 0")
    return errors


def check_csvs(out_dir: Path, ref_files: dict | None,
               summaries: dict | None) -> list[str]:
    """Invariant errors of every CSV, plus differences from the reference
    summaries when given; fills `summaries` when given."""
    errors = []
    paths = sorted(out_dir.glob("*.csv"))
    if ref_files is not None and [p.name for p in paths] != sorted(ref_files):
        errors.append(f"files {[p.name for p in paths]} != "
                      f"{sorted(ref_files)}")
        ref_files = None
    for path in paths:
        header, columns = _read_csv(path)
        errors += invariant_errors(path.name, header, columns)
        if ref_files is not None:
            errors += compare_csv(header, columns, ref_files[path.name],
                                  path.name)
        if summaries is not None:
            summaries[path.name] = summarize_csv(header, columns)
    return errors


def check_isolation(op: dict, result: dict, ref_result: dict | None
                    ) -> list[str]:
    errors = []
    if not all(math.isfinite(v) for v in result.values()):
        errors.append(f"isolation {result} not finite")
    elif op["spatial_periods"] == 0.0 and any(
            abs(v) >= CONTROL_LIMIT_DB for v in result.values()):
        errors.append(f"kappa_s = 0 control not reciprocal: {result}")
    if ref_result is not None:
        errors += [f"isolation at harmonic {h}: {result.get(h)} vs "
                   f"{v:.3f} dB" for h, v in ref_result.items()
                   if not abs(result.get(h, math.inf) - v)
                   <= ISOLATION_TOL_DB]
    return errors
