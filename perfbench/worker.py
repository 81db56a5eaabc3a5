"""One benchmark pass in a fresh process: cold import, then the workload's
operations, in order, with tracing on or off.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the operations (CLI argv, or a public call's plain arguments),
each with its output directory, and whether to trace. RESULT receives the
set-up time, the wall time of the operation list, the peak resident set
size, each operation's outcome and, when traced, the per-layer figures.
Outputs are checked by the runner, not here.
"""

import json
import sys
import time

t_import = time.perf_counter()
import fluxcomb  # noqa: E402
import fluxcomb.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - t_import

import ctypes  # noqa: E402
import glob  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402


def public_call(op: dict):
    """Build a public call's arguments from plain numbers and make it."""
    from fluxcomb import line
    if op["call"] != "line.isolation_report":
        raise ValueError(f"unknown public call {op['call']!r}")
    geom = line.LineGeometry(n_cells=op["n_cells"])
    omega = 2.0 * math.pi * op["source_hz"]
    drive = line.FluxDrive(
        phi_dc_tilde=op["phi_dc"], phi_rf_tilde=op["phi_rf"],
        kappa_s=2.0 * math.pi * op["spatial_periods"] / geom.length,
        omega_s=omega)
    report = line.isolation_report(geom, drive, omega)
    return {str(h): db for h, db in report.items()}


def run_op(op: dict) -> dict:
    out = {"exit_code": 0}
    try:
        if "argv" in op:
            out["exit_code"] = fluxcomb.cli.main(op["argv"])
        else:
            out["result"] = public_call(op)
    except SystemExit as exc:     # argparse rejecting the argv
        out["exit_code"] = exc.code
    except Exception:
        out["error"] = traceback.format_exc(limit=4)
    return out


def blas_threads():
    """OpenBLAS thread count from the library NumPy loaded, or None."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "backend": fluxcomb.BACKEND,
        "fluxcomb_file": fluxcomb.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def main():
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(spec["run_id"])
        tracing.instrument(tracer)

    outcomes = []
    t0 = time.perf_counter()
    for k, op in enumerate(spec["ops"]):
        if tracer is None:
            outcomes.append(run_op(op))
        else:
            with tracer.operation(f"{k:02d}"):
                outcomes.append(run_op(op))
    wall_s = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "outcomes": outcomes,
        "environment": environment(),
    }
    if tracer is not None:
        tracer.write(spec["spans_path"])
        result["self_times"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["absent"] = tracer.absent
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
