"""The benchmark's workloads: which operations each one runs, drawn from a
seed, and why the workload exists.

An operation is either a CLI call, given as the argv that goes to
`fluxcomb.cli.main`, or a public library call, given as the plain numbers
its arguments are built from. The program sees nothing else. Output
directories are appended by the runner, one per operation.
"""

import json
import random

SOURCE_HZ = 3e9

# Line sizing. A 1024-cell line is the cap: 2048 cells at phi_rf = 0.6 blow
# up from parametric gain even at kappa_s = 0, and so does 1024 cells at
# phi_rf = 0.6 over 30 ns. A 30 ns line-sim at 1024 cells also blows up at
# (phi_dc, phi_rf) = (0.7, 0.45), so line-sim keeps phi_dc <= 0.6; its
# largest field there stays 15x under the blowup ceiling.
LINE_SIM_CELLS = 1024
LINE_SIM_T_END_S = 3e-8
LINE_SIM_SNAPSHOTS = [1.5e-9 * (k + 1) for k in range(20)]

# `line-sim --set run.spectrum=temporal` exits 2 on its own defaults: the
# run stops at t_end = 5.4 ns, after the default 2.7 ns window start, and
# harmonic_spectrum refuses a window that starts before the simulator time
# (a window starting exactly at t_end can also fail by rounding). Temporal
# runs here therefore place the window after t_end; the defaults are left
# as they are. The window adds 3.5 ns of stepping, so these runs keep
# phi_rf <= 0.3, where the field stays far under the ceiling.
TEMPORAL_WINDOW_S = (3.05e-8, 3.35e-8)

RATIONALE = {
    "line-isolation": (
        "About 90% of the time is in the leapfrog stepper; transmon and "
        "nonmarkov do no work, so their changes should not move it. Two "
        "halves of similar cost: 12 isolation_report calls (forward and "
        "backward runs are independent, so batchable) at 512 and 1024 "
        "cells, one kappa_s = 0 reciprocal control per size; and 6 "
        "sequential line-sim runs (not batchable) at 1024 cells over 30 ns "
        "with 20 snapshots each, so many small CSV files. The line is capped "
        "at 1024 cells because longer or harder-driven lines blow up from "
        "parametric gain; two line-sim runs use a temporal spectrum with "
        "the window after t_end, because the packaged temporal defaults "
        "exit 2 (see workloads.py)."),
    "transmon-map": (
        "About 85% of the time is in charge-basis eigensolves, used three "
        "ways: a cold FluxCurve table for a seeded ec_hz, exact calibration "
        "root-finds in default_comb_qubits, and dense evaluation of the "
        "cached map (a 221x161 flux-sweep, which also makes io write a "
        "10.5 MB CSV). A change that trades the table for a per-point "
        "solve pays on the dense grid. Addressing, error-budget and "
        "scalability calls complete the transmon and budget layers."),
    "noise-spectroscopy": (
        "Almost all of the time is in nonmarkov: Ramsey and echo ensemble "
        "phase integrals and 40 noise syntheses in spectroscopy at a "
        "seeded --seed, plus the memory-kernel integration at defaults and "
        "at 40001 points with smoothing. Line and transmon changes should "
        "leave it unchanged."),
}

WORKLOADS = tuple(RATIONALE)


def _isolation_call(n_cells, phi_dc, phi_rf, spatial_periods):
    return {"call": "line.isolation_report", "n_cells": n_cells,
            "phi_dc": phi_dc, "phi_rf": phi_rf,
            "spatial_periods": spatial_periods, "source_hz": SOURCE_HZ}


def _cli(*argv):
    return {"argv": list(argv)}


def line_isolation(rng):
    ops = []
    for n_cells in (512, 1024):
        # phi_dc is stratified over [0.4, 0.7] so the step count, which
        # follows the dc phase velocity, barely moves with the seed
        for k in range(5):
            phi_dc = rng.uniform(0.4 + 0.06 * k, 0.46 + 0.06 * k)
            ops.append(_isolation_call(n_cells, phi_dc,
                                       rng.uniform(0.1, 0.6), 3.0))
        ops.append(_isolation_call(n_cells, rng.uniform(0.4, 0.7),
                                   rng.uniform(0.1, 0.6), 0.0))
    for k in range(6):
        temporal = k >= 4
        phi_rf = rng.uniform(0.15, 0.3 if temporal else 0.45)
        argv = ["line-sim",
                "--set", f"geometry.n_cells={LINE_SIM_CELLS}",
                "--set", f"run.t_end_s={LINE_SIM_T_END_S!r}",
                "--set", f"drive.phi_dc={rng.uniform(0.4, 0.6)!r}",
                "--set", f"drive.phi_rf={phi_rf!r}",
                "--set", "run.snapshot_times_s="
                + json.dumps(LINE_SIM_SNAPSHOTS)]
        if temporal:
            argv += ["--set", "run.spectrum=temporal",
                     "--set", f"run.window_start_s={TEMPORAL_WINDOW_S[0]!r}",
                     "--set", f"run.window_end_s={TEMPORAL_WINDOW_S[1]!r}"]
        ops.append(_cli(*argv))
    return ops


def transmon_map(rng):
    ec = f"ec_hz={rng.choice([2.2e8, 2.5e8, 2.8e8])!r}"
    ops = [
        _cli("flux-sweep", "--set", ec),
        _cli("flux-sweep", "--set", ec, "--set", "phi_dc.n=221",
             "--set", "phi_rf.n=161"),
    ]
    ops += [_cli("addressing", "--set", ec,
                 "--set", f"bias_phi_dc={rng.uniform(0.8, 1.1)!r}")
            for _ in range(6)]
    ops += [_cli("error-budget", "--set", f"bus={bus}")
            for bus in ("nonreciprocal", "reciprocal")]
    ops.append(_cli("scalability"))
    return ops


def noise_spectroscopy(rng):
    return [
        _cli("spectroscopy", "--seed", str(rng.randrange(1_000_000))),
        _cli("nonmarkov"),
        _cli("nonmarkov", "--set", "n_points=40001",
             "--set", "smoothing_window=41"),
    ]


_GENERATORS = {
    "line-isolation": line_isolation,
    "transmon-map": transmon_map,
    "noise-spectroscopy": noise_spectroscopy,
}


def operations(workload: str, seed: int) -> list[dict]:
    """The workload's operations for this seed; the same seed gives the
    same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def op_name(op: dict) -> str:
    return op["call"] if "call" in op else op["argv"][0]
