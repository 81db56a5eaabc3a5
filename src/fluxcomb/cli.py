"""Command-line front end.

    fluxcomb <scenario> [--config FILE] [--set key.path=value ...]
                        [--out DIR] [--seed N]

Every scenario starts from the packaged defaults (data/defaults.json),
deep-merges the user config over them, then each --set override, and
writes CSV tables plus a manifest.json with sha256 checksums into --out.
Each value is checked as it is merged: an unknown key exits 2 with its
dotted path, and a value must have the type of its default and keep its
bound in BOUNDS, if any, even when a later --set replaces it. --seed N
is a last `--set seed=N`: only spectroscopy has a seed, and elsewhere it
exits 2 as an unknown key.

BOUNDS is the one place where a bound on one key is checked. The library
checks only what ties values together, the float range of values it
derives, choices among strings and rules BOUNDS cannot state; _keys
names the config keys of those messages.

Exit codes: 0 success, 2 bad configuration, 3 numerical failure, 4
filesystem trouble.
"""

import argparse
import contextlib
import copy
import functools
import importlib.resources
import json
import math
import operator
import re
import sys
from pathlib import Path

import numpy as np

from . import budget, io, line, nonmarkov, transmon
from .errors import ConfigError, NumericalError, shown

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- config

@functools.cache
def _packaged_defaults() -> dict:
    """data/defaults.json, read and parsed once per process. Shared: read
    it, or change a copy."""
    ref = importlib.resources.files("fluxcomb") / "data" / "defaults.json"
    return json.loads(ref.read_text())


def merge_config(base: dict, user: dict, path: str = "") -> dict:
    """A new config, `user` deep-merged over `base`, which is not written.
    Each key must exist in base, and each leaf is checked as it is placed,
    against the type of the leaf it replaces (see _typed) and against its
    bound in BOUNDS, if any."""
    out = dict(base)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {shown(here)}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be an object")
            out[key] = merge_config(base[key], value, here)
        else:
            out[key] = _typed(value, base[key], here)
            if here in BOUNDS:
                _bounded(out[key], here)
    return out


def apply_override(config: dict, assignment: str) -> dict:
    """config with one --set key.path=value merged over it, as a --config
    file holding only that value would be."""
    if "=" not in assignment:
        raise ConfigError("--set needs key.path=value, got "
                          + shown(assignment))
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):    # nested too deep to parse
        value = raw
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return merge_config(config, value)


_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", list: "a list"}


def _typed(value, default, where: str):
    """value, checked against the type of `default`: a bool takes
    true/false, an int a JSON integer, a float any finite number (stored
    as a float; JSON's NaN and Infinity are rejected), a string a string,
    and a list a list whose items match the default's first item (numbers
    when the default list is empty)."""
    want = type(default)
    if want is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{where!r} is out of float range") from None
    if type(value) is not want:
        raise ConfigError(f"{where!r} must be {_KINDS[want]}, got "
                          + shown(value))
    if want is float and not math.isfinite(value):
        raise ConfigError(f"{where!r} must be finite, got {value!r}")
    if want is list:
        item = default[0] if default else 0.0
        return [_typed(v, item, f"{where}[{k}]") for k, v in enumerate(value)]
    return value


# single-leaf bounds by dotted key, checked with the types and before any
# work: the one place where a config leaf, as written, meets a constant. A
# key means the same in every scenario that has it. An entry holds rules on
# the value (on a list, on its length): "> 0", "<= 193", ">= 5 and <= 8388608".
_F_MOD_TOP = sys.float_info.max / TWO_PI    # the largest f with finite 2 pi f
# the largest ec whose charge-basis diagonal 4 ec n^2 is finite at every cut
_EC_TOP = sys.float_info.max / (4 * transmon._MAX_CHARGE_CUT ** 2)
# the flux bias's keep-out from the secant singularity at pi/2
_PHI_DC_TOP = 0.5 * math.pi - line.SECANT_MARGIN
# a noise band's edges and notch centre: their squares are normal floats
_F_LO, _F_HI = f">= {nonmarkov._F_MIN}", f"<= {nonmarkov._F_MAX}"
BOUNDS = {
    "geometry.n_cells": f">= 16 and <= {line.MAX_CELLS}",
    "geometry.dz_m": "> 0", "geometry.c_per_length_f_per_m": "> 0",
    "geometry.i0_amps": "> 0",
    "drive.phi_dc": f"> {-_PHI_DC_TOP} and < {_PHI_DC_TOP}",
    "drive.phi_rf": ">= 0",
    "drive.modulation_freq_hz": f">= {-_F_MOD_TOP} and <= {_F_MOD_TOP}",
    "source.freq_hz": "> 0", "source.amplitude_volts": "> 0",
    "source.t_width_s": "> 0", "source.ramp_periods": ">= 0",
    "run.cfl_safety": f"> 0 and <= {line.MAX_CFL_SAFETY}",
    "run.n_harmonics": ">= 1", "run.window_start_s": ">= 0",
    # snapshot_NNN.csv: three digits
    "run.snapshot_times_s": "<= 1000",
    # one qubit per harmonic, as many as a budget array holds
    "harmonic_indices": f">= 1 and <= {budget.MAX_QUBITS}",
    "phi_dc.n": ">= 1", "phi_rf.n": ">= 1",
    "phi_rf.start": ">= 0", "phi_rf.stop": ">= 0",
    # omega_q and the anharmonicity need three levels; the charge basis
    # converges for at most MAX_LEVELS
    "n_levels": f">= 3 and <= {transmon.MAX_LEVELS}",
    "ec_hz": f"> 0 and <= {_EC_TOP}",
    "array.n_qubits": f">= 1 and <= {budget.MAX_QUBITS}",
    "array.t1_intrinsic_s": "> 0", "array.t2_intrinsic_s": "> 0",
    "array.t_gate_s": "> 0", "array.lambda_c_m": "> 0",
    "array.kappa_bus_hz": "> 0",
    "n_min": ">= 1", "n_max": f"<= {budget.MAX_QUBITS}",
    # one sweep a bus kind
    "models": f">= 1 and <= {len(budget._BUSES)}",
    "t_end_s": "> 0",
    # the kernel trace's complex amplitude holds two floats a point
    "n_points": f">= 5 and <= {nonmarkov.MAX_ARRAY // 2}",
    "kernel.gamma_memory_hz": "> 0", "kernel.amplitude_over_gamma_sq": ">= 0",
    "kernel.markovian_ratio": ">= 0",
    "seed": ">= 0", "n_realizations": ">= 200",
    "one_over_f.amplitude_rad2_per_s2": ">= 0",
    "one_over_f.f_min_hz": _F_LO, "one_over_f.f_max_hz": _F_HI,
    "one_over_f.n_components": ">= 100",
    "filtered.amplitude_rad2_per_s2": ">= 0",
    "filtered.f_min_hz": _F_LO, "filtered.f_max_hz": _F_HI,
    "filtered.n_components": ">= 100",
    "filtered.filter_center_hz": f"{_F_LO} and {_F_HI}",
    "tau.n": ">= 2", "tau.start_s": "> 0", "tau.stop_s": "> 0",
    "spectrum.n_avg": ">= 1", "spectrum.dt_s": "> 0",
}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le}


def _bounded(value, where: str):
    size = len(value) if type(value) is list else value
    if not all(_COMPARE[op](size, float(bound)) for op, bound in
               map(str.split, BOUNDS[where].split(" and "))):
        raise ConfigError(f"{where!r} must "
                          + ("have length " if type(value) is list else "be ")
                          + f"{BOUNDS[where]}, got {shown(value)}")


def resolve_config(scenario: str, config_path, overrides) -> dict:
    # a copy: no run writes into the cached defaults
    config = copy.deepcopy(_packaged_defaults()[scenario])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        config = merge_config(config, user)
    for assignment in overrides or ():
        config = apply_override(config, assignment)
    return config


def _quoted(keys) -> str:
    return ", ".join(f"'{k}'" for k in keys)


@contextlib.contextmanager
def _keys(**fields):
    """Name the config keys of a ConfigError raised by the library, whose
    messages start with the library's own field name and name any other
    field a constraint ties it to: `fields` maps those names to dotted
    keys, and every key the message names is listed, the first word's
    first. Other ConfigErrors pass through unchanged."""
    try:
        yield
    except ConfigError as exc:
        words = re.findall(r"\w+", str(exc))
        if not words or words[0] not in fields:
            raise
        keys = dict.fromkeys(fields[w] for w in words if w in fields)
        raise ConfigError(_quoted(keys) + f": {exc}") from None


def _count(n: int) -> str:
    return f"{n:.3g}" if n < 1e300 else "more than 1e300"


def _check_work(sizes):
    """The preflight of a run, before anything is allocated: each entry
    of `sizes` is (what, unit, cap, size, keys), and the first size above
    its cap exits 2 naming every key that sets it."""
    for what, unit, cap, size, keys in sizes:
        if size > cap:
            raise ConfigError(_quoted(keys) + f": {what}: {_count(size)} "
                              f"{unit}, above the cap of {cap:.3g}")


def _row_index(n: int, repeat: int, tile: int) -> np.ndarray:
    """Indices 0..n-1, each `repeat` times in a row, the whole `tile`
    times, in the smallest unsigned dtype that holds n - 1."""
    return np.tile(np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)),
                             repeat), tile)


# ------------------------------------------------------------- scenarios

def run_line_sim(config: dict):
    gcfg = config["geometry"]
    geom_keys = dict(n_cells="geometry.n_cells", dz="geometry.dz_m",
                     c_per_length="geometry.c_per_length_f_per_m",
                     i0="geometry.i0_amps")
    with _keys(**geom_keys):
        geom = line.LineGeometry(
            n_cells=gcfg["n_cells"],
            dz=gcfg["dz_m"],
            c_per_length=gcfg["c_per_length_f_per_m"],
            i0=gcfg["i0_amps"])
    dcfg = config["drive"]
    with _keys(phi_dc_tilde="drive.phi_dc", phi_rf_tilde="drive.phi_rf"):
        drive = line.FluxDrive(
            phi_dc_tilde=dcfg["phi_dc"],
            phi_rf_tilde=dcfg["phi_rf"],
            kappa_s=TWO_PI * dcfg["spatial_periods"] / geom.length,
            omega_s=TWO_PI * dcfg["modulation_freq_hz"],
            phase=dcfg["phase_rad"])
    # the modulation basis takes cos and sin of m theta, m below
    # SERIES_SAMPLES / 2, at theta = kappa_s z + phase, 0 < z < length
    theta = abs(drive.kappa_s) * geom.length + abs(drive.phase)
    if not math.isfinite((line.SERIES_SAMPLES // 2 - 1) * theta):
        raise ConfigError("'drive.spatial_periods', 'drive.phase_rad', "
                          "'geometry.n_cells', 'geometry.dz_m': the "
                          "modulation phase m theta is out of float range")
    scfg = config["source"]
    src_keys = dict(kind="source.kind", port="source.port",
                    amplitude="source.amplitude_volts", omega="source.freq_hz",
                    t_center="source.t_center_s", t_width="source.t_width_s",
                    ramp_periods="source.ramp_periods")
    with _keys(**src_keys):
        source = line.SourceSpec(
            kind=scfg["kind"],
            omega=TWO_PI * scfg["freq_hz"],
            amplitude=scfg["amplitude_volts"],
            t_center=scfg["t_center_s"],
            t_width=scfg["t_width_s"],
            port=scfg["port"],
            ramp_periods=scfg["ramp_periods"])
    rcfg = config["run"]
    spectrum_mode = rcfg["spectrum"]
    if spectrum_mode not in ("spatial", "temporal", "none"):
        raise ConfigError(f"'run.spectrum' must be spatial, temporal or "
                          f"none, got {shown(spectrum_mode)}")
    n_max = rcfg["n_harmonics"]
    if rcfg["wavepacket"] and len(rcfg["snapshot_times_s"]) < 2:
        raise ConfigError("'run.wavepacket' needs >= 2 'run.snapshot_times_s'")
    # keys that one mode reads are checked in every mode
    if not rcfg["window_start_s"] < rcfg["window_end_s"]:
        raise ConfigError("need 'run.window_start_s' < 'run.window_end_s'")
    # the keys that set v_dc: the geometry's constants and the flux bias;
    # and those that set dt, where cfl_bound reads |phi_dc| - phi_rf
    v_keys = ["geometry.dz_m", "geometry.c_per_length_f_per_m",
              "geometry.i0_amps", "drive.phi_dc"]
    dt_keys = [*v_keys, "drive.phi_rf", "run.cfl_safety"]
    # cell-steps to t_end, or to the window's end when later, at
    # build_line's dt (a dt that underflows to 0 is build_line's to reject)
    keys = ["geometry.n_cells", *dt_keys, "run.t_end_s"]
    t_stop = rcfg["t_end_s"]
    if spectrum_mode == "temporal":
        t_stop = max(t_stop, rcfg["window_end_s"])
        keys.append("run.window_end_s")
    dt = rcfg["cfl_safety"] * line.cfl_bound(geom, drive)
    _check_work([("line run", "cell-steps", line.MAX_CELL_STEPS,
                  geom.n_cells * (t_stop / dt if dt > 0.0 else 0.0), keys),
                 ("snapshots", "floats", line.MAX_SNAPSHOT_FLOATS,
                  3 * len(rcfg["snapshot_times_s"]) * (geom.n_cells + 1),
                  ("run.snapshot_times_s", "geometry.n_cells"))])
    with _keys(cfl_safety="run.cfl_safety"):
        sim = line.build_line(geom, drive, source,
                              cfl_safety=rcfg["cfl_safety"])

    # harmonics up to the Nyquist limit: pi/dz in space, at v_dc, and
    # 1/(2 dt) in time
    f_src, k_src = source.omega / TWO_PI, source.omega / sim.v_dc
    if k_src == 0.0:
        raise ConfigError(_quoted(["source.freq_hz", *v_keys])
                          + ": the source's wavenumber underflows to 0")
    n_top = {"spatial": math.pi / geom.dz / k_src,
             "temporal": 0.5 / sim.dt / f_src}.get(spectrum_mode, math.inf)
    if n_max > n_top:
        keys = ["run.n_harmonics", "source.freq_hz",
                *(dt_keys if spectrum_mode == "temporal" else v_keys)]
        limit = f"the {spectrum_mode} Nyquist limit"
        what = (f"n_harmonics must be <= {int(n_top)}, {limit}"
                if n_top >= 1.0 else f"even the fundamental is past {limit}")
        raise ConfigError(_quoted(keys) + f": {what}")
    # and by the spatial spectrum's nonzero bins, which a small source
    # frequency does not bound; a temporal window spans >= 8 source
    # periods, so its bins, some 4 / (f dt), already hold the Nyquist limit
    if spectrum_mode == "spatial" and n_max > geom.n_cells // 2:
        raise ConfigError(f"'run.n_harmonics', 'geometry.n_cells': "
                          f"n_harmonics must be <= {geom.n_cells // 2}, the "
                          "spatial spectrum's nonzero bins")
    # the step resolves the modulation in every mode, and the source where
    # no spectrum's Nyquist limit already holds it: f dt < 1/2
    tones = {"drive.modulation_freq_hz": abs(dcfg["modulation_freq_hz"])}
    if spectrum_mode == "none":
        tones["source.freq_hz"] = scfg["freq_hz"]
    for key, f in tones.items():
        if not f * sim.dt < 0.5:
            raise ConfigError(
                _quoted([key, *dt_keys]) + f": f dt = {f * sim.dt:.3g} is "
                f"not below 1/2 at dt = {sim.dt:.3e} s")
    with _keys(**src_keys, **geom_keys, t_end="run.t_end_s",
               snapshot_times="run.snapshot_times_s", probe="run.probe_m",
               window_start="run.window_start_s",
               window_end="run.window_end_s"):
        # the probe is recorded in the same pass as the snapshots, past
        # t_end when the window ends later
        window = ((rcfg["window_start_s"], rcfg["window_end_s"])
                  if spectrum_mode == "temporal" else None)
        t, v, i, record = sim.run_until(
            rcfg["t_end_s"], rcfg["snapshot_times_s"],
            probes=(rcfg["probe_m"],), window=window)
        if spectrum_mode == "spatial":
            dbc, power = line.spatial_harmonics(sim.i[0], sim, n_max)
        elif spectrum_mode == "temporal":
            dbc, power = line.temporal_harmonics(record[:, 0], sim, n_max)
        if rcfg["wavepacket"]:
            metrics = line.wavepacket_metrics(t, i, geom)

    z_mid = (np.arange(geom.n_cells) + 0.5) * geom.dz
    tables = [(f"snapshot_{k:03d}.csv", "z_m,v_volts,i_amps",
               [z_mid, 0.5 * (v_k[:-1] + v_k[1:]), i_k])
              for k, (v_k, i_k) in enumerate(zip(v, i))]
    if spectrum_mode != "none":
        n = np.arange(1, n_max + 1)
        tables.append(("spectrum.csv", "n,freq_hz,power_dbc,power_abs",
                       [n, n * f_src, dbc, power]))
    if rcfg["wavepacket"]:
        # from the second snapshot on: the first has no velocity
        tables.append(("wavepacket.csv",
                       "t_s,centroid_m,rms_width_m,spectral_centroid_radpm,"
                       "peak_velocity_mps", metrics[:, 1:]))
    return tables


def run_flux_sweep(config: dict):
    omega_m = TWO_PI * config["modulation_freq_hz"]
    idx = tuple(config["harmonic_indices"])
    dc, rf = config["phi_dc"], config["phi_rf"]
    n_dc, n_rf = dc["n"], rf["n"]
    _check_work([("addressing map", "points", transmon.MAX_MAP_POINTS,
                  n_dc * n_rf * len(idx),
                  ("phi_dc.n", "phi_rf.n", "harmonic_indices"))])
    # phi_rf's ends are >= 0, so only phi_dc's span can overflow
    if not math.isfinite(dc["stop"] - dc["start"]):
        raise ConfigError("'phi_dc.start', 'phi_dc.stop': the grid's span "
                          "is out of float range")
    with _keys(harmonic_indices="harmonic_indices",
               harmonic="harmonic_indices", omega_m="modulation_freq_hz",
               ec="ec_hz"):
        # calibration first: its range error names every key it depends on
        ej_max = transmon.default_comb_qubits(omega_m, idx,
                                              ec=config["ec_hz"])
        array = budget.QubitArraySpec(n_qubits=len(idx), omega_m=omega_m,
                                      harmonic_indices=idx)
    dc_grid = np.linspace(dc["start"], dc["stop"], n_dc)
    rf_grid = np.linspace(rf["start"], rf["stop"], n_rf)
    score = transmon.addressing_map(array, dc_grid, rf_grid,
                                    config["ec_hz"], ej_max)
    n_q = len(idx)
    # rows run over (phi_dc, phi_rf, qubit), the last fastest; each
    # coordinate is written from its grid and a row index into it
    columns = [(dc_grid, _row_index(n_dc, n_rf * n_q, 1)),
               (rf_grid, _row_index(n_rf, n_q, n_dc)),
               (np.arange(n_q), _row_index(n_q, 1, n_dc * n_rf)),
               score.ravel()]
    return [("addressing_map.csv", "phi_dc,phi_rf,qubit_index,score",
             columns)]


def run_addressing(config: dict):
    omega_m, ec = TWO_PI * config["modulation_freq_hz"], config["ec_hz"]
    bias = config["bias_phi_dc"]
    with _keys(ec="ec_hz", harmonic="harmonic_index",
               omega_m="modulation_freq_hz", ej_max="bias_phi_dc"):
        ej_max = transmon.default_comb_qubits(
            omega_m, (config["harmonic_index"],), ec=ec,
            bias_targets=[bias])[0]
        ej = transmon.ej_time_averaged(ej_max, bias, config["phi_rf"])
        levels = transmon.diagonalize(ec, ej, n_levels=config["n_levels"])
    return [("levels.csv", "level,freq_hz", [np.arange(len(levels)), levels])]


# the config key of each QubitArraySpec field
_ARRAY_KEYS = dict(n_qubits="array.n_qubits",
                   omega_m="array.modulation_freq_hz",
                   t1_intrinsic="array.t1_intrinsic_s",
                   t2_intrinsic="array.t2_intrinsic_s",
                   t_gate="array.t_gate_s", lambda_c="array.lambda_c_m",
                   g_coupling="array.g_coupling_hz",
                   kappa_bus="array.kappa_bus_hz")


def _array_from_config(acfg: dict, n_qubits: int) -> budget.QubitArraySpec:
    with _keys(**_ARRAY_KEYS):
        return budget.QubitArraySpec(
            n_qubits=n_qubits,
            omega_m=TWO_PI * acfg["modulation_freq_hz"],
            t1_intrinsic=acfg["t1_intrinsic_s"],
            t2_intrinsic=acfg["t2_intrinsic_s"],
            g_coupling=TWO_PI * acfg["g_coupling_hz"],
            kappa_bus=TWO_PI * acfg["kappa_bus_hz"],
            t_gate=acfg["t_gate_s"],
            lambda_c=acfg["lambda_c_m"])


def run_error_budget(config: dict):
    array = _array_from_config(config["array"], config["array"]["n_qubits"])
    with _keys(kind="bus"):
        model = budget.bus_model(config["bus"], array.omega_m)
    with _keys(**_ARRAY_KEYS):
        out = budget.full_budget(array, model)
    return [("budget.csv",
             "qubit,omega_over_omega_m,t1_s,t2_s,e_relax,e_dephase,"
             "e_crosstalk,e_total",
             [np.arange(array.n_qubits), out[0] / array.omega_m, *out[2:]])]


def run_scalability(config: dict):
    n_min, n_max = config["n_min"], config["n_max"]
    if not n_min <= n_max:
        raise ConfigError("'n_max' must be >= 'n_min'")
    array = _array_from_config(config["array"], n_max)
    n_range, models = range(n_min, n_max + 1), config["models"]
    with _keys(kind="models"):
        buses = [budget.bus_model(kind, array.omega_m) for kind in models]
    # every n_min..n_max comes from one comb pass over n_max teeth
    with _keys(**_ARRAY_KEYS | {"n_qubits": "n_max"}):
        worst = [budget.scalability_sweep(array, bus, n_range)
                 for bus in buses]
    # rows run over (model, n), n fastest
    return [("scalability.csv", "n,worst_case_error,model",
             [np.tile(n_range, len(models)), np.concatenate(worst),
              np.repeat(models, len(n_range))])]


def run_nonmarkov(config: dict):
    kcfg = config["kernel"]
    gm = TWO_PI * kcfg["gamma_memory_hz"]
    t = np.linspace(0.0, config["t_end_s"], config["n_points"])
    if np.any(np.diff(t) <= 0.0):
        raise ConfigError("'t_end_s', 'n_points': the grid step "
                          "t_end_s / (n_points - 1) underflows")
    with _keys(amplitude_a="kernel.amplitude_over_gamma_sq",
               gamma_memory="kernel.gamma_memory_hz", t_grid="t_end_s"):
        p = nonmarkov.evolve_kernel(kcfg["amplitude_over_gamma_sq"] * gm * gm,
                                    gm, t)
    # checked in every mode, also where no Markovian trace is written
    if not math.isfinite(kcfg["markovian_ratio"] * gm * config["t_end_s"]):
        raise ConfigError("'kernel.markovian_ratio', 'kernel.gamma_memory_hz'"
                          ", 't_end_s': the Markovian exponent at t_end_s is "
                          "out of float range")
    # rho00 is the excited population
    tables = [("population.csv", "t_s,rho00", [t, p])]
    if config["compare_markovian"]:
        p_m = nonmarkov.evolve_markovian(kcfg["markovian_ratio"] * gm, t)
        tables.append(("population_markovian.csv", "t_s,rho00", [t, p_m]))
    window = config["smoothing_window"] or None
    with _keys(smoothing_window="smoothing_window"):
        g = nonmarkov.gamma_eff(np.maximum(p, 1e-300), t[1],
                                smoothing_window=window)
    tables.append(("gamma_eff.csv", "t_s,gamma_eff_hz", [t, g]))
    return tables


def _noise_model(kind: str, section: str, cfg: dict) -> nonmarkov.NoiseModel:
    # each NoiseModel field the section sets, and its key there
    fields = dict(amplitude="amplitude_rad2_per_s2", f_min="f_min_hz",
                  f_max="f_max_hz", n_components="n_components")
    if kind == "filtered":
        fields.update(filter_center="filter_center_hz",
                      filter_depth="filter_depth_db")
    with _keys(**{f: f"{section}.{k}" for f, k in fields.items()}):
        return nonmarkov.NoiseModel(
            kind=kind, **{f: cfg[k] for f, k in fields.items()})


def _spectroscopy_work(config: dict, models):
    """Check the work of a spectroscopy run against nonmarkov's caps before
    anything is allocated, naming every key that sets an exceeded size."""
    n_real, n_tau = config["n_realizations"], config["tau"]["n"]
    pcfg = config["spectrum"]
    n_avg = pcfg["n_avg"]
    # samples of np.arange(0, duration, dt); an overflowed ratio is past
    # every cap
    ratio = pcfg["duration_s"] / pcfg["dt_s"]
    n_t = math.ceil(ratio) if math.isfinite(ratio) else 2 ** 1024
    k_1f, k_filt = (m.n_components for m in models)
    k_keys = ("one_over_f.n_components", "filtered.n_components")
    noise_keys = ("spectrum.n_avg", "spectrum.duration_s", "spectrum.dt_s")
    # dephasing holds one chunk of realizations at a time; its phase
    # integrals, 2 n_tau x 2 x CHUNK floats, stay below the tone tables,
    # which are one array of 4 n_tau x n_components floats per tone grid
    _check_work([
        ("phase draw", "floats", nonmarkov.MAX_ARRAY,
         len(models) * nonmarkov.CHUNK * max(k_1f, k_filt), k_keys),
        ("tone tables", "floats", nonmarkov.MAX_ARRAY,
         4 * n_tau * max(k_1f, k_filt), ("tau.n", *k_keys)),
        ("noise traces", "floats", nonmarkov.MAX_ARRAY,
         n_avg * n_t, noise_keys),
        ("noise coefficients", "floats", nonmarkov.MAX_ARRAY,
         2 * (n_avg + nonmarkov.NOISE_BLOCK) * k_1f,
         ("spectrum.n_avg", k_keys[0])),
        ("dephasing ensemble", "multiply-adds", nonmarkov.MAX_TONE_TERMS,
         4 * n_tau * (k_1f + k_filt) * n_real,
         ("n_realizations", "tau.n", *k_keys)),
        ("noise synthesis", "multiply-adds", nonmarkov.MAX_TONE_TERMS,
         2 * n_avg * n_t * k_1f, (*noise_keys, k_keys[0])),
    ])


def run_spectroscopy(config: dict):
    seed = config["seed"]
    n_real = config["n_realizations"]
    tcfg, pcfg = config["tau"], config["spectrum"]
    if not pcfg["dt_s"] < pcfg["duration_s"]:
        raise ConfigError("need 'spectrum.dt_s' < 'spectrum.duration_s'")
    models = [_noise_model("one-over-f", "one_over_f", config["one_over_f"]),
              _noise_model("filtered", "filtered", config["filtered"])]
    _spectroscopy_work(config, models)
    # np.geomspace takes 10**log10(tau), which may round past tau, so 2 tau
    # must be finite, and so must the tone tables' w tau, w <= 2 pi f_max
    t_top = max(tcfg["start_s"], tcfg["stop_s"])
    w_top = TWO_PI * max(m.f_max for m in models)
    if not math.isfinite(t_top * max(2.0, w_top)):
        raise ConfigError("'tau.start_s', 'tau.stop_s', 'one_over_f.f_max_hz',"
                          " 'filtered.f_max_hz': w tau is out of float range")
    tau = np.geomspace(tcfg["start_s"], tcfg["stop_s"], tcfg["n"])

    # the periodogram first: its range error exits before the ensemble
    with _keys(amplitude="one_over_f.amplitude_rad2_per_s2",
               f_min="one_over_f.f_min_hz", f_max="one_over_f.f_max_hz",
               n_components="one_over_f.n_components",
               duration="spectrum.duration_s", dt="spectrum.dt_s"):
        f, psa = nonmarkov.averaged_periodogram(
            models[0], pcfg["duration_s"], pcfg["dt_s"],
            [seed + k for k in range(pcfg["n_avg"])])
    ramsey, echo = nonmarkov.dephasing(models, tau, n_real, seed)
    return [("ramsey.csv", "tau_s,contrast", [tau, ramsey[0]]),
            ("echo_one_over_f.csv", "tau_s,echo", [tau, echo[0]]),
            ("echo_filtered.csv", "tau_s,echo", [tau, echo[1]]),
            ("spectrum.csv", "f_hz,s_omega", [f[1:], psa[1:]])]


# each scenario takes the resolved config and returns its tables, (file
# name, header, io.write_csv columns), in the order main writes them
SCENARIOS = {
    "line-sim": run_line_sim,
    "flux-sweep": run_flux_sweep,
    "addressing": run_addressing,
    "error-budget": run_error_budget,
    "scalability": run_scalability,
    "nonmarkov": run_nonmarkov,
    "spectroscopy": run_spectroscopy,
}


# ------------------------------------------------------------------ main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="fluxcomb",
        description="Space-time-modulated line and frequency-comb qubit "
                    "simulations")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config merged over the defaults")
        p.add_argument("--set", dest="overrides", action="append",
                       metavar="KEY.PATH=VALUE",
                       help="override a single config entry")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, help="a last --set seed=N")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = [] if args.seed is None else [f"seed={args.seed}"]
        config = resolve_config(args.scenario, args.config,
                                [*(args.overrides or ()), *seed])
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        # every table is computed before the first is written, so a run
        # that fails leaves no CSV
        files = [io.write_csv(out_dir / name, header, columns)
                 for name, header, columns in SCENARIOS[args.scenario](config)]
        manifest = io.write_manifest(out_dir, args.scenario, config, files)
        for path in [*files, manifest]:
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"filesystem error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
