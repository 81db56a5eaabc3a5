"""Command-line front end.

    fluxcomb <scenario> [--config FILE] [--set key.path=value ...]
                        [--out DIR] [--seed N]

Every scenario starts from the packaged defaults (data/defaults.json),
deep-merges the user config over them (unknown keys are rejected, with
their dotted path), applies --set overrides, checks every value against
the type of its default, and writes CSV tables plus a manifest.json with
sha256 checksums into --out.

Exit codes: 0 success, 2 bad configuration, 3 numerical failure, 4
filesystem trouble.
"""

import argparse
import contextlib
import importlib.resources
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import budget, io, line, nonmarkov, transmon
from .errors import ConfigError, NumericalError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- config

def load_defaults() -> dict:
    ref = importlib.resources.files("fluxcomb") / "data" / "defaults.json"
    return json.loads(ref.read_text())


def merge_config(base: dict, user: dict, path: str = "") -> dict:
    """Deep merge, rejecting keys that do not exist in the defaults."""
    out = dict(base)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be an object")
            out[key] = merge_config(base[key], value, here)
        else:
            if isinstance(value, dict):
                raise ConfigError(f"{here!r} does not take an object")
            out[key] = value
    return out


def apply_override(config: dict, assignment: str):
    if "=" not in assignment:
        raise ConfigError(f"--set needs key.path=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    if isinstance(node[leaf], dict):
        raise ConfigError(f"{dotted!r} is an object; set its fields")
    node[leaf] = value


_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", list: "a list"}


def _typed(value, default, where: str):
    want = type(default)
    if want is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{where!r} is out of float range") from None
    if type(value) is not want:
        raise ConfigError(f"{where!r} must be {_KINDS[want]}, got {value!r}")
    if want is float and not math.isfinite(value):
        raise ConfigError(f"{where!r} must be finite, got {value!r}")
    if want is list:
        item = default[0] if default else 0.0
        return [_typed(v, item, f"{where}[{k}]") for k, v in enumerate(value)]
    return value


def check_types(config: dict, defaults: dict, path: str = ""):
    """Check every leaf of `config`, in place, against the type of the same
    leaf in `defaults`: a bool takes true/false, an int a JSON integer, a
    float any finite number (stored as a float; JSON's NaN and Infinity
    are rejected), a string a string, and a list a list whose items match
    the default's first item (numbers when the default list is empty)."""
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            check_types(config[key], default, here)
        else:
            config[key] = _typed(config[key], default, here)


def resolve_config(scenario: str, config_path, overrides, seed) -> dict:
    config = load_defaults()[scenario]
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        config = merge_config(config, user)
    for assignment in overrides or ():
        apply_override(config, assignment)
    if seed is not None:
        config["seed"] = seed
    # apply_override writes into the loaded defaults, so the types come
    # from a fresh copy
    check_types(config, load_defaults()[scenario])
    return config


@contextlib.contextmanager
def _keys(**fields):
    """Name the config key of a ConfigError raised by the library, whose
    messages start with the library's own field name: `fields` maps that
    name to the dotted key. Other ConfigErrors pass through unchanged."""
    try:
        yield
    except ConfigError as exc:
        key = fields.get(str(exc).split(" ", 1)[0])
        if key is None:
            raise
        raise ConfigError(f"'{key}': {exc}") from None


def _grid(spec: dict, what: str) -> np.ndarray:
    if spec["n"] < 1:
        raise ConfigError(f"{what} grid needs n >= 1")
    return np.linspace(spec["start"], spec["stop"], spec["n"])


# ------------------------------------------------------------- scenarios

def run_line_sim(config: dict, out_dir: Path):
    gcfg = config["geometry"]
    with _keys(n_cells="geometry.n_cells", dz="geometry.dz_m",
               c_per_length="geometry.c_per_length_f_per_m",
               i0="geometry.i0_amps"):
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
    scfg = config["source"]
    with _keys(kind="source.kind", port="source.port",
               amplitude="source.amplitude_volts", omega="source.freq_hz",
               t_width="source.t_width_s"):
        source = line.SourceSpec(
            kind=scfg["kind"],
            omega=TWO_PI * scfg["freq_hz"],
            amplitude=scfg["amplitude_volts"],
            t_center=scfg["t_center_s"],
            t_width=scfg["t_width_s"],
            port=scfg["port"],
            ramp_periods=scfg["ramp_periods"])
    rcfg = config["run"]
    with _keys(cfl_safety="run.cfl_safety",
               blowup_factor="run.blowup_factor"):
        sim = line.build_line(geom, drive, source,
                              cfl_safety=rcfg["cfl_safety"],
                              blowup_factor=rcfg["blowup_factor"])

    spectrum_mode = rcfg["spectrum"]
    if spectrum_mode not in ("spatial", "temporal", "none"):
        raise ConfigError(f"unknown spectrum mode {spectrum_mode!r}")
    if rcfg["n_harmonics"] < 1:
        raise ConfigError("'run.n_harmonics' must be >= 1")
    if rcfg["wavepacket"] and len(rcfg["snapshot_times_s"]) < 2:
        raise ConfigError("wavepacket needs >= 2 'run.snapshot_times_s'")
    n_max = rcfg["n_harmonics"]
    with _keys(t_end="run.t_end_s", snapshot_times="run.snapshot_times_s",
               probe="run.probe_m", window_start="run.window_start_s",
               window_end="run.window_end_s"):
        if spectrum_mode == "temporal":
            # the probe is recorded in the same pass as the snapshots,
            # past t_end when the window ends later
            states, record = sim.run_until(
                rcfg["t_end_s"], rcfg["snapshot_times_s"],
                probe=rcfg["probe_m"],
                window=(rcfg["window_start_s"], rcfg["window_end_s"]))
            report = line.temporal_harmonics(record, sim, rcfg["probe_m"],
                                             n_max)
        else:
            states = sim.run_until(rcfg["t_end_s"], rcfg["snapshot_times_s"])

    files = []
    z_mid = (np.arange(geom.n_cells) + 0.5) * geom.dz
    for k, st in enumerate(states):
        v_mid = 0.5 * (st.v[:-1] + st.v[1:])
        files.append(io.write_csv(out_dir / f"snapshot_{k:03d}.csv",
                                  "z_m,v_volts,i_amps", [z_mid, v_mid, st.i]))

    f_src = source.omega / TWO_PI
    if spectrum_mode == "spatial":
        report = line.spatial_harmonics(sim.state(), geom, drive,
                                        source.omega, n_max=n_max)
    if spectrum_mode != "none":
        n = np.asarray(report.harmonic_index)
        files.append(io.write_csv(
            out_dir / "spectrum.csv", "n,freq_hz,power_dbc,power_abs",
            [n, n * f_src, report.power_dbc, report.absolute_power]))

    if rcfg["wavepacket"]:
        metrics = line.wavepacket_metrics(states, geom)[1:]
        if any(m.peak_velocity is None for m in metrics):
            raise ConfigError("two 'run.snapshot_times_s' share a time step")
        table = np.array([(m.t, m.centroid, m.rms_width, m.spectral_centroid,
                           m.peak_velocity) for m in metrics])
        files.append(io.write_csv(
            out_dir / "wavepacket.csv",
            "t_s,centroid_m,rms_width_m,spectral_centroid_radpm,"
            "peak_velocity_mps", table.T))
    return files


def run_flux_sweep(config: dict, out_dir: Path):
    omega_m = TWO_PI * config["modulation_freq_hz"]
    idx = tuple(config["harmonic_indices"])
    if not idx:
        raise ConfigError("'harmonic_indices' must name at least one harmonic")
    with _keys(harmonic_indices="harmonic_indices",
               omega_m="modulation_freq_hz", ec="ec_hz"):
        array = budget.QubitArraySpec(n_qubits=len(idx), omega_m=omega_m,
                                      harmonic_indices=idx)
        qubits = transmon.default_comb_qubits(omega_m, idx,
                                              ec=config["ec_hz"])
    dc_grid = _grid(config["phi_dc"], "phi_dc")
    rf_grid = _grid(config["phi_rf"], "phi_rf")
    amap = transmon.addressing_map(array, dc_grid, rf_grid, qubits=qubits)
    n_dc, n_rf, n_q = amap.score.shape
    columns = [np.repeat(dc_grid, n_rf * n_q),
               np.tile(np.repeat(rf_grid, n_q), n_dc),
               np.tile(np.arange(n_q), n_dc * n_rf), amap.score.ravel()]
    return [io.write_csv(out_dir / "addressing_map.csv",
                         "phi_dc,phi_rf,qubit_index,score", columns)]


def run_addressing(config: dict, out_dir: Path):
    omega_m = TWO_PI * config["modulation_freq_hz"]
    bias = config["bias_phi_dc"]
    with _keys(ec="ec_hz", n_levels="n_levels"):
        spec = transmon.default_comb_qubits(
            omega_m, (config["harmonic_index"],),
            ec=config["ec_hz"], bias_targets=[bias])[0]
        ej = transmon.ej_time_averaged(spec.ej_max, bias, config["phi_rf"])
        spectrum = transmon.diagonalize(spec, ej,
                                        n_levels=config["n_levels"])
    return [io.write_csv(out_dir / "levels.csv", "level,freq_hz",
                         [np.arange(len(spectrum.levels)), spectrum.levels])]


def _array_from_config(acfg: dict) -> budget.QubitArraySpec:
    with _keys(n_qubits="array.n_qubits", omega_m="array.modulation_freq_hz",
               t1_intrinsic="array.t1_intrinsic_s",
               t2_intrinsic="array.t2_intrinsic_s",
               t_gate="array.t_gate_s", lambda_c="array.lambda_c_m"):
        return budget.QubitArraySpec(
            n_qubits=acfg["n_qubits"],
            omega_m=TWO_PI * acfg["modulation_freq_hz"],
            t1_intrinsic=acfg["t1_intrinsic_s"],
            t2_intrinsic=acfg["t2_intrinsic_s"],
            g_coupling=TWO_PI * acfg["g_coupling_hz"],
            kappa_bus=TWO_PI * acfg["kappa_bus_hz"],
            t_gate=acfg["t_gate_s"],
            lambda_c=acfg["lambda_c_m"])


def _bus_model(kind: str, omega_m: float) -> budget.BusIsolationModel:
    if kind == "reciprocal":
        return budget.reciprocal_bus(omega_m)
    if kind == "nonreciprocal":
        return budget.nonreciprocal_bus(omega_m)
    raise ConfigError(f"unknown bus model {kind!r}")


def run_error_budget(config: dict, out_dir: Path):
    array = _array_from_config(config["array"])
    model = _bus_model(config["bus"], array.omega_m)
    result = budget.full_budget(array, model)
    return [io.write_csv(
        out_dir / "budget.csv",
        "qubit,omega_over_omega_m,t1_s,t2_s,e_relax,e_dephase,"
        "e_crosstalk,e_total",
        [np.arange(array.n_qubits), result.omega / array.omega_m,
         result.t1_eff, result.t2_eff, result.e_relax, result.e_dephase,
         result.e_crosstalk, result.e_total])]


def run_scalability(config: dict, out_dir: Path):
    array = _array_from_config(config["array"])
    n_min, n_max = config["n_min"], config["n_max"]
    if not 1 <= n_min <= n_max:
        raise ConfigError("need 1 <= n_min <= n_max")
    if not config["models"]:
        raise ConfigError("'models' must name at least one bus model")
    n_range = range(n_min, n_max + 1)
    worst = [budget.scalability_sweep(array, _bus_model(kind, array.omega_m),
                                      n_range) for kind in config["models"]]
    return [io.write_csv(out_dir / "scalability.csv",
                         "n,worst_case_error,model",
                         [np.tile(n_range, len(worst)), np.concatenate(worst),
                          np.repeat(config["models"], len(n_range))])]


def run_nonmarkov(config: dict, out_dir: Path):
    kcfg = config["kernel"]
    gm = TWO_PI * kcfg["gamma_memory_hz"]
    with _keys(amplitude_a="kernel.amplitude_over_gamma_sq",
               gamma_memory="kernel.gamma_memory_hz",
               markovian_gamma="kernel.markovian_ratio"):
        kernel = nonmarkov.KernelSpec(
            kind="exponential-kernel",
            amplitude_a=kcfg["amplitude_over_gamma_sq"] * gm * gm,
            gamma_memory=gm, markovian_gamma=kcfg["markovian_ratio"] * gm)
    if config["n_points"] < 5:
        raise ConfigError("n_points must be >= 5")
    if not config["t_end_s"] > 0.0:
        raise ConfigError("'t_end_s' must be > 0")
    t = np.linspace(0.0, config["t_end_s"], config["n_points"])
    state = nonmarkov.excited_state()
    p = nonmarkov.evolve_kernel(state, kernel, t)
    files = [io.write_csv(out_dir / "population.csv", "t_s,rho00", [t, p])]
    if config["compare_markovian"]:
        p_m = nonmarkov.evolve_markovian(state, kernel.markovian_gamma, t)
        files.append(io.write_csv(out_dir / "population_markovian.csv",
                                  "t_s,rho00", [t, p_m]))
    window = config["smoothing_window"] or None
    g = nonmarkov.gamma_eff(t, np.maximum(p, 1e-300),
                            smoothing_window=window)
    files.append(io.write_csv(out_dir / "gamma_eff.csv",
                              "t_s,gamma_eff_hz", [t, g]))
    return files


def _noise_model(kind: str, section: str, cfg: dict) -> nonmarkov.NoiseModel:
    common = dict(amplitude=cfg["amplitude_rad2_per_s2"],
                  f_min=cfg["f_min_hz"], f_max=cfg["f_max_hz"],
                  n_components=cfg["n_components"])
    if kind == "filtered":
        common.update(filter_center=cfg["filter_center_hz"],
                      filter_depth=cfg["filter_depth_db"])
    with _keys(amplitude=f"{section}.amplitude_rad2_per_s2",
               n_components=f"{section}.n_components",
               f_min=f"{section}.f_min_hz", f_max=f"{section}.f_max_hz"):
        return nonmarkov.NoiseModel(kind=kind, **common)


def run_spectroscopy(config: dict, out_dir: Path):
    seed = config["seed"]
    n_real = config["n_realizations"]
    tcfg, pcfg = config["tau"], config["spectrum"]
    if tcfg["n"] < 2:
        raise ConfigError("tau grid needs n >= 2")
    if pcfg["n_avg"] < 1:
        raise ConfigError("'spectrum.n_avg' must be >= 1")
    for key in ("start_s", "stop_s"):
        if not tcfg[key] > 0.0:
            raise ConfigError(f"'tau.{key}' must be > 0")
    if not 0.0 < pcfg["dt_s"] < pcfg["duration_s"]:
        raise ConfigError("need 0 < 'spectrum.dt_s' < 'spectrum.duration_s'")
    tau = np.geomspace(tcfg["start_s"], tcfg["stop_s"], tcfg["n"])
    m_1f = _noise_model("one-over-f", "one_over_f", config["one_over_f"])
    m_filt = _noise_model("filtered", "filtered", config["filtered"])

    # the first ensemble rejects a bad n_realizations for all three
    with _keys(n_realizations="n_realizations"):
        ramsey = nonmarkov.ramsey(m_1f, tau, n_real, seed)
    files = [
        io.write_csv(out_dir / "ramsey.csv", "tau_s,contrast", [tau, ramsey]),
        io.write_csv(out_dir / "echo_one_over_f.csv", "tau_s,echo",
                     [tau, nonmarkov.hahn_echo(m_1f, tau, n_real, seed)]),
        io.write_csv(out_dir / "echo_filtered.csv", "tau_s,echo",
                     [tau, nonmarkov.hahn_echo(m_filt, tau, n_real, seed)]),
    ]

    f, psa = nonmarkov.averaged_periodogram(
        m_1f, pcfg["duration_s"], pcfg["dt_s"],
        [seed + k for k in range(pcfg["n_avg"])])
    files.append(io.write_csv(out_dir / "spectrum.csv", "f_hz,s_omega",
                              [f[1:], psa[1:]]))
    return files


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

def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args.scenario, args.config,
                                args.overrides, args.seed)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        files = SCENARIOS[args.scenario](config, out_dir)
        manifest = io.write_manifest(out_dir, args.scenario, config,
                                     config.get("seed"), files)
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
