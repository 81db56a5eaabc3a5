"""CLI contract tests: config resolution, file layout, exit codes,
and byte-level determinism of the outputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluxcomb
from fluxcomb import cli, io
from fluxcomb.errors import ConfigError

FLOAT_CELL = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}$")


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def format_cell(value) -> str:
    """The per-cell rendering io.write_csv must reproduce byte for byte."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "{:.12e}".format(float(value))


class TestConfigResolution:
    def test_defaults_cover_all_scenarios(self):
        defaults = cli.load_defaults()
        assert set(defaults) == set(cli.SCENARIOS)

    def test_merge_rejects_unknown_keys(self):
        base = {"a": 1, "b": {"c": 2}}
        with pytest.raises(ConfigError, match="unknown config key 'x'"):
            cli.merge_config(base, {"x": 3})
        with pytest.raises(ConfigError, match="'b.d'"):
            cli.merge_config(base, {"b": {"d": 4}})

    def test_merge_rejects_structure_mismatch(self):
        base = {"a": 1, "b": {"c": 2}}
        with pytest.raises(ConfigError):
            cli.merge_config(base, {"b": 5})
        with pytest.raises(ConfigError):
            cli.merge_config(base, {"a": {"q": 1}})

    def test_merge_is_deep(self):
        base = {"a": 1, "b": {"c": 2, "d": 3}}
        out = cli.merge_config(base, {"b": {"c": 9}})
        assert out == {"a": 1, "b": {"c": 9, "d": 3}}
        assert base["b"]["c"] == 2   # base untouched

    def test_set_override_types(self):
        config = {"a": {"b": 1.0}, "s": "x", "l": [1, 2]}
        cli.apply_override(config, "a.b=2.5")
        cli.apply_override(config, "s=reciprocal")
        cli.apply_override(config, "l=[3,4,5]")
        assert config == {"a": {"b": 2.5}, "s": "reciprocal",
                          "l": [3, 4, 5]}

    def test_set_override_rejects_unknown_path(self):
        config = {"a": {"b": 1.0}}
        with pytest.raises(ConfigError):
            cli.apply_override(config, "a.z=1")
        with pytest.raises(ConfigError):
            cli.apply_override(config, "q=1")
        with pytest.raises(ConfigError):
            cli.apply_override(config, "a=1")     # object, not a leaf
        with pytest.raises(ConfigError):
            cli.apply_override(config, "a.b")     # no '='

    def test_seed_flag_wins(self):
        config = cli.resolve_config("spectroscopy", None, None, 7)
        assert config["seed"] == 7


class TestScenarioOutputs:
    def test_error_budget_files(self, tmp_path):
        assert cli.main(["error-budget", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "budget.csv")
        assert header == ("qubit,omega_over_omega_m,t1_s,t2_s,e_relax,"
                          "e_dephase,e_crosstalk,e_total")
        assert len(rows) == 25
        for row in rows:
            assert all(FLOAT_CELL.match(c) for c in row[1:])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"] == "error-budget"
        entry = next(e for e in manifest["files"]
                     if e["path"] == "budget.csv")
        assert entry["sha256"] == io.sha256_of(tmp_path / "budget.csv")
        assert entry["bytes"] == (tmp_path / "budget.csv").stat().st_size
        assert set(manifest["versions"]) == {"python", "numpy", "fluxcomb"}

    def test_manifest_is_canonical_json(self, tmp_path):
        cli.main(["error-budget", "--out", str(tmp_path)])
        raw = (tmp_path / "manifest.json").read_text()
        assert raw == json.dumps(json.loads(raw), indent=2,
                                 sort_keys=True) + "\n"

    def test_csv_columns_render_as_format_cell(self, tmp_path):
        """Columns written block by block, each distinct value formatted
        once, read exactly as format_cell renders every cell on its own,
        across both block boundaries."""
        n = 2 * io.CSV_BLOCK + 1
        rng = np.random.default_rng(0)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        special = [0.0, -0.0, float("nan"), float("inf"), -float("inf"),
                   1e-300, -1e-300, -float("nan")]
        floats[:len(special)] = special
        floats[io.CSV_BLOCK - 1:io.CSV_BLOCK + 1] = [-0.0, 0.0]
        floats[-1] = -0.0
        repeats = np.resize([0.5, -0.0, 0.0, 2.0, -0.0, 1e-300], n)
        columns = [floats, repeats, rng.integers(-2**62, 2**62, n),
                   [k % 7 - 3 for k in range(n)],
                   [f"s{k % 3}" for k in range(n)],
                   np.float32(0.1) * np.arange(n, dtype=np.float32)]
        path = io.write_csv(tmp_path / "t.csv", "a,b,c,d,e,f", columns)
        want = "a,b,c,d,e,f\n" + "".join(
            ",".join(map(format_cell, row)) + "\n" for row in zip(*columns))
        assert path.read_bytes() == want.encode()
        # the oracle itself keeps the sign of -0.0
        assert "\n-0.000000000000e+00,-0.000000000000e+00," in want

    def test_csv_rejects_bad_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            io.write_csv(path, "a,b", [np.zeros(3), np.zeros(4)])
        for bad in ([True, False], np.zeros((2, 2)), [1.0, None]):
            with pytest.raises(TypeError):
                io.write_csv(path, "a", [bad])

    def test_nonmarkov_files(self, tmp_path):
        code = cli.main(["nonmarkov", "--out", str(tmp_path),
                         "--set", "n_points=801"])
        assert code == 0
        header, rows = read_rows(tmp_path / "population.csv")
        assert header == "t_s,rho00"
        assert len(rows) == 801
        assert (tmp_path / "population_markovian.csv").exists()
        header, _ = read_rows(tmp_path / "gamma_eff.csv")
        assert header == "t_s,gamma_eff_hz"

    def test_addressing_levels(self, tmp_path):
        assert cli.main(["addressing", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "levels.csv")
        assert header == "level,freq_hz"
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0
        # the 15th comb tooth of a 3 GHz comb
        assert float(rows[1][1]) == pytest.approx(45e9, rel=1e-3)

    def test_line_sim_snapshots_and_wavepacket(self, tmp_path):
        code = cli.main([
            "line-sim", "--out", str(tmp_path),
            "--set", "source.kind=gaussian-pulse",
            "--set", "drive.phi_rf=0.0",
            "--set", "run.t_end_s=1.5e-9",
            "--set", "run.snapshot_times_s=[1.0e-9,1.5e-9]",
            "--set", "run.spectrum=none",
            "--set", "run.wavepacket=true"])
        assert code == 0
        header, rows = read_rows(tmp_path / "snapshot_000.csv")
        assert header == "z_m,v_volts,i_amps"
        assert len(rows) == 512
        header, rows = read_rows(tmp_path / "wavepacket.csv")
        assert header == ("t_s,centroid_m,rms_width_m,"
                          "spectral_centroid_radpm,peak_velocity_mps")
        assert len(rows) == 1
        # unmodulated pulse moves at the dc-bias phase velocity,
        # v0 * sqrt(cos 0.6)
        assert float(rows[0][4]) == pytest.approx(1.744e6, rel=0.05)
        assert not (tmp_path / "spectrum.csv").exists()

    def test_line_sim_spectrum(self, tmp_path):
        code = cli.main(["line-sim", "--out", str(tmp_path),
                         "--set", "run.t_end_s=1.2e-9"])
        assert code == 0
        header, rows = read_rows(tmp_path / "spectrum.csv")
        assert header == "n,freq_hz,power_dbc,power_abs"
        assert [r[0] for r in rows] == [str(n) for n in range(1, 7)]
        assert float(rows[0][2]) == 0.0
        assert float(rows[1][1]) == pytest.approx(6e9)

    def test_line_sim_temporal_on_defaults(self, tmp_path):
        """The default window, 2.7-5.4 ns, ends at t_end: recorded in the
        same pass as the run."""
        code = cli.main(["line-sim", "--out", str(tmp_path),
                         "--set", "run.spectrum=temporal"])
        assert code == 0
        header, rows = read_rows(tmp_path / "spectrum.csv")
        assert header == "n,freq_hz,power_dbc,power_abs"
        assert [r[0] for r in rows] == [str(n) for n in range(1, 7)]
        assert float(rows[0][2]) == 0.0
        assert all(float(r[2]) < 0.0 for r in rows[1:])

    def test_scalability_models(self, tmp_path):
        code = cli.main(["scalability", "--out", str(tmp_path),
                         "--set", "n_min=1", "--set", "n_max=3"])
        assert code == 0
        header, rows = read_rows(tmp_path / "scalability.csv")
        assert header == "n,worst_case_error,model"
        assert len(rows) == 6
        assert {r[2] for r in rows} == {"reciprocal", "nonreciprocal"}

    def test_spectroscopy_files(self, tmp_path):
        code = cli.main([
            "spectroscopy", "--out", str(tmp_path),
            "--set", "n_realizations=200",
            "--set", "tau.n=8",
            "--set", "one_over_f.n_components=128",
            "--set", "filtered.n_components=128",
            "--set", "spectrum.n_avg=4"])
        assert code == 0
        for name, header in (("ramsey.csv", "tau_s,contrast"),
                             ("echo_one_over_f.csv", "tau_s,echo"),
                             ("echo_filtered.csv", "tau_s,echo"),
                             ("spectrum.csv", "f_hz,s_omega")):
            got, rows = read_rows(tmp_path / name)
            assert got == header
            assert rows
        _, rows = read_rows(tmp_path / "ramsey.csv")
        assert len(rows) == 8
        assert all(0.0 <= float(r[1]) <= 1.0 + 1e-9 for r in rows)


class TestDeterminism:
    def test_spectroscopy_byte_identical(self, tmp_path):
        args = ["spectroscopy", "--seed", "3",
                "--set", "n_realizations=200", "--set", "tau.n=6",
                "--set", "one_over_f.n_components=128",
                "--set", "filtered.n_components=128",
                "--set", "spectrum.n_avg=3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main([*args, "--out", str(a)]) == 0
        assert cli.main([*args, "--out", str(b)]) == 0
        for name in ("ramsey.csv", "echo_one_over_f.csv",
                     "echo_filtered.csv", "spectrum.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        args = ["spectroscopy",
                "--set", "n_realizations=200", "--set", "tau.n=6",
                "--set", "one_over_f.n_components=128",
                "--set", "filtered.n_components=128",
                "--set", "spectrum.n_avg=3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main([*args, "--seed", "1", "--out", str(a)]) == 0
        assert cli.main([*args, "--seed", "2", "--out", str(b)]) == 0
        assert (a / "ramsey.csv").read_bytes() \
            != (b / "ramsey.csv").read_bytes()

    def test_deterministic_line_sim(self, tmp_path):
        args = ["line-sim", "--set", "run.t_end_s=1.2e-9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main([*args, "--out", str(a)]) == 0
        assert cli.main([*args, "--out", str(b)]) == 0
        assert (a / "spectrum.csv").read_bytes() \
            == (b / "spectrum.csv").read_bytes()


class TestExitCodes:
    def test_unknown_config_key_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"array": {"n_wires": 3}}')
        code = cli.main(["error-budget", "--config", str(bad),
                         "--out", str(tmp_path)])
        assert code == 2

    def test_malformed_json_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        for raw in (b"{not json", b"\xff\xfe{"):   # the second is not UTF-8
            bad.write_bytes(raw)
            assert cli.main(["error-budget", "--config", str(bad),
                             "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("scenario,assignment,key", [
        ("line-sim", "geometry.n_cells=abc", "geometry.n_cells"),
        ("line-sim", "run.snapshot_times_s=5", "run.snapshot_times_s"),
        ("line-sim", 'run.snapshot_times_s=["1e-9"]',
         "run.snapshot_times_s[0]"),
        ("nonmarkov", "kernel.gamma_memory_hz=null",
         "kernel.gamma_memory_hz"),
        ("error-budget", "array.n_qubits=2.5", "array.n_qubits"),
        pytest.param("error-budget", "array.lambda_c_m=1" + "0" * 400,
                     "array.lambda_c_m", id="error-budget-float-overflow"),
        ("flux-sweep", "phi_dc.n=3.7", "phi_dc.n"),
        ("nonmarkov", "compare_markovian=0", "compare_markovian"),
        ("scalability", "models=reciprocal", "models"),
        ("spectroscopy", "spectrum.n_avg=0", "spectrum.n_avg"),
        pytest.param("line-sim",
                     ["run.spectrum=temporal", "run.window_start_s=-1e-9"],
                     "'run.window_start_s'",
                     id="line-sim-temporal-window-before-start"),
        ("line-sim", "run.n_harmonics=0", "run.n_harmonics"),
        ("scalability", "models=[]", "models"),
        ("nonmarkov", "smoothing_window=5001", "smoothing_window"),
        ("line-sim", "run.cfl_safety=0", "run.cfl_safety"),
        ("line-sim", "run.cfl_safety=1.5", "run.cfl_safety"),
        ("line-sim", "run.cfl_safety=-1", "run.cfl_safety"),
        ("line-sim", "run.blowup_factor=0", "run.blowup_factor"),
        ("spectroscopy", "tau.start_s=0", "tau.start_s"),
        ("spectroscopy", "tau.stop_s=-1e-6", "tau.stop_s"),
        ("line-sim", "geometry.dz_m=NaN", "geometry.dz_m"),
        ("spectroscopy", "spectrum.dt_s=NaN", "spectrum.dt_s"),
        ("line-sim", "drive.phi_dc=NaN", "drive.phi_dc"),
        ("addressing", "bias_phi_dc=NaN", "bias_phi_dc"),
        ("error-budget", "array.t_gate_s=Infinity", "array.t_gate_s"),
        ("flux-sweep", "harmonic_indices=[0]", "harmonic 0"),
        ("flux-sweep", "harmonic_indices=[]", "harmonic_indices"),
        ("error-budget", "array.n_qubits=0", "array.n_qubits"),
        ("spectroscopy", "spectrum.dt_s=0", "spectrum.dt_s"),
        ("nonmarkov", "t_end_s=0", "t_end_s"),
        ("line-sim", "run.t_end_s=0", "run.t_end_s"),
        pytest.param("line-sim", "run.wavepacket=true",
                     "run.snapshot_times_s", id="line-sim-wavepacket-one"),
        pytest.param(
            "line-sim", ["run.wavepacket=true", "run.t_end_s=3e-8",
                         "geometry.n_cells=1024"],
            "run.snapshot_times_s", id="line-sim-wavepacket-before-blowup"),
        pytest.param(
            "line-sim", ["run.wavepacket=true", "run.spectrum=none",
                         "run.t_end_s=1e-9",
                         "run.snapshot_times_s=[5e-10,5.00001e-10]"],
            "run.snapshot_times_s", id="line-sim-wavepacket-same-step"),
        pytest.param("line-sim", "run.t_end_s=1e-15", "'run.t_end_s'",
                     id="line-sim-t_end-under-one-step"),
        # range errors raised inside the library, named by their key
        ("flux-sweep", "harmonic_indices=[3,2]", "'harmonic_indices'"),
        ("error-budget", "array.t_gate_s=0", "'array.t_gate_s'"),
        ("error-budget", "array.t2_intrinsic_s=1", "'array.t2_intrinsic_s'"),
        ("error-budget", "array.lambda_c_m=0", "'array.lambda_c_m'"),
        ("spectroscopy", "one_over_f.n_components=10",
         "'one_over_f.n_components'"),
        ("spectroscopy", "n_realizations=0", "'n_realizations'"),
        ("nonmarkov", "kernel.gamma_memory_hz=0", "'kernel.gamma_memory_hz'"),
        ("addressing", "n_levels=0", "'n_levels'"),
        ("addressing", "ec_hz=0", "'ec_hz'"),
        ("line-sim", "geometry.n_cells=8", "'geometry.n_cells'"),
        ("line-sim", "geometry.dz_m=0", "'geometry.dz_m'"),
        ("line-sim", "source.amplitude_volts=0", "'source.amplitude_volts'"),
        ("line-sim", "drive.phi_dc=1.6", "'drive.phi_dc'"),
        ("line-sim", "drive.phi_rf=1.2", "'drive.phi_rf'"),
        ("spectroscopy", "one_over_f.f_min_hz=0", "'one_over_f.f_min_hz'"),
        ("spectroscopy", "filtered.f_max_hz=1e3", "'filtered.f_max_hz'"),
        pytest.param("line-sim",
                     ["run.spectrum=temporal", "run.window_end_s=3e-9"],
                     "'run.window_end_s'",
                     id="line-sim-temporal-window-short"),
        pytest.param("line-sim", ["run.spectrum=temporal", "run.probe_m=1"],
                     "'run.probe_m'", id="line-sim-temporal-probe-outside"),
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, scenario,
                               assignment, key):
        assignments = [assignment] if isinstance(assignment, str) \
            else assignment
        code = cli.main([scenario, "--out", str(tmp_path),
                         *(a for x in assignments for a in ("--set", x))])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err
        assert "Traceback" not in err

    def test_bad_config_file_value_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"array": {"n_qubits": "25"}}')
        code = cli.main(["error-budget", "--config", str(bad),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "'array.n_qubits' must be an integer, got '25'" \
            in capsys.readouterr().err

    def test_int_for_float_is_stored_as_float(self, tmp_path):
        code = cli.main(["line-sim", "--out", str(tmp_path),
                         "--set", "drive.phi_rf=0",
                         "--set", "run.t_end_s=1e-10",
                         "--set", "run.spectrum=none"])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        phi_rf = manifest["config"]["drive"]["phi_rf"]
        assert phi_rf == 0.0 and isinstance(phi_rf, float)

    def test_semantic_config_error_is_2(self, tmp_path):
        code = cli.main(["error-budget", "--out", str(tmp_path),
                         "--set", "array.n_qubits=0"])
        assert code == 2

    def test_negative_rf_grid_is_2(self, tmp_path, capsys):
        code = cli.main(["flux-sweep", "--out", str(tmp_path),
                         "--set", "phi_rf.start=-0.1"])
        assert code == 2
        assert "phi_rf" in capsys.readouterr().err

    def test_blowup_is_3(self, tmp_path):
        code = cli.main(["line-sim", "--out", str(tmp_path),
                         "--set", "run.blowup_factor=1e-12",
                         "--set", "run.t_end_s=1e-10"])
        assert code == 3

    def test_unwritable_out_is_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = cli.main(["error-budget", "--out", str(blocker)])
        assert code == 4

    def test_nan_sweep_bound_is_2(self, tmp_path, capsys):
        # a NaN bound is the one input that could give a non-finite score
        code = cli.main([
            "flux-sweep", "--out", str(tmp_path),
            "--set", "phi_dc.start=NaN", "--set", "phi_dc.n=2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "'phi_dc.start' must be finite" in err
        assert not (tmp_path / "addressing_map.csv").exists()

    def test_unknown_scenario_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["warp-drive"])
        assert exc.value.code == 2


class TestFluxSweepOutput:
    def test_small_sweep_scores(self, tmp_path):
        code = cli.main([
            "flux-sweep", "--out", str(tmp_path),
            "--set", "harmonic_indices=[5,10]",
            "--set", "phi_dc.start=0.6", "--set", "phi_dc.stop=1.0",
            "--set", "phi_dc.n=3",
            "--set", "phi_rf.start=0.0", "--set", "phi_rf.stop=0.4",
            "--set", "phi_rf.n=2"])
        assert code == 0
        header, rows = read_rows(tmp_path / "addressing_map.csv")
        assert header == "phi_dc,phi_rf,qubit_index,score"
        assert len(rows) == 3 * 2 * 2
        scores = np.array([float(r[3]) for r in rows])
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        dcs = [float(r[0]) for r in rows]
        assert dcs == sorted(dcs)


def test_import_does_not_load_scipy():
    # SciPy costs most of a second to import; only the tests use it
    env = dict(os.environ, PYTHONPATH=str(Path(fluxcomb.__file__).parents[1]))
    probe = ("import sys, fluxcomb.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
