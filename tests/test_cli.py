"""CLI contract tests: config resolution, file layout, exit codes,
and byte-level determinism of the outputs."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluxcomb
from fluxcomb import cli, errors, io
from fluxcomb.errors import ConfigError

from helpers import config_leaves

FLOAT_CELL = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}$")
MAX_MAP_POINTS = cli.transmon.MAX_MAP_POINTS
MAX_ARRAY = cli.nonmarkov.MAX_ARRAY
MAX_LEVELS = cli.transmon.MAX_LEVELS
MAP_KEYS = ["'phi_dc.n'", "'phi_rf.n'", "'harmonic_indices'"]
LINE_KEYS = ["'geometry.n_cells'", "'geometry.dz_m'",
             "'geometry.c_per_length_f_per_m'", "'geometry.i0_amps'",
             "'drive.phi_dc'", "'drive.phi_rf'", "'run.cfl_safety'",
             "'run.t_end_s'"]
# the keys that set the spatial Nyquist limit of line-sim's harmonics
NYQUIST_KEYS = ["'run.n_harmonics'", "'source.freq_hz'", "'geometry.dz_m'",
                "'geometry.c_per_length_f_per_m'", "'geometry.i0_amps'",
                "'drive.phi_dc'"]
# line-sim's dt on its packaged geometry and drive, and the cells whose
# run of 1024 such steps fills MAX_CELL_STEPS exactly
LINE_DT = 0.9 * cli.line.cfl_bound(
    cli.line.LineGeometry(), cli.line.FluxDrive(0.6, 0.6, 0.0, 1.0))
CAP_CELLS = cli.line.MAX_CELL_STEPS // 1024
# the cells whose 1000 snapshots, the most a run takes, hold
# 3 x 1000 x (SNAPSHOT_CELLS + 1) floats, at most line.MAX_SNAPSHOT_FLOATS
SNAPSHOT_CELLS = cli.line.MAX_SNAPSHOT_FLOATS // 3000 - 1
# the bound on a line's cells, however few its steps
CELLS_RULE = f"must be >= 16 and <= {cli.line.MAX_CELLS}"
# map points per (phi_dc, phi_rf) point: the default harmonic count
N_HARMONICS = 5
# the values a leaf walk sets each numeric leaf of the defaults to, by type,
# out to the float edges
WALK_VALUES = {int: [0, -1, 10 ** 15, 2 ** 63, -2 ** 63],
               float: [0.0, -1.0, 1e300, 1e-300, sys.float_info.max,
                       -sys.float_info.max, 5e-324, sys.float_info.min],
               list: [[]]}
# the walk's passes: each scenario on its defaults, and line-sim again
# under the temporal spectrum and under a gaussian-pulse source
WALK_PASSES = [*(pytest.param(s, [], id=s) for s in cli._packaged_defaults()),
               pytest.param("line-sim", ["run.spectrum=temporal"],
                            id="line-sim-temporal"),
               pytest.param("line-sim", ["source.kind=gaussian-pulse"],
                            id="line-sim-gaussian-pulse")]
# the sensitivity walk's passes, small configs of each scenario: line-sim
# on a continuous wave, under the temporal spectrum, and as a gaussian
# pulse with two snapshots and its wavepacket
LINE_SMALL = ["geometry.n_cells=64", "run.t_end_s=1.2e-9", "run.probe_m=3e-4",
              "run.window_start_s=1e-9", "run.window_end_s=4e-9"]
SENSITIVITY_PASSES = {
    "line-sim": [LINE_SMALL, [*LINE_SMALL, "run.spectrum=temporal"],
                 [*LINE_SMALL, "source.kind=gaussian-pulse",
                  "run.snapshot_times_s=[6e-10,1.2e-9]",
                  "run.wavepacket=true"]],
    "flux-sweep": [["harmonic_indices=[5,10]", "phi_dc.n=3", "phi_rf.n=2"]],
    "addressing": [[]],
    "error-budget": [["array.n_qubits=5"]],
    "scalability": [["n_max=3"]],
    "nonmarkov": [["n_points=201", "smoothing_window=5"]],
    "spectroscopy": [["n_realizations=200", "tau.n=6",
                      "one_over_f.n_components=100",
                      "filtered.n_components=100", "spectrum.n_avg=2",
                      "spectrum.duration_s=2e-4"]],
}
# the one other value the sensitivity walk gives each string and list leaf
ALTERNATIVES = {"bus": "reciprocal", "models": ["nonreciprocal"],
                "kind": "gaussian-pulse", "port": "right",
                "spectrum": "temporal", "harmonic_indices": [5, 15],
                "snapshot_times_s": [8e-10, 1.2e-9]}
# the leaves that change no CSV byte in any pass, by scenario, and why
INERT = {
    # default_comb_qubits calibrates ej_max = E_J* / (2 cos(bias/2)) and
    # ej_time_averaged multiplies by 2 cos(bias/2) at the same bias
    "addressing": {"bias_phi_dc": "the calibration cancels the bias"},
}
# the leaves whose walk values may exit 3 through the work, by scenario,
# and why: only a field that grows past the blowup ceiling may, and no
# walk value makes one
GROWS = {}
# the two-key walk: its seed, and the pairs of leaves it draws per
# sensitivity pass
PAIR_SEED, PAIRS_PER_PASS = 0, 64


def _nudges(key, value):
    """The values the sensitivity walk tries for one leaf, in order, until
    one is valid: a flag flipped, an integer + 1 (+ 2 where only odd
    values are valid), a float x 1.01 (+ 1 at 0) and a string or list
    set to its ALTERNATIVES entry."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value + 2]
    if isinstance(value, float):
        return [value * 1.01 if value else 1.0]
    return [ALTERNATIVES[key.rsplit(".", 1)[-1]]]


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def format_table(header: str, columns) -> bytes:
    """The bytes io.write_csv must write: the header, then format_cell of
    every cell."""
    return (header + "\n" + "".join(
        ",".join(map(format_cell, row)) + "\n" for row in zip(*columns))
            ).encode()


def assert_renders_as_format_cell(tmp_path, columns) -> bytes:
    """Write `columns` with io.write_csv and check its bytes against
    format_table of their expansion; returns the expected bytes."""
    header = ",".join(f"c{k}" for k in range(len(columns)))
    path = io.write_csv(tmp_path / "t.csv", header, columns)
    want = format_table(header, [expand(c) for c in columns])
    assert path.read_bytes() == want
    return want


def expand(column):
    """A write_csv column as the cells it writes: a (values, index) pair
    reads values[index]."""
    if isinstance(column, tuple):
        values, index = column
        return np.asarray(values)[index]
    return column


def snapshots(k: int, t_end: float = 5.4e-9) -> str:
    """A --set of k snapshot times, evenly spaced up to t_end."""
    return "run.snapshot_times_s=" + json.dumps(
        [t_end * (j + 1) / k for j in range(k)])


def format_cell(value) -> str:
    """The per-cell rendering io.write_csv must reproduce byte for byte."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "{:.12e}".format(float(value))


class TestConfigResolution:
    def test_defaults_cover_all_scenarios(self):
        assert set(cli._packaged_defaults()) == set(cli.SCENARIOS)

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
        for assignment in ("a.b=2.5", "s=reciprocal", "l=[3,4,5]"):
            config = cli.apply_override(config, assignment)
        assert config == {"a": {"b": 2.5}, "s": "reciprocal",
                          "l": [3, 4, 5]}

    def test_set_override_rejects_unknown_path(self):
        config = {"a": {"b": 1.0}}
        for assignment, key in (("a.z=1", "'a.z'"), ("q=1", "'q'"),
                                ("a=1", "'a'"),      # object, not a leaf
                                ("a.b.c=1", "'a.b'"),   # leaf, not object
                                ("a.b", "'a.b'")):   # no '='
            with pytest.raises(ConfigError, match=key):
                cli.apply_override(config, assignment)
        assert config == {"a": {"b": 1.0}}

    def test_seed_flag_wins(self, tmp_path, monkeypatch):
        """--seed N is a last --set seed=N: it wins over --config and
        --set."""
        seeds = []
        monkeypatch.setitem(cli.SCENARIOS, "spectroscopy",
                            lambda config: seeds.append(config["seed"])
                            or [])
        user = tmp_path / "user.json"
        user.write_text('{"seed": 3}')
        assert cli.main(["spectroscopy", "--config", str(user), "--set",
                         "seed=5", "--seed", "7", "--out", str(tmp_path)]) == 0
        assert seeds == [7]
        assert cli.resolve_config("spectroscopy", None,
                                  ["seed=7"])["seed"] == 7

    @pytest.mark.parametrize("args,message", [
        pytest.param(["nonmarkov", "--set", "n_points=abc",
                      "--set", "n_points=11"],
                     "'n_points' must be an integer", id="set-then-set"),
        pytest.param(["spectroscopy", "--set", "seed=-1", "--seed", "3"],
                     "'seed' must be >= 0", id="set-then-seed"),
        pytest.param(["nonmarkov", "--config", "user.json",
                      "--set", "t_end_s=1e-7"],
                     "'t_end_s' must be > 0", id="config-then-set"),
        # of two bad values, the first merged: t_end_s comes first in the
        # defaults
        pytest.param(["nonmarkov", "--set", "n_points=abc",
                      "--set", "t_end_s=0"],
                     "'n_points' must be an integer", id="first-merged"),
    ])
    def test_bad_value_is_2_as_merged(self, tmp_path, capsys, args, message):
        """Each value is typed and bounded as it is merged: a bad one
        exits 2 even when a later --set or --seed replaces it, and of
        several the first merged is reported."""
        (tmp_path / "user.json").write_text('{"t_end_s": 0}')
        code = cli.main([*(str(tmp_path / a) if a.endswith(".json") else a
                           for a in args), "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_main_keeps_no_state_between_calls(self, tmp_path, monkeypatch):
        """The parser and the parsed defaults are built once per process:
        a call's --config, --set and --seed do not reach the next call."""
        # spectroscopy carries the seed; its work is not the point here
        monkeypatch.setitem(cli.SCENARIOS, "spectroscopy",
                            lambda config: [])
        # the config file leaves 'tau' unmerged, so --set writes into the
        # tau section that the defaults hand out
        user = tmp_path / "user.json"
        user.write_text('{"n_realizations": 300}')
        assert cli.main(["spectroscopy", "--config", str(user),
                         "--set", "tau.n=5", "--seed", "9",
                         "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["spectroscopy", "--out", str(tmp_path / "b")]) == 0
        first, second = (json.loads((tmp_path / d / "manifest.json")
                                    .read_text()) for d in "ab")
        assert (first["config"]["seed"], first["config"]["n_realizations"],
                first["config"]["tau"]["n"]) == (9, 300, 5)
        packaged = json.loads((Path(cli.__file__).parent / "data"
                               / "defaults.json").read_text())
        assert second["config"] == packaged["spectroscopy"]
        assert "seed" not in second
        assert cli.build_parser() is cli.build_parser()


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
        """Columns written block by block read exactly as format_cell
        renders every cell on its own, across both block boundaries."""
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
        want = assert_renders_as_format_cell(tmp_path, columns)
        # the oracle itself keeps the sign of -0.0
        assert b"\n-0.000000000000e+00,-0.000000000000e+00," in want

    def test_csv_floats_at_rounding_edges(self, tmp_path):
        """Exact decimal ties (rounded half to even), cells 1 to 64 ulp
        either side of a tie, across both sides of the tie margin, one ulp
        either side of each power of ten, carries into the next decade,
        subnormals and the largest double, against format_cell."""
        k = np.arange(-300, 301)
        # a 14th significant digit of exactly 5 at E = 12, 13 and 14
        m = np.random.default_rng(3).integers(10**12, 10**13, 300)
        ties = np.concatenate([m + 0.5, 10.0 * m + 5.0, 100.0 * m + 50.0])
        # j ulp from the ties at E = 12 and 13 reach past the margin
        j = np.r_[-64:0, 1:65]
        near_ties = (ties[:600:6].view(np.int64)[:, None] + j).view(
            np.float64).ravel()
        # 14 to 17 significant digits at E = -281, -296 and -312, where a
        # cell is scaled: the digits past the 13th at, near and past a half
        scaled = np.array([float(f"{a}.{b}e{-293 - c}") for a in m[:40]
                           for b in ("5", "49", "51", "496", "504", "4999",
                                     "5001")
                           for c in (0, 15, 31)])
        powers = np.array([float(f"1e{e}") for e in k])
        carries = np.array([float(f"9.9999999999995e{e}") for e in k])
        edges = np.concatenate([
            [1234567890123.5, 1234567890124.5, 2.5e-1, 0.125, 1.5,
             -2.5e-1, 9.5, 1e23, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308],
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            -powers, carries, np.nextafter(carries, 0.0),
            np.nextafter(carries, np.inf), -carries,
            np.arange(1, 2000) * 5e-324, ties, -ties, near_ties,
            -near_ties, scaled, -scaled])
        assert_renders_as_format_cell(tmp_path, [edges, edges[::-1]])

    def test_csv_scaled_floats_at_powers_of_ten(self, tmp_path):
        """Below 1e-280 a cell is scaled by a power of two, and above 1e280
        it takes the plain product: every power of ten in both ranges, one
        ulp either side, the carries, the cells at and either side of 1e-280
        and 1e280, and the smallest normal and subnormal doubles."""
        k = np.r_[-323:-265, 265:309]
        powers = np.array([float(f"1e{e}") for e in k])
        carries = np.array([float(f"9.9999999999995e{e}") for e in k[:-1]])
        edges = np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            carries, np.nextafter(carries, 0.0),
            np.nextafter(carries, np.inf),
            [1e-280, 1e280, 2.0 ** -1022, 2.0 ** -1074],
            np.nextafter([1e-280, 1e-280, 1e280, 1e280, 2.0 ** -1022],
                         [0.0, 1.0, 0.0, np.inf, 0.0])])
        edges = edges[np.isfinite(edges)]
        assert_renders_as_format_cell(tmp_path, [np.r_[edges, -edges]])

    def test_csv_random_bit_patterns(self, tmp_path):
        """200k doubles drawn as random 64-bit patterns: every exponent,
        NaN payloads and infinities included."""
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64,
                            endpoint=False).view(np.float64)
        assert_renders_as_format_cell(tmp_path, [bits])

    def test_csv_workspace_leaks_nothing_between_blocks_or_calls(
            self, tmp_path):
        """Each write renders its blocks into one reused workspace: a
        first block of the widest cells is followed by a one-row last block
        of the narrowest, and then by a narrower table, and none of them
        shows a byte of what came before."""
        n = io.CSV_BLOCK + 1
        k = np.arange(n)
        wide = -(1.0 + k / n) * 1e-300
        wide[-1] = 0.0
        text = [f"Ωµ日本{j}" * 6 for j in range(n - 1)] + [""]
        ints = -(10**18) - k
        ints[-1] = 0
        grid = np.array([-9.87654321e-123, 0.0])
        pair = (grid, (k == n - 1).astype(np.uint8))
        columns = [wide, text, ints, pair, wide[::-1].copy()]
        assert_renders_as_format_cell(tmp_path, columns)
        assert_renders_as_format_cell(
            tmp_path, [np.array([0.5, 0.0]), ["a", ""], np.array([1, 0])])

    def test_csv_integer_str_and_empty_columns(self, tmp_path):
        info = np.iinfo(np.int64)
        ints = np.array([info.min, info.max, -1, 0, 1, 9999, -10000,
                         10**16, -10**16 + 1], np.int64)
        big = np.array([2**64 - 1, 2**63, 0, 1, 10**19, 9999, 10**4, 7, 8],
                       np.uint64)
        small = np.array([-128, 127, 0, 1, -1, 5, 50, 99, 100], np.int8)
        text = ["Ω", "é,e", "", "日本", "a", "zz", "µs", "x" * 9, "n"]
        f32 = np.array([0.1, -2.5, 3e38, 1e-45, 0.0, -0.0, np.inf, 1.0,
                        np.nan], np.float32)
        assert_renders_as_format_cell(tmp_path,
                                      [ints, big, small, text, f32])
        path = io.write_csv(tmp_path / "empty.csv", "a,b",
                            [np.zeros(0), np.zeros(0, np.int64)])
        assert path.read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("scenario,sets", [
        *(pytest.param(name, [], id=name) for name in cli.SCENARIOS),
        pytest.param("line-sim", ["--set", "run.spectrum=temporal"],
                     id="line-sim-temporal")])
    def test_scenario_csvs_render_as_format_cell(self, tmp_path,
                                                 monkeypatch, scenario,
                                                 sets):
        """Every CSV a scenario writes on its packaged defaults, byte for
        byte against format_cell on the columns it was given."""
        write_csv, written = io.write_csv, []

        def checked(path, header, columns):
            columns = list(columns)
            path = write_csv(path, header, columns)
            assert path.read_bytes() == format_table(
                header, [expand(c) for c in columns]), path.name
            written.append(path.name)
            return path

        monkeypatch.setattr(io, "write_csv", checked)
        assert cli.main([scenario, "--out", str(tmp_path), *sets]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(written) == sorted(
            e["path"] for e in manifest["files"] if e["path"].endswith(".csv"))
        assert written

    def test_csv_pair_columns_write_their_expansion(self, tmp_path,
                                                    monkeypatch):
        """A (values, index) column writes the same bytes as values[index]
        written as a plain column, across block boundaries; a plain
        integer or str column is rendered once, on its distinct values."""
        n = 2 * io.CSV_BLOCK + 3
        rng = np.random.default_rng(5)
        # -0.0 and 0.0, a value on the % path, an exact tie and an
        # ordinary value
        floats = np.array([-0.0, 0.0, 3e-300, 1234567890123.5, 0.1])
        ints = np.array([-10**12, -1, 0, 7, 10**15], np.int64)
        text = np.array(["Ω", "µs,é", "日本", "", "a"])
        pairs = [(values, rng.integers(0, len(values), n))
                 for values in (floats, ints, text)]
        plain = rng.standard_normal(n)
        header = "f,i,s,x"
        got = io.write_csv(tmp_path / "pairs.csv", header, [*pairs, plain])
        expanded = [*(v[i] for v, i in pairs), plain]
        rendered, render = [], io._render
        monkeypatch.setattr(
            io, "_render", lambda c: rendered.append(c) or render(c))
        want = io.write_csv(tmp_path / "plain.csv", header, expanded)
        monkeypatch.undo()
        assert [(c.dtype.kind, len(c) <= 5) for c in rendered] \
            == [("i", True), ("U", True)]
        assert got.read_bytes() == want.read_bytes() \
            == format_table(header, expanded)
        # an index of any integer dtype, and a pair with no rows
        small = (floats, np.array([4, 0, 2], np.uint8))
        assert io.write_csv(tmp_path / "u8.csv", "f", [small]).read_bytes() \
            == format_table("f", [floats[[4, 0, 2]]])
        empty = io.write_csv(tmp_path / "empty.csv", "i,s",
                             [(ints, np.zeros(0, np.int64)), []])
        assert empty.read_bytes() == b"i,s\n"

    def test_csv_rejects_bad_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            io.write_csv(path, "a,b", [np.zeros(3), np.zeros(4)])
        for bad in ([True, False], np.zeros((2, 2)), [1.0, None]):
            with pytest.raises(TypeError):
                io.write_csv(path, "a", [bad])
        for cell in ("a\0b", "\0a", "\u00e9\0x", "x\0\u00e9"):
            with pytest.raises(ValueError, match="NUL"):
                io.write_csv(path, "a", [["ok", cell]])
        # (values, index) pairs: values as strict as a plain column, and
        # an integer 1-D index inside values
        values = np.array([1.0, 2.0, 3.0])
        for index in ([0, 3], [-1, 0]):
            with pytest.raises(IndexError):
                io.write_csv(path, "a", [(values, np.array(index))])
        for index in (np.array([0.0, 1.0]), np.zeros((2, 1), np.int64),
                      np.array([True, False])):
            with pytest.raises(TypeError):
                io.write_csv(path, "a", [(values, index)])
        for bad in (np.array([True, False]), np.zeros((2, 2)),
                    np.array([1.0, None])):
            with pytest.raises(TypeError):
                io.write_csv(path, "a", [(bad, np.array([0, 1]))])
        with pytest.raises(ValueError, match="differ in length"):
            io.write_csv(path, "a,b",
                         [(values, np.array([0, 1])), np.zeros(3)])
        with pytest.raises(ValueError, match="NUL"):
            io.write_csv(path, "a", [(np.array(["ok", "a\0b"]),
                                      np.array([0]))])

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

    def test_failed_run_writes_nothing(self, tmp_path, monkeypatch):
        """main writes a scenario's tables only once it has computed all
        of them: a failure after nonmarkov has built population.csv's
        table leaves --out empty, with no CSV and no manifest."""
        def fail(*args, **kwargs):
            raise ConfigError("injected")

        monkeypatch.setattr(cli.nonmarkov, "evolve_markovian", fail)
        assert cli.main(["nonmarkov", "--out", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_nonmarkov_bad_window_writes_nothing(self, tmp_path):
        assert cli.main(["nonmarkov", "--out", str(tmp_path),
                         "--set", "smoothing_window=4"]) == 2
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("mode,n_top", [("spatial", 29),
                                            ("temporal", 35)])
    def test_line_sim_harmonics_up_to_nyquist(self, tmp_path, capsys, mode,
                                              n_top):
        """On the defaults, the largest n_harmonics whose top harmonic lies
        within the spectrum (pi/dz in space, 1/(2 dt) in time) writes a
        distinct power for every harmonic, and one more exits 2."""
        omega = 2.0 * math.pi * 3e9
        if mode == "spatial":
            geom = cli.line.LineGeometry()
            v_dc = cli.line.build_line(
                geom, cli.line.FluxDrive(0.6, 0.6, 0.0, omega),
                cli.line.SourceSpec("continuous-wave", omega, 1.0)).v_dc
            assert n_top == int(math.pi / geom.dz / (omega / v_dc))
        else:
            assert n_top == int(0.5 / LINE_DT / 3e9)
        args = ["line-sim", "--set", f"run.spectrum={mode}"]
        assert cli.main([*args, "--out", str(tmp_path),
                         "--set", f"run.n_harmonics={n_top}"]) == 0
        _, rows = read_rows(tmp_path / "spectrum.csv")
        assert len({r[3] for r in rows}) == len(rows) == n_top
        assert cli.main([*args, "--out", str(tmp_path / "over"),
                         "--set", f"run.n_harmonics={n_top + 1}"]) == 2
        err = capsys.readouterr().err
        assert f"n_harmonics must be <= {n_top}, the {mode} Nyquist" in err
        dt_keys = ["'drive.phi_rf'", "'run.cfl_safety'"]
        for key in NYQUIST_KEYS + (dt_keys if mode == "temporal" else []):
            assert key in err
        # a source whose fundamental is past the limit
        assert cli.main([*args, "--out", str(tmp_path / "over"),
                         "--set", "source.freq_hz=1e300"]) == 2
        err = capsys.readouterr().err
        assert f"even the fundamental is past the {mode} Nyquist" in err
        assert "'source.freq_hz'" in err

    def test_scalability_at_the_cap(self, tmp_path):
        """The largest sweep runs: each model's worst case never
        decreases with n, as it sums ever more nonnegative terms."""
        assert cli.main(["scalability", "--out", str(tmp_path),
                         "--set", f"n_max={cli.budget.MAX_QUBITS}"]) == 0
        header, rows = read_rows(tmp_path / "scalability.csv")
        assert len(rows) == 2 * cli.budget.MAX_QUBITS == 2048
        for model in ("reciprocal", "nonreciprocal"):
            worst = [float(r[1]) for r in rows if r[2] == model]
            assert len(worst) == cli.budget.MAX_QUBITS
            assert all(b >= a for a, b in zip(worst, worst[1:])), model

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

    @staticmethod
    def assert_outputs_hold(tmp_path, scenarios, **env):
        """Run each scenario on packaged defaults here and in a subprocess
        with env added, and hold every CSV of the second run to the first
        at 1e-10 rel."""
        host, other = tmp_path / "host", tmp_path / "other"
        for name in scenarios:
            assert cli.main([name, "--out", str(host / name)]) == 0
        env = dict(os.environ, **env,
                   PYTHONPATH=str(Path(fluxcomb.__file__).parents[1]))
        run = ("import sys; from fluxcomb import cli; sys.exit(max("
               "cli.main([name, '--out', sys.argv[1] + '/' + name]) "
               f"for name in {scenarios!r}))")
        subprocess.run([sys.executable, "-c", run, str(other)], env=env,
                       capture_output=True, check=True)
        paths = sorted(host.glob("*/*.csv"))
        assert {path.parent.name for path in paths} == set(scenarios)
        for path in paths:
            want, got = (np.loadtxt(root / path.relative_to(host),
                                    delimiter=",", skiprows=1)
                         for root in (host, other))
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13,
                                       err_msg=str(path.relative_to(host)))

    def test_outputs_hold_across_blas_kernels(self, tmp_path):
        """A manifest's hashes hold for one BLAS kernel; another kernel
        moves only the last printed digits. OPENBLAS_CORETYPE=Prescott
        against a SkylakeX host moved the spectroscopy contrasts by 1e-14
        abs, its spectrum by 1e-12 rel and the flux-sweep scores by 3e-11
        rel; every other scenario came out byte-identical."""
        blas = getattr(np.__config__, "CONFIG", {}).get(
            "Build Dependencies", {}).get("blas", {}).get("name", "")
        if "openblas" not in blas:
            pytest.skip(f"NumPy's BLAS is {blas or 'unknown'}, not OpenBLAS, "
                        "so OPENBLAS_CORETYPE selects no kernel")
        self.assert_outputs_hold(tmp_path, ("spectroscopy", "flux-sweep"),
                                 OPENBLAS_CORETYPE="Prescott")

    def test_outputs_hold_across_simd_targets(self, tmp_path):
        """A manifest's hashes also hold for one NumPy SIMD target. Every
        sine and cosine of spectroscopy's tone phases comes from np.tan,
        whose AVX-512 loop and the X86_V3 one differ by 1 ulp in about
        0.5% of arguments. Disabling the targets above X86_V3 on an
        AVX-512 host moved the spectroscopy contrasts by 1e-14 abs and
        its spectrum by 9e-13 rel, error-budget by 6.5e-11 rel and the
        nonmarkov Markovian trace by 1.1e-13 rel (the last two through
        other vectorized functions); every other scenario came out
        byte-identical."""
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        dispatch = list(umath.__cpu_dispatch__)
        above = [target for target in
                 dispatch[dispatch.index("X86_V3") + 1:]
                 if umath.__cpu_features__.get(target)] \
            if "X86_V3" in dispatch else []
        if not above:
            pytest.skip("this host runs no NumPy dispatch target above "
                        "X86_V3")
        self.assert_outputs_hold(
            tmp_path, ("spectroscopy", "error-budget", "nonmarkov"),
            NPY_DISABLE_CPU_FEATURES=" ".join(above))


class TestExitCodes:
    @pytest.mark.parametrize("scenario,args,key", [
        pytest.param("error-budget", ["--config", "bad.json"],
                     "'array.n_wires'", id="error-budget-config-file"),
        # removed knobs: the array size of a sweep, and the seed of the
        # scenarios that draw nothing at random
        pytest.param("scalability", ["--set", "array.n_qubits=3"],
                     "'array.n_qubits'", id="scalability-array-n_qubits"),
        *(pytest.param(s, ["--seed", "1"], "'seed'", id=f"{s}-seed")
          for s in cli.SCENARIOS if s != "spectroscopy")])
    def test_unknown_config_key_is_2(self, tmp_path, capsys, scenario, args,
                                     key):
        (tmp_path / "bad.json").write_text('{"array": {"n_wires": 3}}')
        code = cli.main([scenario, "--out", str(tmp_path / "out"),
                         *(str(tmp_path / a) if a.endswith(".json") else a
                           for a in args)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"unknown config key {key}" in err
        assert "Traceback" not in err

    def test_malformed_json_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        for raw in (b"{not json", b"\xff\xfe{"):   # the second is not UTF-8
            bad.write_bytes(raw)
            assert cli.main(["error-budget", "--config", str(bad),
                             "--out", str(tmp_path)]) == 2

    def test_config_root_not_object_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert cli.main(["error-budget", "--config", str(bad),
                         "--out", str(tmp_path)]) == 2
        assert "config root must be a JSON object" in capsys.readouterr().err

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
        ("spectroscopy", "seed=-1", "'seed'"),
        pytest.param("line-sim",
                     ["run.spectrum=temporal", "run.window_start_s=-1e-9"],
                     "'run.window_start_s'",
                     id="line-sim-temporal-window-before-start"),
        ("line-sim", "run.n_harmonics=0", "run.n_harmonics"),
        ("scalability", "models=[]", "models"),
        # one sweep a bus kind
        ("scalability", 'models=["reciprocal","nonreciprocal","reciprocal"]',
         "'models' must have length >= 1 and <= 2"),
        # JSON nested past the parser's recursion limit, from --set and
        # from a --config file (a value that starts with "{")
        pytest.param("nonmarkov", "n_points=" + "[" * 10 ** 5 + "]" * 10 ** 5,
                     "'n_points' must be an integer",
                     id="nonmarkov-set-nested-past-recursion-limit"),
        pytest.param("nonmarkov",
                     '{"n_points": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}",
                     "config is not valid JSON",
                     id="nonmarkov-config-nested-past-recursion-limit"),
        # long values, each echoed cut to errors.SHOWN characters
        pytest.param("nonmarkov", "n_points=" + "1" * 5000,
                     "'n_points' must be an integer",
                     id="nonmarkov-5000-digits"),
        pytest.param("nonmarkov", "n" * 10 ** 5, "--set needs key.path=value",
                     id="nonmarkov-set-without-value"),
        pytest.param("nonmarkov", "n" * 10 ** 5 + "=1", "unknown config key",
                     id="nonmarkov-long-unknown-key"),
        pytest.param("line-sim", "run.spectrum=" + "x" * 10 ** 5,
                     "'run.spectrum'", id="line-sim-long-spectrum"),
        ("nonmarkov", "smoothing_window=5001", "smoothing_window"),
        ("line-sim", "run.cfl_safety=0", "run.cfl_safety"),
        ("line-sim", "run.cfl_safety=1.5", "run.cfl_safety"),
        ("line-sim", "run.cfl_safety=-1", "run.cfl_safety"),
        # a dt that underflows to 0
        ("line-sim", "run.cfl_safety=5e-324", "'run.cfl_safety'"),
        # harmonics past the Nyquist limit of the spectrum
        ("line-sim", "run.n_harmonics=60", "'run.n_harmonics'"),
        ("line-sim", "run.n_harmonics=1000000000000000",
         "'run.n_harmonics'"),
        pytest.param("line-sim",
                     ["run.spectrum=temporal", "run.n_harmonics=36"],
                     "'run.n_harmonics'", id="line-sim-temporal-nyquist"),
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
        ("error-budget", "array.n_qubits=1025", "'array.n_qubits'"),
        ("scalability", "n_max=1025", "'n_max'"),
        ("spectroscopy", "spectrum.dt_s=0", "spectrum.dt_s"),
        ("nonmarkov", "t_end_s=0", "t_end_s"),
        ("line-sim", "run.t_end_s=0", "run.t_end_s"),
        pytest.param("line-sim", "run.wavepacket=true",
                     "'run.wavepacket' needs >= 2 'run.snapshot_times_s'",
                     id="line-sim-wavepacket-one"),
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
        # a step count past float range
        ("line-sim", "run.t_end_s=1e300", "'run.t_end_s'"),
        pytest.param("line-sim",
                     ["run.spectrum=temporal", "run.window_end_s=1e300"],
                     "'run.window_end_s'",
                     id="line-sim-temporal-window-end-past-float-range"),
        # range errors raised inside the library, named by their key
        ("flux-sweep", "harmonic_indices=[3,2]", "'harmonic_indices'"),
        ("flux-sweep", "harmonic_indices=[0]", "'harmonic_indices'"),
        ("addressing", "harmonic_index=0", "'harmonic_index'"),
        ("flux-sweep", "phi_dc.n=0", "'phi_dc.n'"),
        ("scalability", "n_min=0", "'n_min'"),
        pytest.param("scalability", ["n_min=5", "n_max=4"], "'n_max'",
                     id="scalability-n_max-below-n_min"),
        ("nonmarkov", "n_points=4", "'n_points'"),
        ("spectroscopy", "tau.n=1", "'tau.n'"),
        ("error-budget", "array.t_gate_s=0", "'array.t_gate_s'"),
        ("error-budget", "array.t2_intrinsic_s=1", "'array.t2_intrinsic_s'"),
        ("error-budget", "array.lambda_c_m=0", "'array.lambda_c_m'"),
        pytest.param("error-budget", "array.kappa_bus_hz=0",
                     "'array.kappa_bus_hz' must be > 0",
                     id="error-budget-array.kappa_bus_hz=0"
                     "-'array.kappa_bus_hz'"),
        pytest.param("scalability", "array.kappa_bus_hz=-1",
                     "'array.kappa_bus_hz' must be > 0",
                     id="scalability-array.kappa_bus_hz=-1"
                     "-'array.kappa_bus_hz'"),
        ("error-budget", "array.kappa_bus_hz=1e-300",
         "'array.kappa_bus_hz'"),
        ("scalability", "array.g_coupling_hz=1e300", "'array.g_coupling_hz'"),
        ("spectroscopy", "one_over_f.n_components=10",
         "'one_over_f.n_components'"),
        ("spectroscopy", "n_realizations=0", "'n_realizations'"),
        ("nonmarkov", "kernel.gamma_memory_hz=0", "'kernel.gamma_memory_hz'"),
        ("addressing", "n_levels=0", "'n_levels'"),
        ("addressing", "ec_hz=0", "'ec_hz'"),
        ("line-sim", "geometry.n_cells=8", "'geometry.n_cells'"),
        ("line-sim", "geometry.dz_m=0", "'geometry.dz_m'"),
        ("nonmarkov", "smoothing_window=-1", "'smoothing_window'"),
        ("nonmarkov", "smoothing_window=1000000000000000",
         "'smoothing_window'"),
        ("line-sim", "source.amplitude_volts=0", "'source.amplitude_volts'"),
        ("line-sim", "drive.phi_dc=1.6", "'drive.phi_dc'"),
        ("line-sim", "drive.phi_rf=1.2", "'drive.phi_rf'"),
        ("spectroscopy", "one_over_f.f_min_hz=0", "'one_over_f.f_min_hz'"),
        ("spectroscopy", "filtered.f_max_hz=1e3", "'filtered.f_max_hz'"),
        # bounds that keep the arithmetic in float range
        *((scenario, f"array.{key}={value!r}", f"'array.{key}'")
          for scenario in ("error-budget", "scalability")
          for key, value in (("t2_intrinsic_s", 5e-324),
                             ("lambda_c_m", 5e-324),
                             ("lambda_c_m", sys.float_info.min))),
        ("spectroscopy", "one_over_f.f_min_hz=1e-300",
         "'one_over_f.f_min_hz'"),
        ("spectroscopy", "filtered.f_min_hz=1e-300", "'filtered.f_min_hz'"),
        ("spectroscopy", "one_over_f.f_max_hz=1e300",
         "'one_over_f.f_max_hz'"),
        ("error-budget", "array.modulation_freq_hz=1e300",
         "'array.modulation_freq_hz'"),
        ("error-budget", "array.modulation_freq_hz=1e-300",
         "'array.modulation_freq_hz'"),
        ("scalability", "array.modulation_freq_hz=1e-300",
         "'array.modulation_freq_hz'"),
        ("scalability", "array.modulation_freq_hz=1e-150",
         "'array.modulation_freq_hz', 'array.g_coupling_hz'"),
        ("error-budget", "array.t_gate_s=1e300",
         "'array.t_gate_s', 'array.modulation_freq_hz'"),
        ("scalability", "array.t_gate_s=1e300",
         "'array.t_gate_s', 'array.modulation_freq_hz'"),
        ("line-sim", "geometry.i0_amps=1e300", "'geometry.i0_amps'"),
        ("line-sim", "geometry.i0_amps=1e-300", "'geometry.i0_amps'"),
        ("line-sim", "geometry.dz_m=1e300",
         "'geometry.c_per_length_f_per_m', 'geometry.dz_m'"),
        ("line-sim", "geometry.c_per_length_f_per_m=1e-300",
         "'geometry.c_per_length_f_per_m', 'geometry.dz_m'"),
        pytest.param("line-sim", ["geometry.dz_m=1e-100",
                                  "geometry.c_per_length_f_per_m=1e92"],
                     "'geometry.i0_amps', 'geometry.dz_m'",
                     id="line-sim-inductance-per-length-out-of-range"),
        # a constraint between keys names all of them
        ("scalability", "array.t1_intrinsic_s=1e-5",
         "'array.t2_intrinsic_s', 'array.t1_intrinsic_s'"),
        ("line-sim", "drive.phi_dc=1.0", "'drive.phi_rf', 'drive.phi_dc'"),
        ("spectroscopy", "one_over_f.f_max_hz=1e2",
         "'one_over_f.f_max_hz', 'one_over_f.f_min_hz'"),
        ("flux-sweep", "modulation_freq_hz=1e-300",
         "'harmonic_indices', 'modulation_freq_hz', 'ec_hz'"),
        ("flux-sweep", "ec_hz=1e-300",
         "'harmonic_indices', 'modulation_freq_hz', 'ec_hz'"),
        ("addressing", "modulation_freq_hz=1e300",
         "'harmonic_index', 'modulation_freq_hz', 'ec_hz'"),
        ("addressing", "ec_hz=1e15",
         "'harmonic_index', 'modulation_freq_hz', 'ec_hz'"),
        pytest.param("line-sim",
                     ["run.spectrum=temporal", "run.window_end_s=3e-9"],
                     "'run.window_end_s'",
                     id="line-sim-temporal-window-short"),
        pytest.param("line-sim", ["run.spectrum=temporal", "run.probe_m=1"],
                     "'run.probe_m'", id="line-sim-temporal-probe-outside"),
        # values whose arithmetic overflows to inf or NaN, or divides by 0
        ("spectroscopy", "filtered.filter_center_hz=-1",
         "'filtered.filter_center_hz'"),
        ("spectroscopy", "filtered.filter_center_hz=0",
         "'filtered.filter_center_hz'"),
        ("nonmarkov", "kernel.gamma_memory_hz=1e300",
         "'kernel.gamma_memory_hz'"),
        ("nonmarkov", "kernel.amplitude_over_gamma_sq=1e300",
         "'kernel.amplitude_over_gamma_sq', 'kernel.gamma_memory_hz'"),
        ("line-sim", "source.amplitude_volts=1e300",
         "'source.amplitude_volts'"),
        ("line-sim", "source.ramp_periods=-1", "'source.ramp_periods'"),
        pytest.param("line-sim", ["source.kind=gaussian-pulse",
                                  "source.t_center_s=1e300"],
                     "'source.t_center_s'", id="line-sim-pulse-center-far"),
        pytest.param("line-sim", ["source.kind=gaussian-pulse",
                                  "source.t_width_s=1e-300"],
                     "'source.t_width_s'", id="line-sim-pulse-width-tiny"),
        # keys that one mode reads, checked on the continuous-wave,
        # spatial-spectrum defaults
        ("line-sim", "run.probe_m=-1", "'run.probe_m'"),
        pytest.param("line-sim", ["run.probe_m=-1", "run.window_end_s=-1"],
                     "'run.window_end_s'", id="line-sim-cw-probe-and-window"),
        ("line-sim", "run.window_start_s=6e-9", "'run.window_start_s'"),
        pytest.param("line-sim", ["source.t_center_s=-5",
                                  "source.t_width_s=-1"],
                     "'source.t_width_s'", id="line-sim-cw-pulse-keys"),
        # a bias with cos(bias / 2) < 0, which no E_J calibrates
        ("addressing", "bias_phi_dc=3.3", "'bias_phi_dc'"),
        ("addressing", "bias_phi_dc=7", "'bias_phi_dc'"),
        # a source wavenumber omega / v_dc that underflows to 0, in every
        # mode, and a time step t_end_s / (n_points - 1) that underflows
        pytest.param("line-sim", "source.freq_hz=5e-324",
                     "'source.freq_hz'", id="line-sim-freq-underflow"),
        pytest.param("line-sim",
                     ["run.spectrum=temporal", "source.freq_hz=5e-324"],
                     "'source.freq_hz'",
                     id="line-sim-temporal-freq-underflow"),
        pytest.param("line-sim",
                     ["source.kind=gaussian-pulse", "source.freq_hz=5e-324"],
                     "'source.freq_hz'",
                     id="line-sim-gaussian-pulse-freq-underflow"),
        pytest.param("nonmarkov", "t_end_s=5e-324", "'t_end_s', 'n_points'",
                     id="nonmarkov-step-underflow"),
        # a bound holds whether or not its key's output is written
        pytest.param("nonmarkov", ["compare_markovian=false",
                                   "kernel.markovian_ratio=-1"],
                     "'kernel.markovian_ratio'",
                     id="nonmarkov-negative-ratio-unused"),
        # a Markovian rate markovian_ratio * 2 pi gamma_memory_hz out of
        # float range, written or not (the leaf walk stubs the kernel, so
        # it never reaches this check)
        *(pytest.param("nonmarkov", [f"compare_markovian={flag}",
                                     "kernel.markovian_ratio="
                                     f"{sys.float_info.max!r}"],
                       "'kernel.markovian_ratio', 'kernel.gamma_memory_hz'",
                       id=f"nonmarkov-ratio-overflow-{flag}")
          for flag in ("true", "false")),
        # the Markovian exponent at t_end out of float range, written or not
        *(pytest.param("nonmarkov", [f"compare_markovian={flag}",
                                     "kernel.markovian_ratio=1e290",
                                     "t_end_s=1e20"],
                       "'kernel.markovian_ratio', 'kernel.gamma_memory_hz', "
                       "'t_end_s'", id=f"nonmarkov-exponent-overflow-{flag}")
          for flag in ("true", "false")),
        # more harmonics than a budget array holds qubits, before any
        # calibration
        pytest.param("flux-sweep",
                     [f"harmonic_indices={list(range(1, 1026))}",
                      "phi_dc.n=1", "phi_rf.n=1"],
                     "'harmonic_indices' must have length >= 1 and <= 1024",
                     id="flux-sweep-harmonics-over-1024"),
        # a step that aliases the modulation (f dt = 0.94) or the source
        # under no spectrum
        ("line-sim", "drive.modulation_freq_hz=2e11",
         "'drive.modulation_freq_hz'"),
        pytest.param("line-sim", ["run.spectrum=none",
                                  f"source.freq_hz={sys.float_info.max!r}"],
                     "'source.freq_hz'", id="line-sim-none-source-aliased"),
        # a notch turned bump whose tone variance overflows
        ("spectroscopy", "filtered.filter_depth_db=-3000",
         "'filtered.filter_depth_db'"),
        # a choice outside its list names its key
        ("line-sim", "run.spectrum=x", "'run.spectrum'"),
        ("error-budget", "bus=x", "'bus'"),
        ("scalability", 'models=["reciprocal","x"]', "'models'"),
        ("line-sim", "source.port=x", "'source.port'"),
        ("line-sim", "source.kind=x", "'source.kind'"),
        # snapshots out of order, and past t_end
        ("line-sim", "run.snapshot_times_s=[2e-9,1e-9]",
         "'run.snapshot_times_s'"),
        ("line-sim", "run.snapshot_times_s=[1e-8]", "'run.snapshot_times_s'"),
        # an error budget out of float range from two keys at once
        pytest.param("scalability",
                     ["n_max=3", "array.t_gate_s=1e10",
                      "array.t2_intrinsic_s=2.2250738585072014e-308"],
                     ["'array.t2_intrinsic_s'", "'array.t_gate_s'"],
                     id="scalability-budget-overflow"),
        pytest.param("error-budget",
                     ["array.kappa_bus_hz=1.7976931348623157e308",
                      "array.t1_intrinsic_s=1.7976931348623157e308"],
                     ["'array.t1_intrinsic_s'", "'array.kappa_bus_hz'"],
                     id="error-budget-budget-overflow"),
        # a calibrated qubit outside the transmon regime, ej_max/ec < 10
        pytest.param("flux-sweep", ["ec_hz=1.5e9", "harmonic_indices=[5]"],
                     "'ec_hz', 'harmonic_indices', 'modulation_freq_hz'",
                     id="flux-sweep-charge-regime"),
        pytest.param("addressing", ["ec_hz=1.5e9", "harmonic_index=5"],
                     "'ec_hz', 'harmonic_index', 'modulation_freq_hz', "
                     "'bias_phi_dc'", id="addressing-charge-regime"),
        # a probe past a line shortened by its geometry, and a pulse that
        # has left a faster line by its last snapshot
        pytest.param("line-sim", [*LINE_SMALL, "geometry.dz_m=1e-10"],
                     "'run.probe_m', 'geometry.n_cells', 'geometry.dz_m'",
                     id="line-sim-probe-off-short-line"),
        pytest.param("line-sim",
                     [*SENSITIVITY_PASSES["line-sim"][2],
                      "geometry.c_per_length_f_per_m=1e-10"],
                     "'geometry.c_per_length_f_per_m'",
                     id="line-sim-pulse-left-the-line"),
        # a phi_dc grid whose span overflows
        pytest.param("flux-sweep", ["phi_dc.stop=1e300",
                                    "phi_dc.start=-1.7976931348623157e308"],
                     "'phi_dc.start', 'phi_dc.stop'",
                     id="flux-sweep-grid-span-overflow"),
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, scenario,
                               assignment, key):
        assignments = [assignment] if isinstance(assignment, str) \
            else assignment
        args = []
        for x in assignments:
            if x.startswith("{"):
                (tmp_path / "config.json").write_text(x)
                args += ["--config", str(tmp_path / "config.json")]
            else:
                args += ["--set", x]
        code = cli.main([scenario, "--out", str(tmp_path), *args])
        err = capsys.readouterr().err
        assert code == 2
        for k in [key] if isinstance(key, str) else key:
            assert k in err
        assert "Traceback" not in err
        # an echoed value is cut, however long the input
        assert len(err.encode()) < 1024

    def test_long_value_renders_only_its_head(self):
        """A list echoed in a message renders about SHOWN of its items,
        not all of them; a value that fits renders as repr does."""
        calls = []

        class Item:
            def __repr__(self):
                calls.append(1)
                return "1e-09"

        text = errors.shown([Item() for _ in range(100_000)])
        assert text.endswith("... (100000 items)")
        assert errors.SHOWN // 8 <= len(calls) <= errors.SHOWN
        # the cut holds at every nesting level, not only the top one
        calls.clear()
        text = errors.shown([[Item() for _ in range(100_000)]])
        assert text.endswith("... (1 items)")
        assert len(text) == errors.SHOWN + len("... (1 items)")
        assert len(calls) <= errors.SHOWN
        inner = [list(range(100_000))]
        assert errors.shown(inner) == repr(inner)[:errors.SHOWN] \
            + "... (1 items)"
        for value in ([1.5, [2, (3,)], {"a": ()}], "x" * (errors.SHOWN - 2),
                      {"b": [None, True]}, (), [[[]]],
                      ({(2,): "3"}, (4,))):
            assert errors.shown(value) == repr(value)
        deep = json.loads("[" * 900 + "]" * 900)
        assert errors.shown(deep) == repr(deep)[:errors.SHOWN] \
            + "... (1 items)"

    @pytest.mark.parametrize("assignments,keys", [
        # a tiny source frequency lifts the spatial Nyquist limit past the
        # spectrum's bins
        pytest.param(["source.freq_hz=1e-200", "run.n_harmonics=100000000"],
                     ["'run.n_harmonics'", "'geometry.n_cells'"],
                     id="harmonics-past-the-bins"),
        # a step past line.MAX_CFL_SAFETY, where the packaged line's
        # stable (0.5, 0.3) drive grows a grid mode by 32 ns
        pytest.param(["run.cfl_safety=0.999"], ["'run.cfl_safety'"],
                     id="cfl-past-the-cap"),
    ])
    def test_line_sim_exits_2_before_any_step(self, tmp_path, capsys,
                                              monkeypatch, assignments, keys):
        def step(*args, **kwargs):
            raise AssertionError("a line step ran")

        monkeypatch.setattr(cli.line.Simulator, "_advance", step)
        code = cli.main(["line-sim", "--out", str(tmp_path),
                         *(a for x in assignments for a in ("--set", x))])
        err = capsys.readouterr().err
        assert code == 2
        for key in keys:
            assert key in err
        assert list(tmp_path.iterdir()) == []

    def test_field_near_float_range_runs_without_warning(self, tmp_path):
        """At 1.3e154 V the amplitude's square is still a float, but the
        blowup check's v.v overflows on a field within the ceiling; the
        exact max|v| test decides, and nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["line-sim", "--out", str(tmp_path), "--set",
                             "source.amplitude_volts=1.3e154"]) == 0

    @pytest.mark.parametrize("assignment,keys,what", [
        # the phase draw holds one chunk: the realizations size the tone sum
        ("n_realizations=1000000000000000", ["'n_realizations'"],
         "dephasing ensemble"),
        ("n_realizations=100000000", ["'n_realizations'"],
         "dephasing ensemble"),
        ("one_over_f.n_components=1000000000000000",
         ["'one_over_f.n_components'"], "phase draw"),
        ("filtered.n_components=1000000000000000",
         ["'filtered.n_components'"], "phase draw"),
        ("tau.n=1000000000000000", ["'tau.n'"], "tone tables"),
        ("spectrum.n_avg=1000000000000000", ["'spectrum.n_avg'"],
         "noise traces"),
        ("spectrum.duration_s=1e300",
         ["'spectrum.duration_s'", "'spectrum.dt_s'"], "noise traces"),
        ("spectrum.dt_s=1e-300",
         ["'spectrum.duration_s'", "'spectrum.dt_s'"], "noise traces"),
        # sizes that pass every other cap; the phase draw holds one chunk
        # of each model's tones
        (["filtered.n_components=131073", "tau.n=2"],
         ["'one_over_f.n_components'", "'filtered.n_components'"],
         "phase draw"),
        (["one_over_f.n_components=30000", "tau.n=2"],
         ["'spectrum.n_avg'", "'one_over_f.n_components'"],
         "noise coefficients"),
        (["spectrum.n_avg=1", "one_over_f.n_components=100",
          "spectrum.duration_s=20"],
         ["'spectrum.n_avg'", "'spectrum.duration_s'", "'spectrum.dt_s'"],
         "noise traces"),
        ("tau.n=3000", ["'n_realizations'", "'tau.n'",
                        "'one_over_f.n_components'",
                        "'filtered.n_components'"], "dephasing ensemble"),
        ("spectrum.duration_s=0.2",
         ["'spectrum.n_avg'", "'spectrum.duration_s'", "'spectrum.dt_s'",
          "'one_over_f.n_components'"], "noise synthesis"),
        # unequal tone grids: each grid's tables are one array, sized by
        # the larger grid (16.2M floats summed, 32M in the larger array)
        pytest.param(["tau.n=1000", "one_over_f.n_components=8000",
                      "filtered.n_components=100"],
                     ["'tau.n'", "'one_over_f.n_components'",
                      "'filtered.n_components'"], "tone tables",
                     id="unequal-tone-grids"),
    ])
    def test_spectroscopy_work_over_cap_is_2(self, tmp_path, capsys,
                                            monkeypatch, assignment, keys,
                                            what):
        """The preflight rejects an oversized run from its config alone,
        before any tone sum starts, and names the keys of that size."""
        def no_work(*args, **kwargs):
            raise AssertionError("the preflight let the run start")

        monkeypatch.setattr(cli.nonmarkov, "dephasing", no_work)
        monkeypatch.setattr(cli.nonmarkov, "averaged_periodogram", no_work)
        assignments = [assignment] if isinstance(assignment, str) \
            else assignment
        code = cli.main(["spectroscopy", "--out", str(tmp_path),
                         *(a for x in assignments for a in ("--set", x))])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{what}: " in err and "above the cap" in err
        for key in keys:
            assert key in err
        assert "Traceback" not in err

    @staticmethod
    def _stop_at_work(monkeypatch, exc):
        """Raise `exc` at the first step of flux-sweep, addressing,
        nonmarkov, line-sim and spectroscopy that follows their size
        preflight."""
        def work(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.transmon, "default_comb_qubits", work)
        monkeypatch.setattr(cli.nonmarkov, "evolve_kernel", work)
        monkeypatch.setattr(cli.line, "build_line", work)
        monkeypatch.setattr(cli.nonmarkov, "dephasing", work)

    @pytest.mark.parametrize("scenario,assignments,keys,what", [
        ("flux-sweep", ["phi_dc.n=1000000000000000"], MAP_KEYS,
         "addressing map"),
        ("flux-sweep", ["phi_rf.n=1000000000000000"], MAP_KEYS,
         "addressing map"),
        pytest.param("flux-sweep",
                     [f"phi_dc.n={MAX_MAP_POINTS // N_HARMONICS + 1}",
                      "phi_rf.n=1"],
                     MAP_KEYS, "addressing map",
                     id="flux-sweep-one-over-cap"),
        # one-key caps, checked with the types (cli.BOUNDS)
        pytest.param("nonmarkov", ["n_points=1000000000000000"],
                     ["'n_points'"], f"must be >= 5 and <= {MAX_ARRAY // 2}",
                     id="nonmarkov-n_points-1e15"),
        pytest.param("nonmarkov", [f"n_points={MAX_ARRAY // 2 + 1}"],
                     ["'n_points'"], f"must be >= 5 and <= {MAX_ARRAY // 2}",
                     id="nonmarkov-one-over-cap"),
        pytest.param("addressing", ["n_levels=1000000000000000"],
                     ["'n_levels'"], f"must be >= 3 and <= {MAX_LEVELS}",
                     id="addressing-n_levels-1e15"),
        pytest.param("addressing", [f"n_levels={MAX_LEVELS + 1}"],
                     ["'n_levels'"], f"must be >= 3 and <= {MAX_LEVELS}",
                     id="addressing-one-over-cap"),
        ("line-sim", [f"geometry.n_cells={cli.line.MAX_CELLS}"], LINE_KEYS,
         "line run"),
        ("line-sim", ["run.cfl_safety=1e-300"], LINE_KEYS, "line run"),
        ("line-sim", ["geometry.dz_m=1e-60"], LINE_KEYS, "line run"),
        pytest.param("line-sim", [f"geometry.n_cells={CAP_CELLS + 1}",
                                  f"run.t_end_s={1024 * LINE_DT!r}"],
                     LINE_KEYS, "line run", id="line-sim-one-over-cap"),
        pytest.param("line-sim", ["run.spectrum=temporal",
                                  "run.window_end_s=1e-3"],
                     [*LINE_KEYS, "'run.window_end_s'"], "line run",
                     id="line-sim-temporal-window-end"),
        # over at the packaged phi_rf, under at phi_rf = 0 (see below)
        pytest.param("line-sim", ["run.t_end_s=1e-5"], LINE_KEYS, "line run",
                     id="line-sim-phi_rf-tips-the-cap"),
        pytest.param("line-sim", [snapshots(1001)],
                     ["'run.snapshot_times_s'"], "must have length <= 1000",
                     id="line-sim-1001-snapshots"),
        pytest.param("line-sim", [snapshots(1000),
                                  f"geometry.n_cells={SNAPSHOT_CELLS + 1}"],
                     ["'run.snapshot_times_s'", "'geometry.n_cells'"],
                     "snapshots", id="line-sim-snapshots-one-over-cap"),
        # a line too long to hold, however few its steps
        pytest.param("line-sim", ["geometry.n_cells=1000000000000000"],
                     ["'geometry.n_cells'"], CELLS_RULE,
                     id="line-sim-cells-1e15"),
        pytest.param("line-sim", ["geometry.n_cells=1" + "0" * 400],
                     ["'geometry.n_cells'"], CELLS_RULE,
                     id="line-sim-cells-past-float-range"),
        pytest.param("line-sim", ["geometry.n_cells=200000000",
                                  "run.t_end_s=5e-12"],
                     ["'geometry.n_cells'"], CELLS_RULE,
                     id="line-sim-cells-one-step"),
        pytest.param("line-sim", [f"geometry.n_cells={cli.line.MAX_CELLS + 1}",
                                  "run.t_end_s=5e-12"],
                     ["'geometry.n_cells'"], CELLS_RULE,
                     id="line-sim-cells-one-over-cap"),
    ])
    def test_work_over_cap_is_2(self, tmp_path, capsys, monkeypatch,
                                scenario, assignments, keys, what):
        """The preflight rejects an oversized map, kernel trace or level
        count from the config alone, before anything is allocated: a cap
        on one key is a bound of cli.BOUNDS, `what` its rule."""
        self._stop_at_work(monkeypatch,
                           AssertionError("the preflight let the run start"))
        code = cli.main([scenario, "--out", str(tmp_path),
                         *(a for x in assignments for a in ("--set", x))])
        err = capsys.readouterr().err
        assert code == 2
        if what.startswith("must "):
            assert f"{keys[0]} {what}, got " in err
        else:
            assert f"{what}: " in err and "above the cap" in err
        for key in keys:
            assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario,assignments", [
        ("flux-sweep",
         [f"phi_dc.n={MAX_MAP_POINTS // N_HARMONICS}", "phi_rf.n=1"]),
        ("flux-sweep",
         ["phi_dc.n=1", f"phi_rf.n={MAX_MAP_POINTS // N_HARMONICS}"]),
        ("nonmarkov", [f"n_points={MAX_ARRAY // 2}"]),
        ("addressing", [f"n_levels={MAX_LEVELS}"]),
        ("line-sim", [f"geometry.n_cells={CAP_CELLS}",
                      f"run.t_end_s={1024 * LINE_DT!r}"]),
        # the window's end sets the size when it is later than t_end
        ("line-sim", [f"geometry.n_cells={CAP_CELLS}", "run.spectrum=temporal",
                      "run.t_end_s=1e-9",
                      f"run.window_end_s={1024 * LINE_DT!r}"]),
        # the longest line, for one step
        ("line-sim", [f"geometry.n_cells={cli.line.MAX_CELLS}",
                      "run.t_end_s=5e-12"]),
        # ensembles whose realizations would not fit in one array: the
        # dephasing ensemble holds one chunk of them at a time
        ("spectroscopy", ["n_realizations=50000", "tau.n=100",
                          "one_over_f.n_components=100",
                          "filtered.n_components=100"]),
        ("spectroscopy", ["n_realizations=200000", "tau.n=2",
                          "one_over_f.n_components=100",
                          "filtered.n_components=100"]),
        # the largest phase draw: 2 models x CHUNK x 131072 = 2^24 floats
        ("spectroscopy", ["filtered.n_components=131072", "tau.n=2"]),
        # phi_rf = 0 lifts cfl_bound's |phi_dc| - phi_rf and so dt
        ("line-sim", ["run.t_end_s=1e-5", "drive.phi_rf=0.0"]),
        # the benchmark's snapshots, and the most snapshot floats
        ("line-sim", ["geometry.n_cells=1024", "run.t_end_s=3e-8",
                      snapshots(20, 3e-8)]),
        ("line-sim", [snapshots(1000), f"geometry.n_cells={SNAPSHOT_CELLS}"]),
    ])
    def test_work_at_cap_passes_preflight(self, tmp_path, monkeypatch,
                                          scenario, assignments):
        """The largest size under each cap gets past the preflight to the
        scenario's work (stopped there)."""
        class Started(Exception):
            pass

        self._stop_at_work(monkeypatch, Started())
        with pytest.raises(Started):
            cli.main([scenario, "--out", str(tmp_path),
                      *(a for x in assignments for a in ("--set", x))])

    @pytest.mark.parametrize("scenario,extra", WALK_PASSES)
    def test_leaf_walk_exits_2_or_reaches_the_work(self, tmp_path, capsys,
                                                   monkeypatch, scenario,
                                                   extra):
        """Any value of any one numeric leaf exits 2 naming its key, or
        gets past every check to the scenario's work, stopped there: the
        calibration, the kernel, the first line step or the dephasing
        ensemble. error-budget and scalability run whole in milliseconds
        and may exit 0. No other exit, no traceback and, as the suite
        turns warnings into errors, no RuntimeWarning."""
        class Started(Exception):
            pass

        def work(*args, **kwargs):
            raise Started

        for owner, name in ((cli.transmon, "default_comb_qubits"),
                            (cli.nonmarkov, "evolve_kernel"),
                            (cli.line.Simulator, "_advance"),
                            (cli.nonmarkov, "dephasing"),
                            (cli.nonmarkov, "averaged_periodogram")):
            monkeypatch.setattr(owner, name, work)
        wrong = []
        defaults = cli._packaged_defaults()[scenario]
        settings = ((f"{key}={json.dumps(probe)}", key)
                    for key, value in config_leaves(defaults)
                    for probe in WALK_VALUES.get(type(value), ()))
        for setting, key in settings:
            try:
                code = cli.main([scenario, "--out", str(tmp_path),
                                 *(a for x in [*extra, setting]
                                   for a in ("--set", x))])
            except Started:
                continue
            err = capsys.readouterr().err
            if not (code == 2 and f"'{key}'" in err
                    or code == 0 and scenario in ("error-budget",
                                                  "scalability")):
                wrong.append((setting, code, err))
        assert wrong == []

    @pytest.mark.parametrize("scenario,settings", [
        pytest.param(s, settings, id=f"{s}-{k}")
        for s, passes in SENSITIVITY_PASSES.items()
        for k, settings in enumerate(passes)])
    def test_leaf_walk_through_the_work(self, tmp_path, capsys, scenario,
                                        settings):
        """Each WALK_VALUES value on each numeric leaf of a sensitivity
        pass, run whole: exit 0 with no non-finite CSV cell, or exit 2
        naming the key. Exit 3 only for a key of GROWS. No traceback and,
        as the suite turns warnings into errors, no RuntimeWarning."""
        wrong = []
        config = cli.resolve_config(scenario, None, settings)
        for key, value in config_leaves(config):
            for probe in WALK_VALUES.get(type(value), ()):
                setting = f"{key}={json.dumps(probe)}"
                try:
                    code = cli.main([scenario, "--out", str(tmp_path),
                                     *(a for x in [*settings, setting]
                                       for a in ("--set", x))])
                except Exception as exc:
                    wrong.append((setting, repr(exc)))
                    continue
                err = capsys.readouterr().err
                if code == 0:
                    files = json.loads(
                        (tmp_path / "manifest.json").read_text())["files"]
                    bad = [e["path"] for e in files
                           if re.search(r"(^|,)-?(nan|inf)(,|$)",
                                        (tmp_path / e["path"]).read_text(),
                                        re.M)]
                    if bad:
                        wrong.append((setting, code, bad))
                elif not (code == 2 and f"'{key}'" in err
                          or code == 3 and key in GROWS.get(scenario, {})):
                    wrong.append((setting, code, err))
        assert wrong == []

    @pytest.mark.parametrize("scenario,settings,k", [
        pytest.param(s, settings, k, id=f"{s}-{j}")
        for k, (s, j, settings) in enumerate(
            (s, j, settings) for s, passes in SENSITIVITY_PASSES.items()
            for j, settings in enumerate(passes))])
    def test_pair_walk_through_the_work(self, tmp_path, capsys, scenario,
                                        settings, k):
        """PAIRS_PER_PASS random pairs of two numeric leaves of a
        sensitivity pass, each set to one of its WALK_VALUES values, drawn
        from a generator seeded with (PAIR_SEED, the pass's index), run
        whole under the single-leaf walk's verdict: exit 2 names one of
        the two keys."""
        rng = np.random.default_rng((PAIR_SEED, k))
        config = cli.resolve_config(scenario, None, settings)
        leaves = [(key, WALK_VALUES[type(value)])
                  for key, value in config_leaves(config)
                  if type(value) in WALK_VALUES]
        wrong = []
        for _ in range(PAIRS_PER_PASS):
            pair = [leaves[j] for j in rng.choice(len(leaves), 2,
                                                  replace=False)]
            assignments = [
                f"{key}={json.dumps(values[rng.integers(len(values))])}"
                for key, values in pair]
            try:
                code = cli.main([scenario, "--out", str(tmp_path),
                                 *(a for x in [*settings, *assignments]
                                   for a in ("--set", x))])
            except Exception as exc:
                wrong.append((assignments, repr(exc)))
                continue
            err = capsys.readouterr().err
            if code == 0:
                files = json.loads(
                    (tmp_path / "manifest.json").read_text())["files"]
                bad = [e["path"] for e in files
                       if re.search(r"(^|,)-?(nan|inf)(,|$)",
                                    (tmp_path / e["path"]).read_text(),
                                    re.M)]
                if bad:
                    wrong.append((assignments, code, bad))
            elif not (code == 2 and any(f"'{key}'" in err for key, _ in pair)
                      or code == 3 and any(key in GROWS.get(scenario, {})
                                           for key, _ in pair)):
                wrong.append((assignments, code, err))
        assert wrong == []

    @pytest.mark.parametrize("scenario", SENSITIVITY_PASSES)
    def test_sensitivity_walk_every_leaf_changes_a_csv(self, tmp_path,
                                                       scenario):
        """For every leaf, the first valid value of _nudges changes at
        least one CSV byte in at least one of the scenario's passes. The
        INERT leaves, and only they, change nothing."""
        def csvs(settings):
            out = tmp_path / str(len(list(tmp_path.iterdir())))
            code = cli.main([scenario, "--out", str(out),
                             *(a for x in settings for a in ("--set", x))])
            return code, {p.name: p.read_bytes() for p in out.glob("*.csv")}

        moved = set()
        for settings in SENSITIVITY_PASSES[scenario]:
            code, base = csvs(settings)
            assert code == 0 and base, settings
            config = cli.resolve_config(scenario, None, settings)
            for key, value in config_leaves(config):
                if key in moved:
                    continue
                for nudge in _nudges(key, value):
                    code, got = csvs([*settings, f"{key}={json.dumps(nudge)}"])
                    if code == 0:
                        if got != base:
                            moved.add(key)
                        break
        defaults = cli._packaged_defaults()[scenario]
        assert {key for key, _ in config_leaves(defaults)} - moved \
            == set(INERT.get(scenario, {}))

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
        for key in ("start", "stop"):
            code = cli.main(["flux-sweep", "--out", str(tmp_path),
                             "--set", f"phi_rf.{key}=-0.1"])
            assert code == 2
            assert f"'phi_rf.{key}'" in capsys.readouterr().err

    def test_blowup_is_3(self, tmp_path):
        # 1024 cells over 30 ns grow past the ceiling from parametric gain,
        # at step 4,900
        code = cli.main(["line-sim", "--out", str(tmp_path),
                         "--set", "geometry.n_cells=1024",
                         "--set", "run.t_end_s=3e-8",
                         "--set", "run.spectrum=none"])
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


def test_keys_passes_other_errors_through():
    """A ConfigError whose first word names none of the fields leaves
    cli._keys as the same exception, its message unchanged."""
    exc = ConfigError("qubit frequency 9 GHz outside the flux curve's "
                      "range (ec, ej_max)")
    with pytest.raises(ConfigError) as info:
        with cli._keys(ec="ec_hz", ej_max="bias_phi_dc"):
            raise exc
    assert info.value is exc
    assert str(info.value) == str(exc)
