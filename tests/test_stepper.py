"""The blocked, batched stepper against a per-step reference loop: same
trajectories to roundoff, same probe records, same blowup step and state,
and the runs of one simulator equal to the same runs stepped one at a
time."""

import math
import re

import numpy as np
import pytest

from fluxcomb import line
from fluxcomb.errors import ConfigError, NumericalError
from helpers import default_drive


def _source_value(src, t):
    if src.kind == "continuous-wave":
        ramp = src.ramp_periods * 2.0 * math.pi / src.omega
        a = src.amplitude
        if t < ramp:
            a = a * 0.5 * (1.0 - math.cos(math.pi * t / ramp))
        return a * math.sin(src.omega * t)
    x = (t - src.t_center) / src.t_width
    return src.amplitude * math.exp(-0.5 * x * x) \
        * math.sin(src.omega * (t - src.t_center))


def reference_advance(sim, n_steps, probe_idx=()):
    """The stepper one step at a time, with the modulation evaluated as
    sin(mod_phase - omega_s t) per cell: advances copies of the state of
    sim's one run and returns (bad_step, v, flux, i, probe_record)."""
    v, i_work = sim.v[0].copy(), sim.i[0].copy()
    flux = sim._psi_cells[0] * sim.dt
    (src,), d, dt = sim.sources, sim.drive, sim.dt
    dt_over_c = dt / sim.geom.c_cell
    dt_over_cend = dt / (0.5 * sim.geom.c_cell)
    rec = np.empty((n_steps, len(probe_idx)))
    for s in range(n_steps):
        k = sim.t_index + s
        th = (k + 0.5) * dt
        flux += dt * (v[:-1] - v[1:])
        arg = d.phi_dc_tilde + d.phi_rf_tilde * np.sin(
            sim._mod_phase - d.omega_s * th)
        np.multiply(flux, np.cos(arg), out=i_work)
        i_work *= 1.0 / sim.geom.l0
        for p, b in enumerate(probe_idx):
            rec[s, p] = i_work[b]
        v[1:-1] += dt_over_c * (i_work[:-1] - i_work[1:])
        vs = _source_value(src, th)
        vs_l, vs_r = (vs, 0.0) if src.port == "left" else (0.0, vs)
        a = sim._a_end
        v[0] = (v[0] + a * vs_l - dt_over_cend * i_work[0]) / (1.0 + a)
        v[-1] = (v[-1] + a * vs_r + dt_over_cend * i_work[-1]) \
            / (1.0 + a)
        if not float(np.max(np.abs(v))) <= sim.ceiling:
            return k, v, flux, i_work, rec
    return -1, v, flux, i_work, rec


N_CELLS = 64
CW_LEFT = ("continuous-wave", "left", 7)


def make_sim(*rows, ceiling=1.0):
    """A short line under rf drive with one run per (kind, port, seed)
    row, each with a random initial field drawn from its seed, so every
    term of the update is exercised from the first step, and the blowup
    ceiling [V] that _advance reads at each call."""
    geom = line.LineGeometry(n_cells=N_CELLS)
    drive = default_drive(0.6, 0.6, geom)
    omega = 2.0 * math.pi * 3e9
    sources = []
    for kind, port, _ in rows or [CW_LEFT]:
        if kind == "continuous-wave":
            sources.append(line.SourceSpec(
                kind=kind, omega=omega, amplitude=1e-6, port=port,
                ramp_periods=0.5))
        else:
            sources.append(line.SourceSpec(
                kind=kind, omega=omega, amplitude=1e-6, t_center=0.2e-9,
                t_width=0.05e-9, port=port))
    sim = line.build_line(geom, drive, *sources)
    sim.ceiling = ceiling
    for r, (*_, seed) in enumerate(rows or [CW_LEFT]):
        rng = np.random.default_rng(seed)
        sim.v[r] = rng.normal(scale=1e-7, size=N_CELLS + 1)
        sim._psi_cells[r] = rng.normal(scale=1e-16, size=N_CELLS) / sim.dt
    return sim


def assert_close(got, want, rel=1e-12):
    """Equal within rel of the reference's largest magnitude."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["continuous-wave", "gaussian-pulse"])
@pytest.mark.parametrize("port", ["left", "right"])
def test_trajectories_match_reference(kind, port):
    sim = make_sim((kind, port, 7))
    # segments off the block boundary: a partial block, several full
    # blocks and a tail, starting at a nonzero step index
    for n_steps in (5, 200, 71):
        bad, v, flux, i, _ = reference_advance(sim, n_steps)
        assert bad == -1
        sim._advance(n_steps)
        assert_close(sim.v[0], v)
        assert_close(sim._psi_cells[0] * sim.dt, flux)
        assert_close(sim.i[0], i)
    assert sim.t_index == 276


def test_probe_records_match_reference():
    sim = make_sim()
    sim._advance(33)
    probes = [3, 31, 60]
    _, v, _, _, rec_ref = reference_advance(sim, 150, probes)
    rec = sim._advance(150, [probes])
    assert rec.shape == (150, 3)
    assert_close(rec, rec_ref)
    assert_close(sim.v[0], v)


def test_ceiling_trip_matches_reference():
    # from rest, the wave entering at the left port passes the 6e-7 V
    # ceiling inside the second block; before that, v.v already exceeds
    # ceiling^2 while every |v| is under it, so both tests run
    sim = make_sim(ceiling=6e-7)
    sim.v[:] = 0.0
    sim._psi[:] = 0.0
    bad, v, flux, i, _ = reference_advance(sim, 400)
    assert bad > line.BLOCK
    with pytest.raises(NumericalError, match=f"at step {bad} "):
        sim._advance(400)
    assert sim.t_index == bad + 1
    assert_close(sim.v[0], v)
    assert_close(sim._psi_cells[0] * sim.dt, flux)
    assert_close(sim.i[0], i)


def test_one_node_just_over_ceiling_trips():
    """A field concentrated on a few nodes, its largest 1% over the
    ceiling: v.v stays under 2 ceiling^2, so only the exact test of the
    largest |v| catches it."""
    def excited(ceiling):
        sim = make_sim(ceiling=ceiling)
        sim.v[:] = 0.0
        sim._psi[:] = 0.0
        sim.v[0, 30] = 1e-6
        return sim

    _, v, *_ = reference_advance(excited(1.0), 1)
    peak = float(np.max(np.abs(v)))
    assert v @ v < 2.0 * peak * peak
    sim = excited(0.99 * peak)
    with pytest.raises(NumericalError, match="at step 0 "):
        sim._advance(5)
    assert_close(sim.v[0], v)


def test_nan_trip_matches_reference():
    sim = make_sim()
    sim._advance(40)
    sim._psi_cells[0, 17] = np.nan
    bad, v, flux, i, _ = reference_advance(sim, 100)
    assert bad == 40
    with pytest.raises(NumericalError, match="at step 40 "):
        sim._advance(100)
    assert sim.t_index == 41
    for got, want in ((sim.v[0], v), (sim._psi_cells[0] * sim.dt, flux),
                      (sim.i[0], i)):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert_close(got[ok], want[ok])


def assert_same_state(a, b):
    """Every run of a equals the same run of b, bit for bit."""
    assert a.t_index == b.t_index
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a._psi_cells * a.dt, b._psi_cells * b.dt)
    np.testing.assert_array_equal(a.i, b.i)


def assert_same_run(batch, row, single):
    """Run `row` of batch equals the one run of single, bit for bit."""
    assert batch.t_index == single.t_index
    flux_b, flux_s = (s._psi_cells * s.dt for s in (batch, single))
    for got, want in ((batch.v, single.v), (flux_b, flux_s),
                      (batch.i, single.i)):
        np.testing.assert_array_equal(got[row], want[0])


def test_batch_equals_single_runs():
    """Runs of one simulator share the modulation table and step with the
    same elementwise arithmetic, so each is bit-identical to its own run,
    probe records included."""
    rows = [("continuous-wave", "left", 1), ("gaussian-pulse", "right", 2)]
    probes = [[5, 40], [60]]
    pair = make_sim(*rows)
    pair._advance(90)
    rec = pair._advance(130, probes)
    assert pair.t_index == 220
    for r, (row, p, cols) in enumerate(zip(rows, probes,
                                           (slice(0, 2), slice(2, 3)))):
        single = make_sim(row)
        single._advance(90)
        np.testing.assert_array_equal(single._advance(130, [p]),
                                      rec[:, cols])
        assert_same_run(pair, r, single)


def test_three_row_batch_isolates_its_seams():
    """The middle run of three has a seam on each side. Over several
    calls, with the seam ghosts kept from one call to the next, each run
    equals its own run bit for bit and the ghosts' currents stay exactly
    0; when run 0 leaves the ceiling partway through a call, every run is
    left at that step and still equals its own run there: the ghost slots
    pass nothing across."""
    rows = [("continuous-wave", "left", 1), ("gaussian-pulse", "right", 2),
            ("continuous-wave", "right", 3)]
    probes = [[0], [N_CELLS - 1, 5], [31]]
    trio = make_sim(*rows)
    single = [make_sim(row) for row in rows]
    recs = [trio._advance(k, probes) for k in (70, 1, 79)]
    assert np.all(trio._psi[N_CELLS + 1:-1:N_CELLS + 1] != 0.0)
    assert np.all(trio._j[::N_CELLS + 1] == 0.0)
    cols = np.split(np.concatenate(recs), [1, 3], axis=1)
    for r, (b, p, rec) in enumerate(zip(single, probes, cols)):
        np.testing.assert_array_equal(
            np.concatenate([b._advance(k, [p]) for k in (70, 1, 79)]), rec)
        assert_same_run(trio, r, b)

    # run 0 rescaled to 0.9 of the ceiling: it leaves it after a step
    for sim in (trio, single[0]):
        scale = 0.9 * sim.ceiling / np.max(np.abs(sim.v[0]))
        sim.v[0] *= scale
        sim._psi_cells[0] *= scale
    with pytest.raises(NumericalError) as failed:
        trio._advance(100)
    bad = int(re.search(r"at step (\d+) ", str(failed.value)).group(1))
    assert 150 < bad < 249
    with pytest.raises(NumericalError, match=f"at step {bad} "):
        single[0]._advance(100)
    for sim in single[1:]:
        sim._advance(bad + 1 - 150)
    assert trio.t_index == bad + 1
    for r, b in enumerate(single):
        assert_same_run(trio, r, b)


def test_mirrored_pair_is_exact_at_kappa_s_zero():
    """With kappa_s = 0 the line is uniform, so the right-port run is the
    left-port run reflected. Differences and end updates are exactly
    antisymmetric, so the pair keeps the mirror bit for bit, across calls,
    and the isolation is exactly 0 dB."""
    geom = line.LineGeometry(n_cells=N_CELLS)
    omega = 2.0 * math.pi * 3e9
    drive = line.FluxDrive(phi_dc_tilde=0.6, phi_rf_tilde=0.6,
                           kappa_s=0.0, omega_s=omega)
    sim = line.build_line(geom, drive, *(line.SourceSpec(
        kind="continuous-wave", omega=omega, amplitude=1e-6, port=port,
        ramp_periods=0.5) for port in ("left", "right")))
    sim._advance(130)
    sim._advance(170)
    (left_v, right_v), (left_f, right_f) = sim.v, sim._psi_cells * sim.dt
    assert np.max(np.abs(left_v)) > 1e-8
    np.testing.assert_array_equal(right_v, left_v[::-1])
    np.testing.assert_array_equal(right_f, -left_f[::-1])
    np.testing.assert_array_equal(sim.i[1], -sim.i[0][::-1])
    assert line.isolation_report(geom, drive, omega) == \
        {1: 0.0, 2: 0.0, 3: 0.0}


def test_isolation_report_equals_sequential_runs():
    geom = line.LineGeometry(n_cells=128)
    drive = default_drive(0.5, 0.4, geom)
    omega = 2.0 * math.pi * 3e9
    got = line.isolation_report(geom, drive, omega)

    powers = []
    for port, far in (("left", 128 - 8), ("right", 7)):
        src = line.SourceSpec(kind="continuous-wave", omega=omega,
                              amplitude=1e-6, port=port)
        sim = line.build_line(geom, drive, src)
        period = 2.0 * math.pi / omega
        t0 = 1.5 * geom.length / sim.v_dc + 3.0 * period
        t1 = t0 + 16 * period
        sim._advance(int(round(t0 / sim.dt)))
        rec = sim._advance(int(round(t1 / sim.dt)) - sim.t_index, [[far]])
        bands = line._bands(rec[:, 0], np.fft.rfftfreq(rec.shape[0], sim.dt),
                            [h * omega / (2.0 * math.pi) for h in (1, 2, 3)],
                            1)
        powers.append([float(np.sum(b)) for b in bands])
    for k, h in enumerate((1, 2, 3)):
        want = 10.0 * math.log10(powers[0][k] / powers[1][k])
        assert abs(got[h] - want) <= 1e-9


def test_result_does_not_depend_on_call_splits():
    """Table blocks sit on absolute multiples of BLOCK and are computed
    whole, and the state stays scaled between calls, so a pair of runs
    taken in one call, in 1-step calls, in uneven pieces or through
    run_until snapshot stops ends bit for bit the same, with the same
    probe record."""
    rows = [CW_LEFT, ("gaussian-pulse", "right", 2)]
    probes = [[5, 40], [60]]
    whole = make_sim(*rows)
    rec = whole._advance(300, probes)
    for pieces in ([1] * 300, [1, 7, 100, 63, 129]):
        sim = make_sim(*rows)
        got = np.concatenate([sim._advance(k, probes) for k in pieces])
        np.testing.assert_array_equal(got, rec)
        assert_same_state(sim, whole)

    sim = make_sim(*rows)
    snaps = [1, 2, 63, 64, 65, 130, 299]
    t = sim.run_until(300 * sim.dt, [k * sim.dt for k in snaps])[0]
    np.testing.assert_array_equal(t, [k * sim.dt for k in snaps])
    assert_same_state(sim, whole)


def test_snapshots_are_copies():
    """Each run_until snapshot row holds the first run's state at its own
    step, not a view of the live state: it equals a fresh simulator
    stepped to that step."""
    rows = [CW_LEFT, ("gaussian-pulse", "right", 2)]
    sim = make_sim(*rows)
    snaps = [1, 63, 64, 130, 299]
    t, v, i, _ = sim.run_until(300 * sim.dt, [k * sim.dt for k in snaps])
    for k, step in enumerate(snaps):
        fresh = make_sim(*rows)
        fresh._advance(step)
        assert t[k] == fresh.t
        np.testing.assert_array_equal(v[k], fresh.v[0])
        np.testing.assert_array_equal(i[k], fresh.i[0])


def test_run_until_builds_each_block_table_once():
    """Twenty snapshot stops, most inside the block the call before ended
    in: the simulator keeps that block's table, so each block spanned is
    built once, in order."""
    sim = make_sim()
    built, block_table = [], sim._block_table

    def counted(k0, out):
        built.append(k0)
        block_table(k0, out)

    sim._block_table = counted
    stops = [37 * (k + 1) for k in range(20)]
    sim.run_until(750 * sim.dt, [k * sim.dt for k in stops])
    assert built == list(range(0, 750, line.BLOCK))


# ------------------------------------------------- the modulation series

HALF_PI = 0.5 * math.pi

# (phi_dc, phi_rf) over the admissible range at the 0.05 secant margin:
# rf off (M = 0), negative phi_dc, and phi_rf at the secant guard
SERIES_DRIVES = [(0.6, 0.0), (-1.2, 0.0), (0.0, 0.1), (0.6, 0.6),
                 (-0.6, 0.6), (0.0, 1.5), (-1.5, 0.02),
                 (0.0, HALF_PI - 0.05 - 1e-12),
                 (-0.9, HALF_PI - 0.95 - 1e-12),
                 (1.3, HALF_PI - 1.35 - 1e-12)]


@pytest.mark.parametrize("phi_dc,phi_rf", SERIES_DRIVES)
def test_series_coefficients_are_jacobi_anger(phi_dc, phi_rf):
    from scipy.special import jv
    series, basis = line.modulation_series(phi_dc, phi_rf, np.zeros(3))
    m = np.arange(series.size)
    want = jv(m, phi_rf) * np.where(m % 2 == 0, math.cos(phi_dc),
                                    1j * math.sin(phi_dc))
    assert np.max(np.abs(series - want)) <= 1e-15
    assert basis.shape == (2 * series.size - 1, 3)
    if phi_rf == 0.0:
        assert series.size == 1


@pytest.mark.parametrize("phi_dc,phi_rf", SERIES_DRIVES)
@pytest.mark.parametrize("k0", [0, 64, 640])
def test_series_table_equals_cos(phi_dc, phi_rf, k0):
    """A simulator's block table, over its scale s = dt^2/(C_cell l0),
    equals cos(phi_dc + phi_rf sin x), x = theta - omega_s th, within
    4 eps (1 + max |x|): the rounding of an argument of that size, which
    both sides make."""
    geom = line.LineGeometry(n_cells=301)
    sim = line.build_line(geom, default_drive(phi_dc, phi_rf, geom),
                          line.SourceSpec(kind="continuous-wave",
                                          omega=1e10, amplitude=1e-6))
    got = np.empty((line.BLOCK, geom.n_cells))
    sim._block_table(k0, got)
    got /= sim.dt * sim.dt / (geom.c_cell * geom.l0)
    th = (np.arange(k0, k0 + line.BLOCK) + 0.5) * sim.dt
    x = sim._mod_phase - sim.drive.omega_s * th[:, None]
    want = np.cos(phi_dc + phi_rf * np.sin(x))
    eps = np.finfo(float).eps
    assert np.max(np.abs(got - want)) <= 4.0 * eps * (1.0 + np.abs(x).max())


def test_series_length_stays_under_nyquist():
    """M stays below SERIES_SAMPLES // 2 = 32 over the admissible range;
    a drive beyond it raises rather than alias."""
    rng = np.random.default_rng(3)
    top = 0
    for _ in range(2000):
        phi_dc = rng.uniform(-HALF_PI, HALF_PI)
        phi_rf = (HALF_PI - abs(phi_dc)) * rng.uniform(0.0, 1.0 - 1e-12)
        series, _ = line.modulation_series(phi_dc, phi_rf, np.zeros(1))
        top = max(top, series.size - 1)
    assert top < line.SERIES_SAMPLES // 2
    with pytest.raises(ConfigError, match="phi_rf_tilde"):
        line.modulation_series(0.0, 20.0, np.zeros(1))
