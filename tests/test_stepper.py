"""The blocked, batched stepper against a per-step reference loop: same
trajectories to roundoff, same probe records, same blowup step and state,
and a batch of runs equal to the same runs stepped one at a time."""

import math
import re

import numpy as np
import pytest

from fluxcomb import line
from fluxcomb.errors import ConfigError, NumericalError


def _source_value(kind, t, amp, omega, t_center, t_width, ramp):
    if kind == "continuous-wave":
        if t < ramp:
            a = amp * 0.5 * (1.0 - math.cos(math.pi * t / ramp))
        else:
            a = amp
        return a * math.sin(omega * t)
    x = (t - t_center) / t_width
    return amp * math.exp(-0.5 * x * x) * math.sin(omega * (t - t_center))


def reference_advance(sim, n_steps, probe_idx=()):
    """The stepper one step at a time, with the modulation evaluated as
    sin(mod_phase - omega_s t) per cell: advances copies of sim's state and
    returns (bad_step, v, flux, i, probe_record)."""
    v, flux, i_work = sim.v.copy(), sim.flux.copy(), sim._i.copy()
    d, src, dt = sim.drive, sim.source, sim.dt
    ramp = src.ramp_periods * 2.0 * math.pi / src.omega
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
        vs = _source_value(src.kind, th, src.amplitude, src.omega,
                           src.t_center, src.t_width, ramp)
        vs_l, vs_r = (vs, 0.0) if src.port == "left" else (0.0, vs)
        a = sim._a_end
        v[0] = (v[0] + a * vs_l - dt_over_cend * i_work[0]) / (1.0 + a)
        v[-1] = (v[-1] + a * vs_r + dt_over_cend * i_work[-1]) \
            / (1.0 + a)
        if not float(np.max(np.abs(v))) <= sim.ceiling:
            return k, v, flux, i_work, rec
    return -1, v, flux, i_work, rec


N_CELLS = 64


def make_sim(kind="continuous-wave", port="left", blowup_factor=1e6,
             seed=7):
    """A short line under rf drive with a random initial field, so every
    term of the update is exercised from the first step."""
    geom = line.LineGeometry(n_cells=N_CELLS)
    drive = line.default_drive(0.6, 0.6, geom)
    omega = 2.0 * math.pi * 3e9
    if kind == "continuous-wave":
        src = line.SourceSpec(kind=kind, omega=omega, amplitude=1e-6,
                              port=port, ramp_periods=0.5)
    else:
        src = line.SourceSpec(kind=kind, omega=omega, amplitude=1e-6,
                              t_center=0.2e-9, t_width=0.05e-9, port=port)
    sim = line.build_line(geom, drive, src, blowup_factor=blowup_factor)
    rng = np.random.default_rng(seed)
    sim.v[:] = rng.normal(scale=1e-7, size=N_CELLS + 1)
    sim._psi[:] = rng.normal(scale=1e-16, size=N_CELLS) / sim.dt
    return sim


def assert_close(got, want, rel=1e-12):
    """Equal within rel of the reference's largest magnitude."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["continuous-wave", "gaussian-pulse"])
@pytest.mark.parametrize("port", ["left", "right"])
def test_trajectories_match_reference(kind, port):
    sim = make_sim(kind, port)
    # segments off the block boundary: a partial block, several full
    # blocks and a tail, starting at a nonzero step index
    for n_steps in (5, 200, 71):
        bad, v, flux, i, _ = reference_advance(sim, n_steps)
        assert bad == -1
        sim._advance(n_steps)
        assert_close(sim.v, v)
        assert_close(sim.flux, flux)
        assert_close(sim._i, i)
    assert sim.t_index == 276


def test_probe_records_match_reference():
    sim = make_sim()
    sim._advance(33)
    probes = [3, 31, 60]
    _, v, _, _, rec_ref = reference_advance(sim, 150, probes)
    rec = sim.record_probe(probes, 150)
    assert rec.shape == (150, 3)
    assert_close(rec, rec_ref)
    assert_close(sim.v, v)


def test_ceiling_trip_matches_reference():
    # from rest, the wave entering at the left port passes the 6e-7 V
    # ceiling inside the second block; before that, v.v already exceeds
    # ceiling^2 while every |v| is under it, so both tests run
    sim = make_sim(blowup_factor=0.6)
    sim.v[:] = 0.0
    sim._psi[:] = 0.0
    bad, v, flux, i, _ = reference_advance(sim, 400)
    assert bad > line._step_numpy.BLOCK
    with pytest.raises(NumericalError, match=f"at step {bad} "):
        sim._advance(400)
    assert sim.t_index == bad + 1
    assert_close(sim.v, v)
    assert_close(sim.flux, flux)
    assert_close(sim._i, i)


def test_one_node_just_over_ceiling_trips():
    """A field concentrated on a few nodes, its largest 1% over the
    ceiling: v.v stays under 2 ceiling^2, so only the exact test of the
    largest |v| catches it."""
    def excited(blowup_factor):
        sim = make_sim(blowup_factor=blowup_factor)
        sim.v[:] = 0.0
        sim._psi[:] = 0.0
        sim.v[30] = 1e-6
        return sim

    _, v, *_ = reference_advance(excited(1e6), 1)
    peak = float(np.max(np.abs(v)))
    assert v @ v < 2.0 * peak * peak
    sim = excited(0.99 * peak / 1e-6)          # amplitude is 1e-6 V
    with pytest.raises(NumericalError, match="at step 0 "):
        sim._advance(5)
    assert_close(sim.v, v)


def test_nan_trip_matches_reference():
    sim = make_sim()
    sim._advance(40)
    sim._psi[17] = np.nan
    bad, v, flux, i, _ = reference_advance(sim, 100)
    assert bad == 40
    with pytest.raises(NumericalError, match="at step 40 "):
        sim._advance(100)
    assert sim.t_index == 41
    for got, want in ((sim.v, v), (sim.flux, flux), (sim._i, i)):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert_close(got[ok], want[ok])


def assert_same_state(a, b):
    assert a.t_index == b.t_index
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.flux, b.flux)
    np.testing.assert_array_equal(a._i, b._i)


def test_batch_equals_single_runs():
    """Rows of a batch share the modulation table and step with the same
    elementwise arithmetic, so each row is bit-identical to its own run."""
    pair = [make_sim("continuous-wave", "left", seed=1),
            make_sim("gaussian-pulse", "right", seed=2)]
    single = [make_sim("continuous-wave", "left", seed=1),
              make_sim("gaussian-pulse", "right", seed=2)]
    line._step_runs(pair, 90)
    recs = line._step_runs(pair, 130, [[5, 40], [60]])
    for sim, probes, rec in zip(single, [[5, 40], [60]], recs):
        sim._advance(90)
        np.testing.assert_array_equal(sim.record_probe(probes, 130), rec)
    for a, b in zip(pair, single):
        assert a.t_index == 220
        assert_same_state(a, b)


def test_three_row_batch_isolates_its_seams():
    """The middle row of three has a seam on each side. Each row equals its
    own run bit for bit, and when row 0 leaves the ceiling partway through
    a call, every row is left at that step and still equals its own run
    there: the ghost slots pass nothing across."""
    rows = [("continuous-wave", "left", 1), ("gaussian-pulse", "right", 2),
            ("continuous-wave", "right", 3)]
    probes = [[0], [N_CELLS - 1, 5], [31]]
    trio = [make_sim(kind, port, seed=seed) for kind, port, seed in rows]
    single = [make_sim(kind, port, seed=seed) for kind, port, seed in rows]
    recs = line._step_runs(trio, 150, probes)
    for a, b, p, rec in zip(trio, single, probes, recs):
        np.testing.assert_array_equal(b.record_probe(p, 150), rec)
        assert_same_state(a, b)

    # row 0 rescaled to 0.9 of the ceiling: it leaves it after a step
    for sim in (trio[0], single[0]):
        scale = 0.9 * sim.ceiling / np.max(np.abs(sim.v))
        sim.v *= scale
        sim._psi *= scale
    with pytest.raises(NumericalError) as failed:
        line._step_runs(trio, 100)
    bad = int(re.search(r"at step (\d+) ", str(failed.value)).group(1))
    assert 150 < bad < 249
    with pytest.raises(NumericalError, match=f"at step {bad} "):
        single[0]._advance(100)
    for sim in single[1:]:
        sim._advance(bad + 1 - 150)
    for a, b in zip(trio, single):
        assert a.t_index == bad + 1
        assert_same_state(a, b)


def test_mirrored_pair_is_exact_at_kappa_s_zero():
    """With kappa_s = 0 the line is uniform, so the right-port run is the
    left-port run reflected. Differences and end updates are exactly
    antisymmetric, so the batch keeps the mirror bit for bit and the
    isolation is exactly 0 dB."""
    geom = line.LineGeometry(n_cells=N_CELLS)
    omega = 2.0 * math.pi * 3e9
    drive = line.FluxDrive(phi_dc_tilde=0.6, phi_rf_tilde=0.6,
                           kappa_s=0.0, omega_s=omega)
    left, right = [line.build_line(geom, drive, line.SourceSpec(
        kind="continuous-wave", omega=omega, amplitude=1e-6, port=port,
        ramp_periods=0.5)) for port in ("left", "right")]
    line._step_runs([left, right], 300)
    assert np.max(np.abs(left.v)) > 1e-8
    np.testing.assert_array_equal(right.v, left.v[::-1])
    np.testing.assert_array_equal(right.flux, -left.flux[::-1])
    np.testing.assert_array_equal(right._i, -left._i[::-1])
    assert line.isolation_report(geom, drive, omega) == \
        {1: 0.0, 2: 0.0, 3: 0.0}


def test_batch_rejects_mismatched_runs():
    a, b = make_sim(), make_sim(port="right")
    b._advance(1)
    with pytest.raises(ValueError, match="share"):
        line._step_runs([a, b], 10)


def test_isolation_report_equals_sequential_runs():
    geom = line.LineGeometry(n_cells=128)
    drive = line.default_drive(0.5, 0.4, geom)
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
        rec = sim.record_probe([far], int(round(t1 / sim.dt)) - sim.t_index)
        powers.append(line._binned_power(
            rec[:, 0], sim.dt, [h * omega / (2.0 * math.pi)
                                for h in (1, 2, 3)], half_width=1))
    for k, h in enumerate((1, 2, 3)):
        want = 10.0 * math.log10(powers[0][k] / powers[1][k])
        assert abs(got[h] - want) <= 1e-9


def test_result_does_not_depend_on_call_splits():
    """Table blocks sit on absolute multiples of BLOCK and are computed
    whole, and the state stays scaled between calls, so a run taken in one
    call, in 1-step calls, in uneven pieces or through run_until snapshot
    stops ends bit for bit the same, with the same probe record."""
    probes = [5, 40]
    whole = make_sim()
    rec = whole.record_probe(probes, 300)
    for pieces in ([1] * 300, [1, 7, 100, 63, 129]):
        sim = make_sim()
        got = np.concatenate([sim.record_probe(probes, k) for k in pieces])
        np.testing.assert_array_equal(got, rec)
        assert_same_state(sim, whole)

    sim = make_sim()
    snaps = [1, 2, 63, 64, 65, 130, 299]
    states = sim.run_until(300 * sim.dt, [k * sim.dt for k in snaps])
    assert [st.step_index for st in states] == snaps
    assert_same_state(sim, whole)


# ------------------------------------------------- the modulation series

HALF_PI = 0.5 * math.pi

# (phi_dc, phi_rf) over the admissible range at the default 0.05 margin:
# rf off (M = 0), negative phi_dc, and phi_rf at the secant guard
SERIES_DRIVES = [(0.6, 0.0), (-1.2, 0.0), (0.0, 0.1), (0.6, 0.6),
                 (-0.6, 0.6), (0.0, 1.5), (-1.5, 0.02),
                 (0.0, HALF_PI - 0.05 - 1e-12),
                 (-0.9, HALF_PI - 0.95 - 1e-12),
                 (1.3, HALF_PI - 1.35 - 1e-12)]


@pytest.mark.parametrize("phi_dc,phi_rf", SERIES_DRIVES)
def test_series_coefficients_are_jacobi_anger(phi_dc, phi_rf):
    from scipy.special import jv
    series, basis = line._step_numpy.modulation_series(
        phi_dc, phi_rf, np.zeros(3))
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
    """The table rows equal cos(phi_dc + phi_rf sin x), x = theta - omega
    th, within 4 eps (1 + max |x|): the rounding of an argument of that
    size, which both sides make."""
    theta = np.linspace(0.0, 6.0 * math.pi, 301)
    omega, dt = 2.0 * math.pi * 3e9, 5e-12
    series, basis = line._step_numpy.modulation_series(phi_dc, phi_rf,
                                                       theta)
    coef = line._step_numpy.TableCoefficients(series, omega, dt, 1.0)
    got = coef.at(k0) @ basis
    th = (np.arange(k0, k0 + line._step_numpy.BLOCK) + 0.5) * dt
    x = theta - omega * th[:, None]
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
        series, _ = line._step_numpy.modulation_series(phi_dc, phi_rf,
                                                       np.zeros(1))
        top = max(top, series.size - 1)
    assert top < line._step_numpy.SERIES_SAMPLES // 2
    with pytest.raises(ConfigError, match="phi_rf_tilde"):
        line._step_numpy.modulation_series(0.0, 20.0, np.zeros(1))
