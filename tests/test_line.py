"""Wave-propagation checks for the modulated ladder line: analytic controls,
linearity, harmonic generation, nonreciprocity, and the guard rails."""

import math
import warnings

import numpy as np
import pytest

from fluxcomb import budget, cli, line
from fluxcomb.errors import ConfigError, NumericalError
from helpers import default_drive, harmonic_band_power

OMEGA_M = 2.0 * math.pi * 3e9


def cw_source(amp=1e-6, omega=OMEGA_M, port="left"):
    return line.SourceSpec(kind="continuous-wave", omega=omega,
                           amplitude=amp, port=port)


def pulse_source(amp=1e-6, omega=OMEGA_M, tc=0.5e-9, tw=0.12e-9):
    return line.SourceSpec(kind="gaussian-pulse", omega=omega, amplitude=amp,
                           t_center=tc, t_width=tw)


def quiet_drive(phi_dc=0.0):
    return line.FluxDrive(phi_dc_tilde=phi_dc, phi_rf_tilde=0.0,
                          kappa_s=0.0, omega_s=OMEGA_M)


class TestGeometryAndGuards:
    def test_default_scales(self):
        g = line.LineGeometry()
        assert g.l0 == pytest.approx(3.29105976e-10, rel=1e-7)
        assert g.length == pytest.approx(5.12e-3)
        # characteristic impedance and velocity of the unbiased line
        z0 = math.sqrt(g.l0 / g.dz / g.c_per_length)
        v0 = 1.0 / math.sqrt(g.l0 / g.dz * g.c_per_length)
        assert z0 == pytest.approx(63.2, rel=0.01)
        assert v0 == pytest.approx(1.92e6, rel=0.01)

    def test_secant_guard_rejects_large_excursion(self):
        with pytest.raises(ConfigError):
            line.FluxDrive(phi_dc_tilde=1.0, phi_rf_tilde=0.6,
                           kappa_s=0.0, omega_s=OMEGA_M)
        # just inside the guard is fine
        line.FluxDrive(phi_dc_tilde=1.0, phi_rf_tilde=0.4,
                       kappa_s=0.0, omega_s=OMEGA_M)

    def test_cfl_guard(self):
        g = line.LineGeometry()
        d = quiet_drive()
        bound = line.cfl_bound(g, d)
        with pytest.raises(ConfigError, match="underflows to 0"):
            line.build_line(g, d, cw_source(), cfl_safety=5e-324)
        sim = line.build_line(g, d, cw_source())
        assert sim.dt == pytest.approx(0.9 * bound)

    def test_cfl_cap(self):
        # the steady cap is the CLI's bound on run.cfl_safety: it passes,
        # and the next float past it does not
        g, d, cap = line.LineGeometry(), quiet_drive(), line.MAX_CFL_SAFETY
        line.build_line(g, d, cw_source(), cfl_safety=cap)
        cli._bounded(cap, "run.cfl_safety")
        with pytest.raises(ConfigError, match="^'run.cfl_safety' must be"):
            cli._bounded(math.nextafter(cap, 1.0), "run.cfl_safety")

    def test_cfl_bound_uses_minimum_inductance(self):
        g = line.LineGeometry()
        biased = line.FluxDrive(phi_dc_tilde=0.8, phi_rf_tilde=0.3,
                                kappa_s=0.0, omega_s=OMEGA_M)
        # fastest cell sits at |arg| = 0.5, slower than the unbiased line
        expect = g.dz * math.sqrt(
            g.l0 / math.cos(0.5) / g.dz * g.c_per_length)
        assert line.cfl_bound(g, biased) == pytest.approx(expect, rel=1e-12)
        assert line.cfl_bound(g, quiet_drive()) < line.cfl_bound(g, biased)

    def test_source_validation(self):
        with pytest.raises(ConfigError):
            line.SourceSpec(kind="square", omega=OMEGA_M, amplitude=1e-6)

    def test_zero_ramp_is_on_at_once(self):
        """ramp_periods = 0 gives the full wave from the first step, with
        no division by the zero ramp."""
        src = line.SourceSpec(kind="continuous-wave", omega=OMEGA_M,
                              amplitude=1e-6, ramp_periods=0.0)
        th = (np.arange(64) + 0.5) * 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = line.source_values(src, th)
        np.testing.assert_array_equal(got, 1e-6 * np.sin(OMEGA_M * th))


class TestPropagation:
    def test_zero_state_on_build(self):
        sim = line.build_line(line.LineGeometry(), quiet_drive(), cw_source())
        assert sim.t == 0.0 and sim.t_index == 0
        assert np.all(sim.v == 0.0) and np.all(sim.flux == 0.0)
        assert sim.stored_energy() == 0.0

    def test_analytic_cw_propagation(self):
        """Matched launch: line amplitude = half the source amplitude,
        wavelength = 2 pi v / omega."""
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(), cw_source())
        transit = g.length / sim.v_dc
        sim.run_until(2.0 * transit)
        v = sim.v[0]
        assert np.abs(v).max() == pytest.approx(0.5e-6, rel=0.02)
        mid = v[100:400]
        crossings = np.sum(np.diff(np.sign(mid)) != 0)
        lam = 300 * g.dz / (crossings / 2.0)
        assert lam == pytest.approx(2.0 * math.pi * sim.v_dc / OMEGA_M,
                                    rel=0.05)

    def test_medium_is_linear(self):
        """Time-varying but amplitude-independent: responses scale exactly
        with the source amplitude."""
        g = line.LineGeometry()
        d = default_drive(0.6, 0.6, g)
        s1 = line.build_line(g, d, cw_source(amp=1e-6))
        s2 = line.build_line(g, d, cw_source(amp=3e-6))
        s1.run_until(1.5e-9)
        s2.run_until(1.5e-9)
        ref = np.abs(s1.v).max()
        np.testing.assert_allclose(s2.v, 3.0 * s1.v, rtol=1e-9,
                                   atol=1e-9 * ref)

    def test_passivity_unmodulated(self):
        """With the source spent and no modulation pumping, stored energy
        can only leave through the matched ends."""
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(0.3),
                              pulse_source(tc=0.3e-9, tw=0.05e-9))
        sim.run_until(0.8e-9)   # source amplitude down by e^{-50}
        e = [sim.stored_energy()]
        for _ in range(10):
            sim._advance(100)
            e.append(sim.stored_energy())
        assert e[0] > 0.0
        for a, b in zip(e, e[1:]):
            assert b <= a * (1.0 + 1e-6)

    def test_grid_convergence(self):
        """Pulse centroid position converges as the mesh is refined.
        Refining the same continuum medium means holding inductance per
        length fixed, so i0 scales inversely with dz."""
        def centroid_at(n_cells, dz, i0):
            g = line.LineGeometry(n_cells=n_cells, dz=dz, i0=i0)
            sim = line.build_line(g, quiet_drive(0.6), pulse_source())
            t, _, i, _ = sim.run_until(2.0e-9, [2.0e-9])
            _, centroid, *_ = line.wavepacket_metrics(t, i, g)
            return centroid[0]

        coarse = centroid_at(512, 10e-6, 1e-6)
        fine = centroid_at(1024, 5e-6, 2e-6)
        assert coarse == pytest.approx(fine, rel=5e-3)

    def test_snapshot_times_and_ordering(self):
        sim = line.build_line(line.LineGeometry(), quiet_drive(), cw_source())
        snaps = [0.3e-9, 0.70002e-9, 1.1e-9]
        t, v, i, record = sim.run_until(1.5e-9, snapshot_times=snaps)
        assert (t.shape, v.shape, i.shape, record) == (
            (3,), (3, 513), (3, 512), None)
        for ts, t_k in zip(snaps, t):
            assert t_k == round(ts / sim.dt) * sim.dt
            assert abs(t_k - ts) <= 0.5 * sim.dt
        assert sim.t_index == round(1.5e-9 / sim.dt)
        with pytest.raises(ConfigError):
            sim.run_until(1.0e-9)   # going backwards
        with pytest.raises(ConfigError):
            sim.run_until(3e-9, snapshot_times=[2.9e-9, 2.0e-9])

    def test_blowup_reports_step(self):
        sim = line.build_line(line.LineGeometry(), quiet_drive(),
                              cw_source())
        sim.ceiling = 1e-3 * sim.sources[0].amplitude
        with pytest.raises(NumericalError, match="blowup at step"):
            sim.run_until(1e-9)


class TestHarmonics:
    def test_unmodulated_temporal_floor(self):
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(0.6), cw_source())
        probe = 0.9 * g.length
        record = sim.run_until(12e-9, probes=(probe,),
                               window=(4e-9, 12e-9))[3]
        dbc, _ = line.temporal_harmonics(record[:, 0], sim, 6)
        assert dbc[0] == 0.0
        assert all(dbc[1:] < -100.0)

    @pytest.mark.parametrize("window", [(2.7e-9, 5.5e-9),
                                        (3.05e-9, 6.05e-9)])
    def test_one_pass_spectrum_equals_two_passes(self, window):
        """run_until records the probe over the window in the same pass as
        the snapshots, going past t_end when the window ends later. Bit
        for bit, that equals the run followed by a call that records the
        window when the window starts after t_end, and the same steps taken
        in separate calls, one recording the whole window, when it starts
        before."""
        g = line.LineGeometry()
        d = default_drive(0.6, 0.6, g)
        probe, t_end, snaps = 0.9 * g.length, 3e-9, [1e-9, 2.5e-9]
        one = line.build_line(g, d, cw_source())
        _, v, i, record = one.run_until(t_end, snaps, probes=(probe,),
                                        window=window)
        got = line.temporal_harmonics(record[:, 0], one, 6)
        assert one.t_index == round(max(t_end, window[1]) / one.dt)

        two = line.build_line(g, d, cw_source())
        if window[0] >= t_end:
            _, ref_v, ref_i, _ = two.run_until(t_end, snaps)
            rec = two.run_until(window[1], probes=(probe,),
                                window=window)[3]
        else:
            ref_v, ref_i = [], []
            for ts in snaps:
                two._advance(round(ts / two.dt) - two.t_index)
                ref_v.append(two.v[0].copy())
                ref_i.append(two.i[0])
            two._advance(round(window[0] / two.dt) - two.t_index)
            rec = two._advance(round(window[1] / two.dt) - two.t_index,
                               [[line._probe_branch(g, probe)]])
        want = line.temporal_harmonics(rec[:, 0], two, 6)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(v, ref_v)
        np.testing.assert_array_equal(i, ref_i)
        np.testing.assert_array_equal(one.v, two.v)

    def test_window_too_short_rejected(self):
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(), cw_source())
        with pytest.raises(ConfigError):
            sim.run_until(1e-9, probes=(1e-3,), window=(0.0, 1e-9))
        with pytest.raises(ConfigError):
            sim.run_until(4e-9, probes=(1e-2,), window=(0.0, 4e-9))

    def test_modulation_generates_harmonics(self):
        g = line.LineGeometry()
        d = default_drive(0.6, 0.6, g)
        sim = line.build_line(g, d, cw_source())
        sim.run_until(2.0e-9)
        dbc, _ = line.spatial_harmonics(sim.i[0], sim, 6)
        assert dbc[1] > -30.0
        assert dbc[2] > -30.0

    def test_band_power_grows_with_rf_amplitude(self):
        g = line.LineGeometry()
        totals = []
        for rf in (0.2, 0.3, 0.4):
            d = default_drive(0.8, rf, g)
            sim = line.build_line(g, d, cw_source())
            sim.run_until(2.0e-9)
            totals.append(harmonic_band_power(sim.i[0], sim))
        assert totals[0] < totals[1] < totals[2]

    def test_nearest_bins_match_argmin(self):
        """The bin nearest each target, the lower one on a tie, as an
        argmin over every bin picks it: on the bins, at and one ulp either
        side of the midpoints, before the first bin and past the last, out
        to where rounding makes every bin equally near."""
        for axis in (np.fft.rfftfreq(16, 1.0 / 16),
                     np.fft.rfftfreq(1001, 3e-13),
                     2.0 * math.pi * np.fft.rfftfreq(1024, 1e-4)):
            mid = (axis[:-1] + axis[1:]) / 2.0
            targets = np.concatenate([
                axis, mid, np.nextafter(mid, 0.0), np.nextafter(mid, np.inf),
                axis[-1] + axis[1] * np.arange(1, 40) / 4.0,
                axis[-1] * np.array([1e15, 1e17]),
                [-axis[1], 1e300, np.inf, np.nan]])
            want = [np.argmin(np.abs(axis - t)) for t in targets]
            np.testing.assert_array_equal(
                line._nearest_bins(axis, targets), want)
        # the integer bins' midpoints are exact ties
        np.testing.assert_array_equal(
            line._nearest_bins(np.arange(9.0), np.arange(8) + 0.5),
            np.arange(8))

    def test_wavepacket_rejects_empty_line(self):
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(), cw_source())
        with pytest.raises(ConfigError):
            line.wavepacket_metrics(np.zeros(1), sim.i, g)

    def test_wavepacket_columns(self):
        """One column per snapshot; the velocity is the centroid's
        displacement from the snapshot before over the time between, NaN
        for the first, and two snapshots at one time are rejected."""
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(0.6), pulse_source())
        t_snap, _, i, _ = sim.run_until(1.5e-9, [0.9e-9, 1.2e-9, 1.5e-9])
        t, centroid, width, kappa, velocity = line.wavepacket_metrics(
            t_snap, i, g)
        np.testing.assert_array_equal(t, t_snap)
        assert np.isnan(velocity[0])
        np.testing.assert_array_equal(
            velocity[1:], np.diff(centroid) / np.diff(t))
        assert np.all(width > 0.0) and np.all(kappa > 0.0)
        with pytest.raises(ConfigError, match="snapshot_times"):
            line.wavepacket_metrics(t_snap[[0, 0]], i[[0, 0]], g)


class TestIsolation:
    def test_time_only_modulation_is_reciprocal(self):
        g = line.LineGeometry()
        d = line.FluxDrive(phi_dc_tilde=0.6, phi_rf_tilde=0.6,
                           kappa_s=0.0, omega_s=OMEGA_M)
        rep = line.isolation_report(g, d, OMEGA_M)
        for h, db in rep.items():
            assert abs(db) < 1e-9, f"harmonic {h} not reciprocal: {db}"

    def test_spatiotemporal_isolation_regression(self):
        """Lock the measured forward/backward asymmetry of the default
        drive. The fundamental is depleted in the phase-matched direction;
        the third harmonic is forward-favored."""
        g = line.LineGeometry()
        d = default_drive(0.6, 0.6, g)
        rep = line.isolation_report(g, d, OMEGA_M)
        assert rep[1] == pytest.approx(-8.466491, abs=0.5)
        assert rep[2] == pytest.approx(-1.307162, abs=0.5)
        assert rep[3] == pytest.approx(2.472548, abs=0.5)

    def test_phase_matched_isolation(self):
        """On the steady (phi_dc, phi_rf) = (0.5, 0.3) drive, the
        fundamental isolates at the backward match kappa_s = (2 omega +
        omega_s) / v_dc by at least the larger isolation the budget's
        nonreciprocal bus assumes (c0's 17.8 dB; measured +23.76 dB at
        25.62 periods), and reverses at the forward match kappa_s =
        omega_s / v_dc (measured -20.53 dB at 8.54 periods)."""
        g = line.LineGeometry()
        v_dc = line.build_line(g, quiet_drive(0.5), cw_source()).v_dc
        rec, nr = budget._BUSES["reciprocal"], budget._BUSES["nonreciprocal"]
        assumed = max(10.0 * math.log10(rec[name] / nr[name])
                      for name in ("c0", "c_purcell"))

        def h1(kappa_s):
            d = line.FluxDrive(phi_dc_tilde=0.5, phi_rf_tilde=0.3,
                               kappa_s=kappa_s, omega_s=OMEGA_M)
            return line.isolation_report(g, d, OMEGA_M)[1]

        # the source and the modulation are both at OMEGA_M
        assert h1(3.0 * OMEGA_M / v_dc) >= assumed
        assert h1(OMEGA_M / v_dc) < -10.0
