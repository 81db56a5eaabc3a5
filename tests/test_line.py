"""Wave-propagation checks for the modulated ladder line: analytic controls,
linearity, harmonic generation, nonreciprocity, and the guard rails."""

import math

import numpy as np
import pytest

from fluxcomb import line
from fluxcomb.errors import ConfigError, NumericalError

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

    def test_inductance_at_matches_formula(self):
        g = line.LineGeometry()
        d = line.default_drive(0.5, 0.3, g)
        z, t = 1.1e-3, 0.7e-9
        arg = 0.5 + 0.3 * math.sin(d.kappa_s * z - d.omega_s * t)
        assert line.inductance_at(d, g, z, t) == pytest.approx(
            g.l0 / math.cos(arg), rel=1e-12)
        with pytest.raises(ConfigError):
            line.inductance_at(d, g, -1e-6, 0.0)

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
        with pytest.raises(ConfigError):
            line.build_line(g, d, cw_source(), dt=1.01 * bound)
        sim = line.build_line(g, d, cw_source())
        assert sim.dt == pytest.approx(0.9 * bound)

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
        with pytest.raises(ConfigError):
            line.SourceSpec(kind="gaussian-pulse", omega=OMEGA_M,
                            amplitude=1e-6, t_width=0.0)
        with pytest.raises(ConfigError):
            line.SourceSpec(kind="continuous-wave", omega=OMEGA_M,
                            amplitude=-1.0)


class TestPropagation:
    def test_zero_state_on_build(self):
        sim = line.build_line(line.LineGeometry(), quiet_drive(), cw_source())
        st = sim.state()
        assert st.t == 0.0 and st.step_index == 0
        assert np.all(st.v == 0.0) and np.all(st.flux == 0.0)
        assert sim.stored_energy() == 0.0

    def test_analytic_cw_propagation(self):
        """Matched launch: line amplitude = half the source amplitude,
        wavelength = 2 pi v / omega."""
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(), cw_source())
        transit = g.length / sim.v_dc
        sim.run_until(2.0 * transit)
        v = sim.state().v
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
        d = line.default_drive(0.6, 0.6, g)
        s1 = line.build_line(g, d, cw_source(amp=1e-6))
        s2 = line.build_line(g, d, cw_source(amp=3e-6))
        s1.run_until(1.5e-9)
        s2.run_until(1.5e-9)
        ref = np.abs(s1.state().v).max()
        np.testing.assert_allclose(s2.state().v, 3.0 * s1.state().v,
                                   rtol=1e-9, atol=1e-9 * ref)

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
            sim.run_until(2.0e-9)
            m = line.wavepacket_metrics([sim.state()], g)
            return m[0].centroid

        coarse = centroid_at(512, 10e-6, 1e-6)
        fine = centroid_at(1024, 5e-6, 2e-6)
        assert coarse == pytest.approx(fine, rel=5e-3)

    def test_snapshot_times_and_ordering(self):
        sim = line.build_line(line.LineGeometry(), quiet_drive(), cw_source())
        snaps = [0.3e-9, 0.70002e-9, 1.1e-9]
        states = sim.run_until(1.5e-9, snapshot_times=snaps)
        assert len(states) == 3
        for ts, st in zip(snaps, states):
            assert st.step_index == round(ts / sim.dt)
            assert st.t == pytest.approx(st.step_index * sim.dt)
            assert abs(st.t - ts) <= 0.5 * sim.dt
        assert sim.t_index == round(1.5e-9 / sim.dt)
        with pytest.raises(ConfigError):
            sim.run_until(1.0e-9)   # going backwards
        with pytest.raises(ConfigError):
            sim.run_until(3e-9, snapshot_times=[2.9e-9, 2.0e-9])

    def test_blowup_reports_step(self):
        sim = line.build_line(line.LineGeometry(), quiet_drive(),
                              cw_source(), blowup_factor=1e-3)
        with pytest.raises(NumericalError, match="blowup at step"):
            sim.run_until(1e-9)


class TestHarmonics:
    def test_unmodulated_temporal_floor(self):
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(0.6), cw_source())
        rep = line.harmonic_spectrum(sim, probe=0.9 * g.length,
                                     window=(4e-9, 12e-9))
        assert rep.power_dbc[0] == 0.0
        assert all(p < -100.0 for p in rep.power_dbc[1:])

    @pytest.mark.parametrize("window", [(2.7e-9, 5.5e-9),
                                        (3.05e-9, 6.05e-9)])
    def test_one_pass_spectrum_equals_two_passes(self, window):
        """run_until records the probe over the window in the same pass as
        the snapshots, going past t_end when the window ends later. Bit
        for bit, that equals the run followed by harmonic_spectrum when
        the window starts after t_end, and the same steps taken in separate
        calls, one recording the whole window, when it starts before."""
        g = line.LineGeometry()
        d = line.default_drive(0.6, 0.6, g)
        probe, t_end, snaps = 0.9 * g.length, 3e-9, [1e-9, 2.5e-9]
        one = line.build_line(g, d, cw_source())
        states, record = one.run_until(t_end, snaps, probe=probe,
                                       window=window)
        got = line.temporal_harmonics(record, one, probe)
        assert one.t_index == round(max(t_end, window[1]) / one.dt)

        two = line.build_line(g, d, cw_source())
        if window[0] >= t_end:
            ref_states = two.run_until(t_end, snaps)
            want = line.harmonic_spectrum(two, probe, window)
        else:
            stops = [round(t / two.dt) for t in (*snaps, window[0])]
            ref_states = []
            for stop in stops:
                two._advance(stop - two.t_index)
                ref_states.append(two.state())
            rec = two.record_probe([line._probe_branch(g, probe)],
                                   round(window[1] / two.dt) - two.t_index)
            want = line.temporal_harmonics(rec[:, 0], two, probe)
            ref_states.pop()
        assert got == want
        for a, b in zip(states, ref_states):
            np.testing.assert_array_equal(a.v, b.v)
            np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(one.v, two.v)

    def test_window_too_short_rejected(self):
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(), cw_source())
        with pytest.raises(ConfigError):
            line.harmonic_spectrum(sim, probe=1e-3, window=(0.0, 1e-9))
        with pytest.raises(ConfigError):
            line.harmonic_spectrum(sim, probe=1e-2, window=(0.0, 4e-9))

    def test_modulation_generates_harmonics(self):
        g = line.LineGeometry()
        d = line.default_drive(0.6, 0.6, g)
        sim = line.build_line(g, d, cw_source())
        sim.run_until(2.0e-9)
        rep = line.spatial_harmonics(sim.state(), g, d, OMEGA_M)
        assert rep.power_dbc[1] > -30.0
        assert rep.power_dbc[2] > -30.0
        frac = line.harmonic_fraction(sim.state(), g, d, OMEGA_M)
        assert 0.05 < frac < 0.9

    def test_band_power_grows_with_rf_amplitude(self):
        g = line.LineGeometry()
        totals = []
        for rf in (0.2, 0.3, 0.4):
            d = line.default_drive(0.8, rf, g)
            sim = line.build_line(g, d, cw_source())
            sim.run_until(2.0e-9)
            totals.append(line.harmonic_band_power(sim.state(), g, d,
                                                   OMEGA_M))
        assert totals[0] < totals[1] < totals[2]

    def test_wavepacket_rejects_empty_line(self):
        g = line.LineGeometry()
        sim = line.build_line(g, quiet_drive(), cw_source())
        with pytest.raises(NumericalError):
            line.wavepacket_metrics([sim.state()], g)


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
        d = line.default_drive(0.6, 0.6, g)
        rep = line.isolation_report(g, d, OMEGA_M)
        assert rep[1] == pytest.approx(-8.466491, abs=0.5)
        assert rep[2] == pytest.approx(-1.307162, abs=0.5)
        assert rep[3] == pytest.approx(2.472548, abs=0.5)

    def test_zero_amplitude_rejected(self):
        g = line.LineGeometry()
        d = line.default_drive(0.6, 0.6, g)
        with pytest.raises(ConfigError):
            line.isolation_report(g, d, OMEGA_M, amplitude=0.0)
