"""Classical wave propagation on a ladder transmission line whose Josephson
inductance is modulated in space and time, plus the analysis operations:
harmonic spectra, forward/backward isolation, and wavepacket tracking.

Discretization: voltages live on integer nodes and integer time steps, branch
flux on half nodes and half steps (flux is the leapfrog state because the
inductance varies in time; current is derived as flux/L). Cell k occupies
[k*dz, (k+1)*dz] with its branch at (k+1/2)*dz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _step_numpy
from .errors import ConfigError, NumericalError

# magnetic flux quantum [Wb]
PHI0 = 2.067833848e-15

HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class FluxDrive:
    """Modulation knobs defining the inductance law
    L = l0 * sec(phi_dc + phi_rf * sin(kappa_s z - omega_s t + phase))."""

    phi_dc_tilde: float          # DC flux bias, 2*pi*Phi_dc/Phi0 [rad]
    phi_rf_tilde: float          # rf flux amplitude [rad]
    kappa_s: float               # spatial modulation wavenumber [rad/m]
    omega_s: float               # modulation angular frequency [rad/s]
    phase: float = 0.0           # spatial phase offset [rad]
    margin: float = 0.05         # keep-out from the secant singularity [rad]

    def __post_init__(self):
        if self.margin <= 0.0:
            raise ConfigError("margin must be positive")
        limit = HALF_PI - self.margin
        if abs(self.phi_dc_tilde) >= limit:
            raise ConfigError(
                f"phi_dc_tilde = {self.phi_dc_tilde:.4f} rad lies within "
                f"{self.margin} of the secant singularity at pi/2")
        if self.phi_rf_tilde < 0.0:
            raise ConfigError("phi_rf_tilde must be nonnegative")
        reach = abs(self.phi_dc_tilde) + self.phi_rf_tilde
        if reach >= limit:
            raise ConfigError(
                f"phi_rf_tilde = {self.phi_rf_tilde:.4f} rad takes the flux "
                f"excursion to {reach:.4f} rad, within {self.margin} of the "
                "secant singularity at pi/2")


@dataclass(frozen=True)
class LineGeometry:
    n_cells: int = 512
    dz: float = 10e-6            # cell length [m]
    c_per_length: float = 8.2426e-9   # shunt capacitance [F/m]
    i0: float = 1e-6             # junction critical current [A]
    phi0: float = PHI0           # flux quantum [Wb]

    def __post_init__(self):
        if self.n_cells < 16:
            raise ConfigError("n_cells must be >= 16")
        for name in ("dz", "c_per_length", "i0"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")

    @property
    def length(self) -> float:
        return self.n_cells * self.dz

    @property
    def l0(self) -> float:
        """Unmodulated inductance per cell [H]."""
        return self.phi0 / (2.0 * math.pi * self.i0)

    @property
    def c_cell(self) -> float:
        return self.c_per_length * self.dz


@dataclass(frozen=True)
class SourceSpec:
    kind: str                    # "continuous-wave" | "gaussian-pulse"
    omega: float                 # carrier angular frequency [rad/s]
    amplitude: float             # [V]
    t_center: float = 0.0        # pulse center [s]
    t_width: float = 0.0         # pulse sigma [s]
    port: str = "left"
    ramp_periods: float = 3.0    # cw turn-on length, in carrier periods

    def __post_init__(self):
        if self.kind not in ("continuous-wave", "gaussian-pulse"):
            raise ConfigError(f"kind {self.kind!r} is not a source kind")
        if self.port not in ("left", "right"):
            raise ConfigError(f"port {self.port!r} is not left or right")
        if self.amplitude <= 0.0:
            raise ConfigError("amplitude must be positive")
        if self.omega <= 0.0:
            raise ConfigError("omega must be positive")
        if self.kind == "gaussian-pulse" and self.t_width <= 0.0:
            raise ConfigError("t_width must be positive for a gaussian pulse")


@dataclass
class LineState:
    t: float                     # [s], voltage time
    v: np.ndarray                # [V], nodes 0..n
    flux: np.ndarray             # [Wb], branches, at t - dt/2
    i: np.ndarray                # [A], branch currents, at t - dt/2
    step_index: int


@dataclass
class SpectrumReport:
    harmonic_index: list
    power_dbc: list              # dB relative to n = 1
    absolute_power: list         # arbitrary units
    probe_position: float | None # [m]; None for spatial spectra


@dataclass
class WavepacketMetrics:
    t: float                     # [s]
    centroid: float              # [m]
    rms_width: float             # [m]
    spectral_centroid: float     # [rad/m]
    peak_velocity: float | None  # [m/s]; None for the first entry


def inductance_at(drive: FluxDrive, geom: LineGeometry, z: float,
                  t: float) -> float:
    """Henries per cell at (z, t); domain error inside the guard margin."""
    if not 0.0 <= z <= geom.length:
        raise ConfigError(f"z = {z} outside [0, {geom.length}]")
    arg = drive.phi_dc_tilde + drive.phi_rf_tilde * math.sin(
        drive.kappa_s * z - drive.omega_s * t + drive.phase)
    if abs(arg) >= HALF_PI - drive.margin:
        raise ConfigError(
            f"secant argument {arg:.4f} inside the guard margin")
    return geom.l0 / math.cos(arg)


def _dc_line(geom: LineGeometry, drive: FluxDrive) -> tuple[float, float]:
    """Inductance per length [H/m] and phase velocity [m/s] at the dc
    operating point (rf off)."""
    l_dc_per_len = geom.l0 / math.cos(drive.phi_dc_tilde) / geom.dz
    return l_dc_per_len, 1.0 / math.sqrt(l_dc_per_len * geom.c_per_length)


def default_drive(phi_dc: float, phi_rf: float,
                  geom: LineGeometry | None = None,
                  omega_m: float = 2.0 * math.pi * 3e9,
                  n_periods: float = 3.0) -> FluxDrive:
    """Convenience constructor: kappa_s set to n_periods modulation periods
    along the line, omega_s equal to the excitation tone."""
    geom = geom or LineGeometry()
    return FluxDrive(
        phi_dc_tilde=phi_dc, phi_rf_tilde=phi_rf,
        kappa_s=2.0 * math.pi * n_periods / geom.length,
        omega_s=omega_m)


class Simulator:
    """Single line run; not shareable mid-run. Use build_line() to construct;
    independent instances may run concurrently."""

    def __init__(self, geom: LineGeometry, drive: FluxDrive,
                 source: SourceSpec, dt: float, blowup_factor: float = 1e6):
        self.geom = geom
        self.drive = drive
        self.source = source
        self.dt = dt
        n = geom.n_cells
        self.v = np.zeros(n + 1)
        self._psi = np.zeros(n)      # flux/dt, the stepper's own state
        self._i = np.zeros(n)
        self.t_index = 0

        z_branch = (np.arange(n) + 0.5) * geom.dz
        self._mod_phase = drive.kappa_s * z_branch + drive.phase
        self._series, self._basis = _step_numpy.modulation_series(
            drive.phi_dc_tilde, drive.phi_rf_tilde, self._mod_phase)

        # matched termination at the dc operating point (rf off)
        l_dc_per_len, self.v_dc = _dc_line(geom, drive)
        self.z_term = math.sqrt(l_dc_per_len / geom.c_per_length)

        c_end = 0.5 * geom.c_cell
        self._a_end = dt / (c_end * self.z_term)
        self._tab_scale = dt * dt / (geom.c_cell * geom.l0)
        self.ceiling = blowup_factor * source.amplitude

        self._source_row = (
            source.port == "left", source.kind, source.amplitude,
            source.omega, source.t_center, source.t_width,
            source.ramp_periods * 2.0 * math.pi / source.omega)

    @property
    def t(self) -> float:
        return self.t_index * self.dt

    @property
    def flux(self) -> np.ndarray:
        """Branch flux [Wb] at t - dt/2, a read-only copy of the state."""
        flux = self._psi * self.dt
        flux.flags.writeable = False
        return flux

    def state(self) -> LineState:
        return LineState(t=self.t, v=self.v.copy(), flux=self._psi * self.dt,
                         i=self._i.copy(), step_index=self.t_index)

    def _advance(self, n_steps: int, probe_idx=None):
        recs = _step_runs([self], n_steps,
                          None if probe_idx is None else [probe_idx])
        return None if recs is None else recs[0]

    def step(self) -> LineState:
        self._advance(1)
        return self.state()

    def run_until(self, t_end: float, snapshot_times=(), probe=None,
                  window=None):
        """Advance to t_end, returning states at the steps nearest the
        requested snapshot times (actual time recorded in each state).

        With a probe position [m] and window = (t0, t1) [s], the same pass
        records the branch current at the probe over the window's steps,
        going on past t_end when t1 is later, and returns (states, record);
        the window starts at or after the current time and spans at least
        8 source periods."""
        end_step = int(round(t_end / self.dt))
        if end_step <= self.t_index:
            raise ConfigError(
                f"t_end = {t_end:.3e} s does not pass the current step "
                f"{self.t_index} (dt = {self.dt:.3e} s)")
        times = list(snapshot_times)
        if any(times[k] > times[k + 1] for k in range(len(times) - 1)):
            raise ConfigError("snapshot_times must be sorted")
        steps = []
        for ts in times:
            if not (self.t < ts <= t_end):
                raise ConfigError(
                    f"snapshot_times entry {ts} outside (t_now, t_end]")
            steps.append(min(max(int(round(ts / self.dt)), self.t_index + 1),
                             end_step))
        stops = {*steps, end_step}
        if window is not None:
            branch = [_probe_branch(self.geom, probe)]
            rec_lo, rec_hi = self._window_steps(*window)
            stops |= {rec_lo, rec_hi}
        out, recs = [], []
        for stop in sorted(stops):
            inside = window is not None and rec_lo <= self.t_index < rec_hi
            rec = self._advance(stop - self.t_index,
                                branch if inside else None)
            if rec is not None:
                recs.append(rec[:, 0])
            out += [self.state() for s in steps if s == stop]
        return out if window is None else (out, np.concatenate(recs))

    def _window_steps(self, t0: float, t1: float) -> tuple[int, int]:
        """The steps [lo, hi) of a probe window."""
        if t0 < self.t:
            raise ConfigError(
                f"window_start {t0:.3e} s is before the current time "
                f"{self.t:.3e} s")
        period = 2.0 * math.pi / self.source.omega
        if t1 - t0 < 8.0 * period:
            raise ConfigError(
                f"window_end {t1:.3e} s is less than 8 source periods "
                f"({8.0 * period:.3e} s) after window_start {t0:.3e} s")
        return int(round(t0 / self.dt)), int(round(t1 / self.dt))

    def record_probe(self, branch_indices, n_steps: int) -> np.ndarray:
        """Advance n_steps recording branch currents each half step;
        shape (n_steps, n_probes)."""
        return self._advance(n_steps, probe_idx=branch_indices)

    def stored_energy(self) -> float:
        """Sum of capacitive and inductive energy, evaluated with the
        inductance at the flux's own half step."""
        g = self.geom
        th = (self.t_index - 0.5) * self.dt
        arg = self.drive.phi_dc_tilde + self.drive.phi_rf_tilde * np.sin(
            self._mod_phase - self.drive.omega_s * th)
        e_cap = 0.5 * g.c_cell * float(np.sum(self.v[1:-1] ** 2)) \
            + 0.25 * g.c_cell * (self.v[0] ** 2 + self.v[-1] ** 2)
        e_ind = float(np.sum(self.flux ** 2 * np.cos(arg))) / (2.0 * g.l0)
        return e_cap + e_ind


def _step_runs(sims: list[Simulator], n_steps: int, probes=None):
    """Advance runs that share geometry, drive, dt, ceiling and time by
    n_steps as one batch. probes: None, or one list of branch indices per
    run; each run then gets its (n_steps, n_probes) record. On a blowup
    every run is left at the failed step."""
    if n_steps <= 0:
        return None
    head = sims[0]
    shared = (head.geom, head.drive, head.dt, head.ceiling, head.t_index)
    if any((s.geom, s.drive, s.dt, s.ceiling, s.t_index) != shared
           for s in sims[1:]):
        raise ValueError("batched runs must share geometry, drive, dt, "
                         "ceiling and time")
    # one flat vector per field, scaled; see _step_numpy for the layout
    n, dt = head.geom.n_cells, head.dt
    v = np.concatenate([s.v for s in sims])
    psi, j = np.zeros(v.size + 1), np.zeros(v.size + 1)
    psi_cells, j_cells = (a[1:].reshape(len(sims), n + 1)[:, :n]
                          for a in (psi, j))
    psi_cells[:] = [s._psi for s in sims]
    flat = rec = None
    if probes is not None:
        cols = [np.asarray(p, dtype=np.int64) for p in probes]
        flat = np.concatenate([r * (n + 1) + 1 + c
                               for r, c in enumerate(cols)])
        rec = np.empty((n_steps, flat.size))
    bad = _step_numpy.step_block(
        v, psi, j, head._series, head._basis, head.drive.omega_s, dt,
        head._tab_scale, head._a_end,
        [s._source_row for s in sims], head.ceiling, head.t_index,
        n_steps, flat, rec)
    i_scale = head.geom.c_cell / dt
    for s, v_r, psi_r, j_r in zip(sims, v.reshape(len(sims), n + 1),
                                  psi_cells, j_cells):
        s.v[:], s._psi[:], s._i[:] = v_r, psi_r, j_r * i_scale
        s.t_index = bad + 1 if bad >= 0 else s.t_index + n_steps
    if bad >= 0:
        raise NumericalError(
            f"field blowup at step {bad} (t = {bad * head.dt:.3e} s): "
            f"|v| exceeded {head.ceiling:.3e} V")
    if rec is None:
        return None
    rec *= i_scale
    return np.split(rec, np.cumsum([c.size for c in cols])[:-1], axis=1)


def cfl_bound(geom: LineGeometry, drive: FluxDrive) -> float:
    """Largest stable dt: dz * sqrt(L'_min * C') with L' at the secant
    minimum over the drive's reachable arguments."""
    arg_min = max(0.0, abs(drive.phi_dc_tilde) - drive.phi_rf_tilde)
    l_min_per_len = geom.l0 / math.cos(arg_min) / geom.dz
    return geom.dz * math.sqrt(l_min_per_len * geom.c_per_length)


def build_line(geom: LineGeometry, drive: FluxDrive, source: SourceSpec,
               dt: float | None = None, cfl_safety: float = 0.9,
               blowup_factor: float = 1e6) -> Simulator:
    """Initialized simulator with zeroed fields; dt defaults to cfl_safety
    times the CFL bound, an explicit dt beyond the bound is rejected."""
    if not 0.0 < cfl_safety <= 1.0:
        raise ConfigError(f"cfl_safety must be in (0, 1], got {cfl_safety}")
    if not blowup_factor > 0.0:
        raise ConfigError(f"blowup_factor must be > 0, got {blowup_factor}")
    bound = cfl_bound(geom, drive)
    if dt is None:
        dt = cfl_safety * bound
    elif dt <= 0.0:
        raise ConfigError("dt must be positive")
    elif dt > bound:
        raise ConfigError(
            f"dt = {dt:.3e} s violates the CFL bound {bound:.3e} s")
    return Simulator(geom, drive, source, dt, blowup_factor)


def _probe_branch(geom: LineGeometry, probe: float) -> int:
    if not 0.0 <= probe <= geom.length:
        raise ConfigError(f"probe {probe} m outside the line")
    b = int(round(probe / geom.dz - 0.5))
    return min(max(b, 0), geom.n_cells - 1)


def _binned_power(x: np.ndarray, dt: float, f_targets, half_width: int = 0):
    """Hann-tapered DFT power at the bins nearest each target frequency,
    optionally summed over a small band of bins."""
    n = x.size
    w = np.hanning(n)
    spec = np.fft.rfft(x * w)
    freqs = np.fft.rfftfreq(n, dt)
    scale = 2.0 / np.sum(w)
    out = []
    for f in f_targets:
        b = int(np.argmin(np.abs(freqs - f)))
        lo, hi = max(b - half_width, 0), min(b + half_width, spec.size - 1)
        amp2 = np.abs(spec[lo:hi + 1] * scale) ** 2
        out.append(0.5 * float(np.sum(amp2)))
    return out


def harmonic_spectrum(sim: Simulator, probe: float, window,
                      n_max: int = 6) -> SpectrumReport:
    """Advance the simulator over `window` = (t0, t1), recording the current
    at `probe`, and bin its spectrum with temporal_harmonics."""
    _, record = sim.run_until(window[1], probe=probe, window=window)
    return temporal_harmonics(record, sim, probe, n_max)


def temporal_harmonics(record: np.ndarray, sim: Simulator, probe: float,
                       n_max: int = 6) -> SpectrumReport:
    """Hann-tapered spectral power of a probe record (one current per
    step, as run_until returns it) at the harmonics of the source tone.
    dBc values are relative to n = 1."""
    f1 = sim.source.omega / (2.0 * math.pi)
    powers = _binned_power(record, sim.dt,
                           [n * f1 for n in range(1, n_max + 1)])
    p1 = powers[0]
    if p1 <= 0.0:
        raise NumericalError("no power at the fundamental; cannot form dBc")
    dbc = [10.0 * math.log10(max(p / p1, 1e-300)) for p in powers]
    dbc[0] = 0.0
    return SpectrumReport(
        harmonic_index=list(range(1, n_max + 1)),
        power_dbc=dbc,
        absolute_power=powers,
        probe_position=(_probe_branch(sim.geom, probe) + 0.5) * sim.geom.dz)


def _spatial_bands(state: LineState, geom: LineGeometry, drive: FluxDrive,
                   source_omega: float, harmonics,
                   half_width: int) -> list[np.ndarray]:
    """Hann-tapered spatial |DFT|^2 of the branch current in the bins
    within half_width of each harmonic of kappa_1 = omega / v_dc, the
    fundamental wavenumber predicted from the dc phase velocity; the zero
    bin is never included."""
    n = geom.n_cells
    w = np.hanning(n)
    spec = np.fft.rfft(state.i * w)
    kappas = 2.0 * math.pi * np.fft.rfftfreq(n, geom.dz)
    k1 = source_omega / _dc_line(geom, drive)[1]
    scale = 2.0 / np.sum(w)
    bands = []
    for h in harmonics:
        b = int(np.argmin(np.abs(kappas - h * k1)))
        lo, hi = max(b - half_width, 1), min(b + half_width, spec.size - 1)
        bands.append(np.abs(spec[lo:hi + 1] * scale) ** 2)
    return bands


def spatial_harmonics(state: LineState, geom: LineGeometry, drive: FluxDrive,
                      source_omega: float, n_max: int = 6) -> SpectrumReport:
    """Spatial-spectrum analogue of harmonic_spectrum, for one snapshot.

    Each harmonic takes the strongest bin within +-2 of its predicted
    wavenumber (dispersion and the modulation shift the peaks slightly off
    the rigid comb)."""
    powers = [float(np.max(0.5 * band)) for band in _spatial_bands(
        state, geom, drive, source_omega, range(1, n_max + 1), 2)]
    p1 = powers[0]
    if p1 <= 0.0:
        raise NumericalError("no spatial power at the fundamental")
    dbc = [10.0 * math.log10(max(p / p1, 1e-300)) for p in powers]
    dbc[0] = 0.0
    return SpectrumReport(
        harmonic_index=list(range(1, n_max + 1)),
        power_dbc=dbc, absolute_power=powers, probe_position=None)


def harmonic_fraction(state: LineState, geom: LineGeometry, drive: FluxDrive,
                      source_omega: float, n_max: int = 6) -> float:
    """Fraction of binned spatial power sitting above the fundamental."""
    rep = spatial_harmonics(state, geom, drive, source_omega, n_max)
    total = sum(rep.absolute_power)
    return sum(rep.absolute_power[1:]) / total if total > 0.0 else 0.0


def harmonic_band_power(state: LineState, geom: LineGeometry,
                        drive: FluxDrive, source_omega: float,
                        n_max: int = 6, half_width: int = 2) -> float:
    """Total spatial power summed over the bands around harmonics 2..n_max.

    Band sums (not per-band maxima) so the value tracks converted energy
    smoothly in time; used for development-rate comparisons."""
    total = 0.0
    for band in _spatial_bands(state, geom, drive, source_omega,
                               range(2, n_max + 1), half_width):
        total += 0.5 * float(np.sum(band))
    return total


def isolation_report(geom: LineGeometry, drive: FluxDrive,
                     source_omega: float, harmonics=(1, 2, 3),
                     amplitude: float = 1e-6, n_periods_window: int = 16,
                     probe_offset: int = 8) -> dict[int, float]:
    """Forward/backward transmission asymmetry per harmonic, in dB.

    Two runs, stepped together as one batch: source at the left port with a
    probe near the right end, and the mirror image. Positive values mean
    forward-favoring nonreciprocity.
    The window is placed after the slower of (transit + ramp) so both runs
    are compared in steady state; band power sums 3 bins around each
    harmonic.
    """
    if amplitude <= 0.0:
        raise ConfigError("isolation needs a nonzero source amplitude")
    period = 2.0 * math.pi / source_omega
    n = geom.n_cells
    sims = [build_line(geom, drive, SourceSpec(
        kind="continuous-wave", omega=source_omega, amplitude=amplitude,
        port=port)) for port in ("left", "right")]
    dt = sims[0].dt
    transit = geom.length / sims[0].v_dc
    t0 = 1.5 * transit + 3.0 * period
    t1 = t0 + n_periods_window * period
    _step_runs(sims, int(round(t0 / dt)))
    n_rec = int(round(t1 / dt)) - sims[0].t_index
    recs = _step_runs(sims, n_rec, [[n - probe_offset], [probe_offset - 1]])
    f_targets = [h * source_omega / (2.0 * math.pi) for h in harmonics]
    pf, pb = [_binned_power(rec[:, 0], dt, f_targets, half_width=1)
              for rec in recs]
    out = {}
    for h, p_fwd, p_bwd in zip(harmonics, pf, pb):
        if p_fwd <= 0.0 or p_bwd <= 0.0:
            raise NumericalError(f"no band power at harmonic {h}")
        out[h] = 10.0 * math.log10(p_fwd / p_bwd)
    return out


def wavepacket_metrics(states, geom: LineGeometry,
                       u_floor: float = 1e-30) -> list[WavepacketMetrics]:
    """Centroid, rms width, spectral centroid, and centroid velocity of the
    current-energy profile u = i^2 for each snapshot."""
    z = (np.arange(geom.n_cells) + 0.5) * geom.dz
    out = []
    prev = None
    for st in states:
        u = st.i ** 2
        total = float(np.sum(u))
        if total <= u_floor:
            raise NumericalError(
                f"wavepacket energy {total:.3e} below the floor at "
                f"t = {st.t:.3e} s")
        centroid = float(np.sum(z * u) / total)
        width = math.sqrt(float(np.sum((z - centroid) ** 2 * u) / total))
        mag = np.abs(np.fft.rfft(st.i))[1:]       # kappa > 0 only
        kappas = 2.0 * math.pi * np.fft.rfftfreq(geom.n_cells, geom.dz)[1:]
        sc = float(np.sum(kappas * mag) / np.sum(mag))
        vel = None
        if prev is not None and st.t > prev.t:
            vel = (centroid - prev.centroid) / (st.t - prev.t)
        m = WavepacketMetrics(t=st.t, centroid=centroid, rms_width=width,
                              spectral_centroid=sc, peak_velocity=vel)
        out.append(m)
        prev = m
    return out
