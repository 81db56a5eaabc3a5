"""Classical wave propagation on a ladder transmission line whose Josephson
inductance is modulated in space and time, plus the analysis operations:
harmonic spectra, forward/backward isolation, and wavepacket tracking.

Discretization: voltages live on integer nodes and integer time steps, branch
flux on half nodes and half steps (flux is the leapfrog state because the
inductance varies in time; current is derived as flux/L). Cell k occupies
[k*dz, (k+1)*dz] with its branch at (k+1/2)*dz.

The stepper. A Simulator holds B runs (rows), one per source, sharing
geometry, drive, dt and blowup ceiling; they differ only in their source
(waveform and port) and probes, and one _advance call steps all.

Layout: each field is one flat, contiguous vector. v holds the B*(n+1)
node voltages, row after row. psi and j have one slot per gap between
neighbours in v plus a ghost at each end: slot m sits between v[m-1] and
v[m], so branch c of row r is slot r*(n+1)+c+1, and the ghost slots are
the multiples of n+1 (both ends and every seam between rows).

Scaled state: psi = flux/dt and j = i*dt/C_cell. With the table
w_k = g(mod_phase - omega_s th) * dt^2/(C_cell l0), where
g(x) = cos(phi_dc + phi_rf sin x), one step from voltage time t to t+dt is

  1. th = (k + 1/2) dt
  2. psi[1:-1] += v[:-1] - v[1:]                 (branch flux, half grid)
  3. j = psi * w_k                               (current through each gap)
  4. v += j[:-1] - j[1:]                         (every node, ends included)
  5. row ends: semi-implicit resistor update with C_end = C_cell/2; as
     dt/C_end * i = 2j and step 4 already applied one j,
     v = (v + a*Vs -+ j_adj) / (1 + a), a = dt/(C_end Z)
  6. blowup check on max|v| (a NaN also trips it), probe j recorded at th

w_k is 0 at the ghost slots; step 3 never writes j's last ghost, which
stays 0 from its allocation. A seam's psi sums the voltage differences
across it from call to call, finite while the field entering each step
is (the stepper stops at the first step that leaves the ceiling), so the
ghosts' j is exactly 0 and no row sees its neighbour; nothing resets
them between calls. Steps 2 and 4 subtract into temporaries: subtraction is
exactly antisymmetric, so a mirrored pair of runs stays exactly
mirrored, and each row gets the arithmetic of a run of its own.

The table as a Fourier series: g is smooth and 2 pi periodic, so
g(x) = sum_{|m| <= M} c_m e^{imx} with c_{-m} = conj(c_m), and by
Jacobi-Anger c_m = J_m(phi_rf) cos(phi_dc) for even m and
i J_m(phi_rf) sin(phi_dc) for odd m. The terms fall off faster than
geometrically, so M is 8 at phi_rf = 0.1, 12 at 0.6 and 16 at 1.5. With
x = theta - omega_s th (theta = mod_phase),

  w_k = s c_0 + sum_{m=1}^{M} Re(d_km) cos(m theta) + Im(d_km) sin(m theta),
  d_km = 2 s conj(c_m) e^{i m omega_s th_k},   s = dt^2/(C_cell l0),

so the table of BLOCK steps is one (BLOCK, 2M+1) @ (2M+1, n) product of
per-step coefficients and the basis [1, cos(m theta), sin(m theta)]. For
step k = k0 + r, d_km = e^{i m omega_s k0 dt} times the fixed
2 s conj(c_m) e^{i m omega_s (r+1/2) dt}, so a block's coefficients cost
M complex exponentials and one (BLOCK, M) product. No transcendental is
taken per cell-step.

Steps are taken in blocks of BLOCK on absolute multiples of BLOCK, and a
block's table and source values are always computed whole, from the
absolute step indices alone. Each step then gets the same arithmetic
however a run is split into calls. The simulator keeps the table of the
block it last entered, one row of n+1 slots per step (slot 0 is the
ghost) that every run shares, with each run's source values, and a call
that resumes inside that block reuses them. Per step, the leapfrog is four
1-D ufuncs over the batch plus one 1-D product per run (a broadcast
product over a (B, n+1) view costs more at B = 1 and 2), the 2B row ends
are Python floats through memoryviews, and the blowup check is one dot
product unless that product reaches ceiling^2. A block's steps run with
NumPy's overflow warning off: that dot may overflow on a field within
the ceiling, and any other overflow leaves a non-finite v, which the
blowup check catches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, shown

# magnetic flux quantum [Wb]
PHI0 = 2.067833848e-15

# keep-out of the flux excursion from the secant singularity at pi/2 [rad]
SECANT_MARGIN = 0.05

# isolation_report's measurement: the harmonics compared, the cw source
# amplitude [V], the window's length in source periods, and the probe's
# distance in cells from the far end
ISOLATION_HARMONICS = (1, 2, 3)
ISOLATION_AMPLITUDE = 1e-6
ISOLATION_WINDOW_PERIODS = 16
ISOLATION_PROBE_OFFSET = 8

# total current energy below which a snapshot holds no wavepacket, and
# the blowup ceiling in units of the largest source amplitude
WAVEPACKET_FLOOR = 1e-30
BLOWUP_FACTOR = 1e6

# the largest cfl_safety: stepped to 40 ns on the 3 GHz modulation, 424
# drives steady at 0.9 (phi_dc 0-0.9, phi_rf 0-0.5, 1-6 spatial periods,
# 128-2048 cells) all stayed steady up to 0.985, and two grew a grid mode
# at 0.99; the cap keeps a margin of 0.035 below that
MAX_CFL_SAFETY = 0.95

# cells x steps of a line-sim run: about 15 s at the stepper's 14 ns a
# cell-step on a 2-vCPU Xeon; the benchmark's 1024-cell temporal runs take
# 7.3e6
MAX_CELL_STEPS = 1 << 30

# steps per modulation table: (64, 1025) doubles is 0.5 MB
BLOCK = 64

# samples of g per period for its Fourier coefficients; a series that
# reaches the Nyquist term SERIES_SAMPLES // 2 would alias
SERIES_SAMPLES = 64

# cells of a line: a run holds about 100 floats a cell (the block table's
# BLOCK rows, up to 33 basis rows, the state), so this keeps it near
# 2^27 floats, 1 GiB
MAX_CELLS = (1 << 27) // 100

# floats of a run's k snapshots, about 3 k (n_cells + 1): run_until's v
# and i and the tables' cell-centred v. As many as the largest line holds
# (2^27, 1 GiB): the snapshots never take more than a line may
MAX_SNAPSHOT_FLOATS = 1 << 27


@dataclass(frozen=True)
class FluxDrive:
    """Modulation knobs defining the inductance law
    L = l0 * sec(phi_dc + phi_rf * sin(kappa_s z - omega_s t + phase))."""

    phi_dc_tilde: float          # DC flux bias, 2*pi*Phi_dc/Phi0 [rad]
    phi_rf_tilde: float          # rf flux amplitude [rad]
    kappa_s: float               # spatial modulation wavenumber [rad/m]
    omega_s: float               # modulation angular frequency [rad/s]
    phase: float = 0.0           # spatial phase offset [rad]

    def __post_init__(self):
        reach = abs(self.phi_dc_tilde) + self.phi_rf_tilde
        if reach >= 0.5 * math.pi - SECANT_MARGIN:
            raise ConfigError(
                f"phi_rf_tilde = {self.phi_rf_tilde:.4f} rad takes the flux "
                f"excursion from phi_dc_tilde = {self.phi_dc_tilde:.4f} rad "
                f"to {reach:.4f} rad, within {SECANT_MARGIN} of the secant "
                "singularity at pi/2")


@dataclass(frozen=True)
class LineGeometry:
    n_cells: int = 512
    dz: float = 10e-6            # cell length [m]
    c_per_length: float = 8.2426e-9   # shunt capacitance [F/m]
    i0: float = 1e-6             # junction critical current [A]

    def __post_init__(self):
        # the stepper multiplies and divides up to four of these, times a
        # secant factor of at most 20: in this range all stay normal floats
        lo, hi = 2.0 ** -240, 2.0 ** 240
        for what, x in (("i0 gives l0", self.l0),
                        ("c_per_length * dz", self.c_cell),
                        ("i0 and dz give l0 / dz", self.l0 / self.dz)):
            if not lo <= x <= hi:
                raise ConfigError(f"{what} = {x:.3g}, outside the line "
                                  f"constants' range {lo:.3g}..{hi:.3g}")

    @property
    def length(self) -> float:
        return self.n_cells * self.dz

    @property
    def l0(self) -> float:
        """Unmodulated inductance per cell [H]."""
        return PHI0 / (2.0 * math.pi * self.i0)

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
            raise ConfigError(f"kind {shown(self.kind)} is not a source kind")
        if self.port not in ("left", "right"):
            raise ConfigError(f"port {shown(self.port)} is not left or right")
        # the field's energy and spectra square it
        if not math.isfinite(self.amplitude * self.amplitude):
            raise ConfigError("amplitude squared overflows")

    def check_span(self, t_max: float):
        """Raise ConfigError unless a gaussian pulse's carrier phase
        omega (t - t_center) and envelope exponent ((t - t_center) /
        t_width)^2 are finite at every source time t in [0, t_max]."""
        if self.kind != "gaussian-pulse":
            return
        reach = abs(self.t_center) + t_max
        if not math.isfinite(self.omega * reach):
            raise ConfigError(
                f"t_center = {self.t_center:.3e} s takes the carrier phase "
                f"omega (t - t_center) out of float range by t = "
                f"{t_max:.3e} s")
        x = reach / self.t_width
        if not math.isfinite(x * x):
            raise ConfigError(
                f"t_width = {self.t_width:.3e} s takes the pulse envelope's "
                f"exponent out of float range {reach:.3e} s from t_center")


def modulation_series(phi_dc: float, phi_rf: float,
                      theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients c_0..c_M of g(x) = cos(phi_dc + phi_rf sin x)
    and the basis rows [1, cos(m theta), sin(m theta)] for m = 1..M,
    shape (2M+1, theta.size).

    c_m is the DFT of g at SERIES_SAMPLES equispaced x, divided by
    SERIES_SAMPLES, and M is the last m with |c_m| > 2^-52. g is a cosine,
    at most 1 in size: a dropped term changes the table by under 2^-51,
    and the rounding of the samples themselves puts up to 2^-53 into every
    coefficient, which the cut leaves out. Raises ConfigError if the series
    reaches the Nyquist term."""
    x = (2.0 * math.pi / SERIES_SAMPLES) * np.arange(SERIES_SAMPLES)
    c = np.fft.rfft(np.cos(phi_dc + phi_rf * np.sin(x))) / SERIES_SAMPLES
    m_top = max(np.flatnonzero(np.abs(c) > 2.0 ** -52), default=0)
    if m_top >= SERIES_SAMPLES // 2:
        raise ConfigError(
            f"phi_rf_tilde = {phi_rf} needs {SERIES_SAMPLES // 2} or more "
            "Fourier terms of the modulation")
    mt = np.multiply.outer(np.arange(1, m_top + 1), theta)
    basis = np.vstack((np.ones((1, theta.size)), np.cos(mt), np.sin(mt)))
    return c[:m_top + 1], basis


def source_values(src: SourceSpec, th: np.ndarray) -> np.ndarray:
    """Source voltage at the half-step times th: a continuous wave with a
    raised-cosine turn-on over ramp_periods (on at once when the ramp
    ends by the first half step), or a gaussian pulse."""
    if src.kind == "continuous-wave":
        ramp = src.ramp_periods * 2.0 * math.pi / src.omega
        a = src.amplitude
        # th / ramp only in a block that starts inside the ramp, which a
        # ramp far shorter than a step would overflow
        if th[0] < ramp:
            a = np.where(th < ramp,
                         a * 0.5 * (1.0 - np.cos(math.pi * th / ramp)), a)
        return a * np.sin(src.omega * th)
    x = (th - src.t_center) / src.t_width
    return src.amplitude * np.exp(-0.5 * x * x) \
        * np.sin(src.omega * (th - src.t_center))


class Simulator:
    """Runs of one line, one per source, stepped together: they share
    geometry, drive, dt, blowup ceiling (BLOWUP_FACTOR times the largest
    source amplitude) and time, and differ in their source. run_until's
    snapshots and stored_energy report the first run. Use build_line() to
    construct; not shareable mid-run, independent instances may run
    concurrently."""

    def __init__(self, geom: LineGeometry, drive: FluxDrive, sources,
                 dt: float):
        self.geom, self.drive, self.dt = geom, drive, dt
        self.sources = tuple(sources)
        n, rows = geom.n_cells, len(self.sources)
        # the flat layout (module docstring): v row after row; psi =
        # flux/dt and j = i dt/C_cell, a slot per gap and the ghosts
        self._v = np.zeros(rows * (n + 1))
        self._psi, self._j = np.zeros((2, self._v.size + 1))
        self.v = self._v.reshape(rows, n + 1)
        self._psi_cells, self._j_cells = (
            a[1:].reshape(rows, n + 1)[:, :n] for a in (self._psi, self._j))
        self._i_scale = geom.c_cell / dt
        self.t_index = 0

        z_branch = (np.arange(n) + 0.5) * geom.dz
        self._mod_phase = drive.kappa_s * z_branch + drive.phase
        series, self._basis = modulation_series(
            drive.phi_dc_tilde, drive.phi_rf_tilde, self._mod_phase)
        # a block's coefficient rows [s c_0, Re d_k, Im d_k]: the fixed
        # factor of d_km per row r, and e^{i m omega_s k0 dt} as m omega_s dt
        scale = dt * dt / (geom.c_cell * geom.l0)
        self._m_w_dt = np.arange(1, series.size) * (drive.omega_s * dt)
        self._d_rows = (2.0 * scale * np.conj(series[1:])) * np.exp(
            1j * np.multiply.outer(np.arange(BLOCK) + 0.5, self._m_w_dt))
        self._coef = np.empty((BLOCK, 2 * series.size - 1))
        self._coef[:, 0] = scale * series[0].real
        # the block last entered: its first step, its table (the ghost
        # slot 0 stays 0) and each run's left and right source values
        self._block_k0, self._block_src = None, None
        self._table = np.zeros((BLOCK, n + 1))

        # the inductance per length, phase velocity and matched
        # termination at the dc operating point (rf off)
        l_dc_per_len = geom.l0 / math.cos(drive.phi_dc_tilde) / geom.dz
        self.v_dc = 1.0 / math.sqrt(l_dc_per_len * geom.c_per_length)
        z_term = math.sqrt(l_dc_per_len / geom.c_per_length)
        self._a_end = dt / (0.5 * geom.c_cell * z_term)
        self.ceiling = BLOWUP_FACTOR * max(s.amplitude for s in self.sources)

    @property
    def t(self) -> float:
        return self.t_index * self.dt

    @property
    def i(self) -> np.ndarray:
        """Branch current [A] of every run at t - dt/2, (runs, n_cells), a
        read-only copy of the state."""
        i = self._j_cells * self._i_scale
        i.flags.writeable = False
        return i

    def _block_table(self, k0: int, out: np.ndarray):
        """The table rows w_k of steps k0 .. k0 + BLOCK - 1 (module
        docstring) into out, (BLOCK, n_cells)."""
        d = np.exp(1j * (k0 * self._m_w_dt)) * self._d_rows
        m_top = self._m_w_dt.size
        self._coef[:, 1:m_top + 1] = d.real
        self._coef[:, m_top + 1:] = d.imag
        np.matmul(self._coef, self._basis, out=out)

    def _advance(self, n_steps: int, probes=None):
        """Advance every run n_steps from its absolute step t_index.
        probes: None, or one list of branch indices per run; returns then
        the (n_steps, all probes) record of their currents, the first
        run's columns first. On a blowup (max|v| over all runs leaves the
        ceiling) every run is left at the failed step."""
        if n_steps <= 0:
            return None
        n, dt, a_end, ceiling = (self.geom.n_cells, self.dt, self._a_end,
                                 self.ceiling)
        v, psi, j = self._v, self._psi, self._j
        if probes is not None:
            slots = np.array([r * (n + 1) + 1 + b
                              for r, p in enumerate(probes) for b in p],
                             dtype=np.int64)
            rec = np.empty((n_steps, slots.size))
        record = probes is not None and slots.size > 0
        v_lo, v_hi, psi_in = v[:-1], v[1:], psi[1:-1]
        j_lo, j_hi = j[:-1], j[1:]
        # each run's n+1 slots of psi and j, its leading ghost first
        rows = list(zip(psi[:-1].reshape(-1, n + 1),
                        j[:-1].reshape(-1, n + 1)))
        dv, di = np.empty(v.size - 1), np.empty_like(v)
        v_mem, j_mem, v_dot = memoryview(v), memoryview(j), v.dot
        # (left node, its adjacent slot, right node = its adjacent slot)
        ends = [(m, m + 1, m + n) for m in range(0, v.size, n + 1)]
        one_plus_a = 1.0 + a_end
        # any |v| > ceiling makes v.v >= ceiling^2 (a sum of nonnegative
        # rounded squares is at least its largest term, and inf if that
        # overflows), so v.v < ceiling^2 clears the step; otherwise the
        # exact max|v| test decides
        ceiling_sq = ceiling * ceiling
        table, zeros = self._table, [0.0] * BLOCK
        k_start = self.t_index
        k_end = k_start + n_steps
        for k0 in range(k_start - k_start % BLOCK, k_end, BLOCK):
            if k0 != self._block_k0:
                self._block_table(k0, table[:, 1:])
                th = (np.arange(k0, k0 + BLOCK) + 0.5) * dt
                src_l, src_r = [], []
                for src in self.sources:
                    vs = source_values(src, th).tolist()
                    left = src.port == "left"
                    src_l.append(vs if left else zeros)
                    src_r.append(zeros if left else vs)
                self._block_k0, self._block_src = k0, (src_l, src_r)
            src_l, src_r = self._block_src

            with np.errstate(over="ignore"):
                for s in range(max(k_start - k0, 0), min(k_end - k0, BLOCK)):
                    np.subtract(v_lo, v_hi, out=dv)
                    psi_in += dv
                    tab = table[s]
                    for psi_r, j_r in rows:
                        np.multiply(psi_r, tab, out=j_r)

                    if record:
                        j.take(slots, out=rec[k0 + s - k_start])

                    np.subtract(j_lo, j_hi, out=di)
                    v += di

                    for (vl, jl, vr), sl, sr in zip(ends, src_l, src_r):
                        v_mem[vl] = (v_mem[vl] + a_end * sl[s]
                                     - j_mem[jl]) / one_plus_a
                        v_mem[vr] = (v_mem[vr] + a_end * sr[s]
                                     + j_mem[vr]) / one_plus_a

                    if not v_dot(v) < ceiling_sq:
                        if not float(np.max(np.abs(v))) <= ceiling:
                            bad = k0 + s
                            self.t_index = bad + 1
                            raise NumericalError(
                                f"field blowup at step {bad} (t = "
                                f"{bad * dt:.3e} s): |v| exceeded "
                                f"{ceiling:.3e} V")
        self.t_index = k_end
        if probes is None:
            return None
        rec *= self._i_scale
        return rec

    def run_until(self, t_end: float, snapshot_times=(), probes=(),
                  window=None):
        """Advance to t_end and return (t, v, i, record): the first run's
        time [s], node voltages (k, n_cells + 1) [V] and branch currents
        (k, n_cells) [A, at t - dt/2] at the steps nearest the k snapshot
        times, and the probe record.

        Each probe [m], one per run, must lie on the line. With window =
        (t0, t1) [s], the same pass records each run's branch current at
        its probe over the window's steps, past t_end when t1 is later:
        record is (steps, runs), and None without a window. The window
        starts at or after the current time and spans >= 8 source periods."""
        end_step = self._step_at("t_end", t_end)
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
        branches = [[_probe_branch(self.geom, p)] for p in probes]
        if window is not None:
            t0, t1 = window
            if t0 < self.t:
                raise ConfigError(
                    f"window_start {t0:.3e} s is before the current time "
                    f"{self.t:.3e} s")
            period = 2.0 * math.pi / self.sources[0].omega
            if t1 - t0 < 8.0 * period:
                raise ConfigError(
                    f"window_end {t1:.3e} s is less than 8 periods 2 pi/omega "
                    f"({8.0 * period:.3e} s) after window_start {t0:.3e} s")
            rec_lo = self._step_at("window_start", t0)
            rec_hi = self._step_at("window_end", t1)
            stops |= {rec_lo, rec_hi}
        # the last source time a block evaluates is under (stop + BLOCK) dt
        for src in self.sources:
            src.check_span((max(stops) + BLOCK) * self.dt)
        k, n = len(steps), self.geom.n_cells
        t, v, i = np.empty(k), np.empty((k, n + 1)), np.empty((k, n))
        recs = []
        for stop in sorted(stops):
            inside = window is not None and rec_lo <= self.t_index < rec_hi
            rec = self._advance(stop - self.t_index,
                                branches if inside else None)
            if rec is not None:
                recs.append(rec)
            for row, step in enumerate(steps):
                if step == stop:
                    # rows written in place: each is a copy of the state
                    t[row], v[row] = self.t, self.v[0]
                    np.multiply(self._j_cells[0], self._i_scale, out=i[row])
        return t, v, i, None if window is None else np.concatenate(recs)

    def _step_at(self, name: str, t: float) -> int:
        """The step nearest time t [s], which `name` sets."""
        steps = t / self.dt
        if not math.isfinite(steps):
            raise ConfigError(f"{name} = {t:.3e} s is past any step count")
        return int(round(steps))

    def stored_energy(self) -> float:
        """Sum of capacitive and inductive energy. The inductive part,
        flux^2 / (2 L), is (C_cell/2) sum psi j: the last step left psi
        and j at the same half step, j through the inductance it used."""
        c, v = self.geom.c_cell, self.v[0]
        e_cap = 0.5 * c * float(np.sum(v[1:-1] ** 2)) \
            + 0.25 * c * (v[0] ** 2 + v[-1] ** 2)
        return e_cap + 0.5 * c * float(np.dot(self._psi_cells[0],
                                              self._j_cells[0]))


def cfl_bound(geom: LineGeometry, drive: FluxDrive) -> float:
    """Largest stable dt: dz * sqrt(L'_min * C') with L' at the secant
    minimum over the drive's reachable arguments."""
    arg_min = max(0.0, abs(drive.phi_dc_tilde) - drive.phi_rf_tilde)
    l_min_per_len = geom.l0 / math.cos(arg_min) / geom.dz
    return geom.dz * math.sqrt(l_min_per_len * geom.c_per_length)


def build_line(geom: LineGeometry, drive: FluxDrive, *sources: SourceSpec,
               cfl_safety: float = 0.9) -> Simulator:
    """Initialized simulator with zeroed fields and one run for each of
    one or more sources, stepping at cfl_safety times the CFL bound."""
    dt = cfl_safety * cfl_bound(geom, drive)
    if not dt > 0.0:
        raise ConfigError(f"cfl_safety = {cfl_safety} gives a time step "
                          "that underflows to 0")
    return Simulator(geom, drive, sources, dt)


def _probe_branch(geom: LineGeometry, probe: float) -> int:
    if not 0.0 <= probe <= geom.length:
        raise ConfigError(f"probe {probe} m outside the line of n_cells x "
                          f"dz = {geom.length:.3g} m")
    b = int(round(probe / geom.dz - 0.5))
    return min(max(b, 0), geom.n_cells - 1)


def _bands(x: np.ndarray, axis: np.ndarray, targets,
           half_width: int) -> list[np.ndarray]:
    """Hann-tapered power |X|^2 / 2 of the amplitude-scaled rfft X of x in
    the bins within half_width of the bin nearest each target on `axis`
    (the rfft's bin coordinates), never the zero bin."""
    w = np.hanning(x.size)
    spec = np.fft.rfft(x * w)
    power = 0.5 * np.abs(spec * (2.0 / np.sum(w))) ** 2
    bands = []
    for b in _nearest_bins(axis, targets).tolist():
        lo, hi = max(b - half_width, 1), min(b + half_width, spec.size - 1)
        bands.append(power[lo:hi + 1])
    return bands


def _nearest_bins(axis: np.ndarray, targets) -> np.ndarray:
    """The index of the bin nearest each target on the increasing `axis`,
    the lower one on a tie: np.argmin(np.abs(axis - target)) for each."""
    t = np.asarray(targets, dtype=float)
    i = np.searchsorted(axis, t)
    below, above = np.maximum(i - 1, 0), np.minimum(i, axis.size - 1)
    b = np.where(np.abs(axis[above] - t) < np.abs(axis[below] - t),
                 above, below)
    # the distances fall to the nearest bin and rise past it, so argmin
    # takes b unless the bin below lies as near once rounded, as it can
    # far past the last bin (or for a NaN target)
    for k in np.flatnonzero((b > 0) & ~(np.abs(axis[b - 1] - t)
                                        > np.abs(axis[b] - t))):
        b[k] = np.argmin(np.abs(axis - t[k]))
    return b


def _dbc(powers, sim: Simulator, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The dBc relative to n = 1 of per-harmonic powers, n = 1 first, and
    the powers, as arrays; ConfigError if n = 1 has none."""
    if powers[0] <= 0.0:
        shape = ("ramp_periods" if sim.sources[0].kind == "continuous-wave"
                 else "t_center, t_width")
        raise ConfigError(f"amplitude, omega, {shape}, {what} power at the "
                          "fundamental")
    dbc = [10.0 * math.log10(max(p / powers[0], 1e-300)) for p in powers]
    dbc[0] = 0.0
    return np.array(dbc), np.array(powers)


def temporal_harmonics(record: np.ndarray, sim: Simulator, n_max: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Hann-tapered spectral power of a probe record (one current per
    step, a column of run_until's record) at the bins nearest the harmonics
    n = 1..n_max of the source tone: (dBc relative to n = 1, power in
    arbitrary units)."""
    f1 = sim.sources[0].omega / (2.0 * math.pi)
    bands = _bands(record, np.fft.rfftfreq(record.size, sim.dt),
                   [n * f1 for n in range(1, n_max + 1)], 0)
    return _dbc([float(np.sum(b)) for b in bands], sim,
                "probe, window_start, window_end: no temporal")


def spatial_harmonics(i: np.ndarray, sim: Simulator, n_max: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Spatial-spectrum analogue of temporal_harmonics for one snapshot's
    branch current i (a row of run_until's), at the harmonics of
    kappa_1 = omega / v_dc predicted from the dc phase velocity. Each
    takes the strongest bin within +-2 of its predicted wavenumber:
    dispersion and the modulation shift the peaks slightly off the rigid
    comb."""
    k1 = sim.sources[0].omega / sim.v_dc
    kappas = 2.0 * math.pi * np.fft.rfftfreq(sim.geom.n_cells, sim.geom.dz)
    bands = _bands(i, kappas, [h * k1 for h in range(1, n_max + 1)], 2)
    return _dbc([float(np.max(b)) for b in bands], sim, "t_end: no spatial")


def isolation_report(geom: LineGeometry, drive: FluxDrive,
                     source_omega: float) -> dict[int, float]:
    """Forward/backward transmission asymmetry per harmonic, in dB.

    Two runs of one simulator: source at the left port with a probe near
    the right end, and the mirror image. Positive values mean
    forward-favoring nonreciprocity.
    With the source at omega and the modulation at omega_s, the
    conversion omega -> omega + omega_s is phase-matched forward at
    kappa_s = omega_s / v_dc and backward, from (omega, -omega / v_dc) to
    (omega + omega_s, +(omega + omega_s) / v_dc), at kappa_s = (2 omega +
    omega_s) / v_dc. The fundamental's asymmetry is largest near these two
    matches: negative at the forward one, positive at the backward one.
    The window starts 1.5 transits (at v_dc) plus the source's ramp after
    turn-on; band power sums 3 bins around each harmonic. Both runs are
    steady by then away from the matches, but near them the window reads
    a transient: +23.9 dB at the backward match of the packaged line on
    the (0.5, 0.3) drive, where a window 100 periods later reads +20.5."""
    period = 2.0 * math.pi / source_omega
    sim = build_line(geom, drive, *(SourceSpec(
        kind="continuous-wave", omega=source_omega,
        amplitude=ISOLATION_AMPLITUDE, port=port)
        for port in ("left", "right")))
    t0 = 1.5 * (geom.length / sim.v_dc) \
        + sim.sources[0].ramp_periods * period
    t1 = t0 + ISOLATION_WINDOW_PERIODS * period
    # the middles of the branches ISOLATION_PROBE_OFFSET cells from each
    # run's far end
    p = (ISOLATION_PROBE_OFFSET - 0.5) * geom.dz
    rec = sim.run_until(t1, probes=(geom.length - p, p), window=(t0, t1))[3]
    f_targets = [h * source_omega / (2.0 * math.pi)
                 for h in ISOLATION_HARMONICS]
    pf, pb = [[float(np.sum(b)) for b in _bands(
        x, np.fft.rfftfreq(len(rec), sim.dt), f_targets, 1)] for x in rec.T]
    out = {}
    for h, p_fwd, p_bwd in zip(ISOLATION_HARMONICS, pf, pb):
        if p_fwd <= 0.0 or p_bwd <= 0.0:
            raise NumericalError(f"no band power at harmonic {h}")
        out[h] = 10.0 * math.log10(p_fwd / p_bwd)
    return out


def wavepacket_metrics(t: np.ndarray, i: np.ndarray,
                       geom: LineGeometry) -> np.ndarray:
    """Rows t [s], centroid [m], rms width [m], spectral centroid [rad/m]
    and centroid velocity [m/s] of the current-energy profile u = i^2,
    one column per snapshot (run_until's t and i); the velocity is taken
    from the snapshot before, so the first is NaN. The snapshots must be
    at increasing times."""
    z = (np.arange(geom.n_cells) + 0.5) * geom.dz
    kappas = 2.0 * math.pi * np.fft.rfftfreq(geom.n_cells, geom.dz)[1:]
    out = np.empty((5, len(t)))
    for k, i_k in enumerate(i):
        u = i_k ** 2
        total = float(np.sum(u))
        if total <= WAVEPACKET_FLOOR:
            raise ConfigError("amplitude, omega, ramp_periods, t_center, "
                              "t_width, snapshot_times, n_cells, dz, "
                              "c_per_length, i0: wavepacket energy "
                              f"{total:.3e} at t = {t[k]:.3e} s is too low")
        centroid = float(np.sum(z * u) / total)
        width = math.sqrt(float(np.sum((z - centroid) ** 2 * u) / total))
        mag = np.abs(np.fft.rfft(i_k))[1:]       # kappa > 0 only
        sc = float(np.sum(kappas * mag) / np.sum(mag))
        out[:4, k] = t[k], centroid, width, sc
    t, centroid = out[:2]
    if np.any(t[1:] <= t[:-1]):
        raise ConfigError("snapshot_times: two snapshots share a time step "
                          "or are out of order")
    out[4, :1] = np.nan
    out[4, 1:] = (centroid[1:] - centroid[:-1]) / (t[1:] - t[:-1])
    return out
