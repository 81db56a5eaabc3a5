"""Blocked, batched NumPy time stepper for the modulated ladder line.

One call advances B runs (rows) that share geometry, drive, dt and blowup
ceiling; they differ only in their source (waveform and port) and probes.

Layout: each field of the batch is one flat, contiguous vector. v holds the
B*(n+1) node voltages, row after row. psi and j have one slot per gap
between neighbours in v plus a ghost at each end: slot m sits between
v[m-1] and v[m], so branch c of row r is slot r*(n+1)+c+1, and the ghost
slots are the multiples of n+1 (both ends and every seam between rows).

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

w_k is 0 at the ghost slots. A seam's psi sums the voltage differences
across it, finite while the field entering each step is (the stepper stops
at the first step that leaves the ceiling), so the ghosts' j is exactly 0
and no row sees its neighbour. Steps 2 and 4 subtract into temporaries:
subtraction is exactly antisymmetric, so a mirrored pair of runs stays
exactly mirrored, and each row gets the arithmetic of a run of its own.

The table as a Fourier series: g is smooth and 2 pi periodic, so
g(x) = sum_{|m| <= M} c_m e^{imx} with c_{-m} = conj(c_m), and by
Jacobi-Anger c_m = J_m(phi_rf) cos(phi_dc) for even m and
i J_m(phi_rf) sin(phi_dc) for odd m. The terms fall off faster than
geometrically, so M is 8 at phi_rf = 0.1, 12 at 0.6 and 16 at 1.5. With
x = theta - omega_s th (theta = mod_phase, baked in by the caller),

  w_k = s c_0 + sum_{m=1}^{M} Re(d_km) cos(m theta) + Im(d_km) sin(m theta),
  d_km = 2 s conj(c_m) e^{i m omega_s th_k},   s = dt^2/(C_cell l0),

so the table of BLOCK steps is one (BLOCK, 2M+1) @ (2M+1, n) product of
per-step coefficients and the per-run basis [1, cos(m theta), sin(m theta)].
No transcendental is taken per cell-step.

Steps are taken in blocks of BLOCK on absolute multiples of BLOCK, and a
block's table and source values are always computed whole, from the
absolute step indices alone. Each step then gets the same arithmetic
however a run is split into calls. The product goes into row 0's slots of
the table and is copied to the other rows; each row's source values are
one vector. Per step, the leapfrog is five 1-D ufuncs, the 2B row ends are
Python floats through memoryviews, and the blowup check is one dot product
unless that product reaches ceiling^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

# steps per modulation table: (64, 2 * 1025 + 1) doubles is 1 MB
BLOCK = 64

# samples of g per period for its Fourier coefficients; a series that
# reaches the Nyquist term SERIES_SAMPLES // 2 would alias
SERIES_SAMPLES = 64


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


def source_values(kind: str, th: np.ndarray, amp: float, omega: float,
                  t_center: float, t_width: float,
                  ramp: float) -> np.ndarray:
    """Source voltage at the half-step times th: a continuous wave with a
    raised-cosine turn-on over `ramp`, or a gaussian pulse."""
    if kind == "continuous-wave":
        a = np.where(th < ramp,
                     amp * 0.5 * (1.0 - np.cos(math.pi * th / ramp)), amp)
        return a * np.sin(omega * th)
    x = (th - t_center) / t_width
    return amp * np.exp(-0.5 * x * x) * np.sin(omega * (th - t_center))


class TableCoefficients:
    """Rows [s c_0, Re d_k, Im d_k] of the block table's coefficients
    (module docstring), BLOCK steps at a time.

    d_km = e^{i m omega_s k0 dt} * (2 s conj(c_m) e^{i m omega_s (r+1/2) dt})
    for step k = k0 + r: the second factor is fixed, so a block costs M
    complex exponentials and one (BLOCK, M) product."""

    def __init__(self, series: np.ndarray, omega_s: float, dt: float,
                 scale: float):
        m_top = series.size - 1
        self._m_w_dt = np.arange(1, m_top + 1) * (omega_s * dt)
        r = np.arange(BLOCK) + 0.5
        self._rows = (2.0 * scale * np.conj(series[1:])) \
            * np.exp(1j * np.multiply.outer(r, self._m_w_dt))
        self.out = np.empty((BLOCK, 2 * m_top + 1))
        self.out[:, 0] = scale * series[0].real
        self._re = self.out[:, 1:m_top + 1]
        self._im = self.out[:, m_top + 1:]

    def at(self, k0: int) -> np.ndarray:
        """The coefficient rows of steps k0 .. k0 + BLOCK - 1, in `out`."""
        d = np.exp(1j * (k0 * self._m_w_dt)) * self._rows
        self._re[:] = d.real
        self._im[:] = d.imag
        return self.out


def step_block(v, psi, j, series, basis, omega_s, dt, tab_scale, a_end,
               sources, ceiling, t_index0, n_steps,
               probe_idx=None, probe_rec=None) -> int:
    """Advance every row n_steps in place, from absolute step t_index0.

    v: contiguous (B*(n+1),) voltages; psi, j: contiguous (B*(n+1)+1,)
    scaled flux and current in the layout above, with n = basis.shape[1].
    series, basis: modulation_series of the drive at theta = mod_phase.
    tab_scale = dt^2/(C_cell l0). sources: one (left_port, kind, amp,
    omega, t_center, t_width, ramp) tuple per row. probe_idx: slots of j,
    recorded each step into the rows of probe_rec. Returns -1, or the
    absolute step index at which max|v| over all rows left the ceiling
    (the state is then as of that failed step)."""
    n = basis.shape[1]
    v_lo, v_hi, psi_in = v[:-1], v[1:], psi[1:-1]
    j_lo, j_hi = j[:-1], j[1:]
    dv, di = np.empty(v.size - 1), np.empty_like(v)
    v_mem = memoryview(v)
    j_mem = memoryview(j)
    v_dot = v.dot
    record = probe_idx is not None and len(probe_idx) > 0

    # (left node, its adjacent slot, right node = its adjacent slot)
    ends = [(m, m + 1, m + n) for m in range(0, v.size, n + 1)]
    one_plus_a = 1.0 + a_end
    # any |v| > ceiling makes v.v >= ceiling^2 (a sum of nonnegative
    # rounded squares is at least its largest term), so v.v < ceiling^2
    # clears the step; otherwise the exact max|v| test decides
    ceiling_sq = ceiling * ceiling

    coef = TableCoefficients(series, omega_s, dt, tab_scale)
    table = np.zeros((BLOCK, psi.size))
    cells = table[:, :-1].reshape(BLOCK, -1, n + 1)[:, :, 1:]
    tab = cells[:, 0]
    zeros = [0.0] * BLOCK
    k_end = t_index0 + n_steps
    for k0 in range(t_index0 - t_index0 % BLOCK, k_end, BLOCK):
        np.matmul(coef.at(k0), basis, out=tab)
        cells[:, 1:] = tab[:, None]

        th = (np.arange(k0, k0 + BLOCK) + 0.5) * dt
        src_l, src_r = [], []
        for left, kind, *params in sources:
            vs = source_values(kind, th, *params).tolist()
            src_l.append(vs if left else zeros)
            src_r.append(zeros if left else vs)

        lo, hi = max(t_index0 - k0, 0), min(k_end - k0, BLOCK)
        for s in range(lo, hi):
            np.subtract(v_lo, v_hi, out=dv)
            psi_in += dv
            np.multiply(psi, table[s], out=j)

            if record:
                np.take(j, probe_idx, out=probe_rec[k0 + s - t_index0])

            np.subtract(j_lo, j_hi, out=di)
            v += di

            for (vl, jl, vr), sl, sr in zip(ends, src_l, src_r):
                v_mem[vl] = (v_mem[vl] + a_end * sl[s]
                             - j_mem[jl]) / one_plus_a
                v_mem[vr] = (v_mem[vr] + a_end * sr[s]
                             + j_mem[vr]) / one_plus_a

            if not v_dot(v) < ceiling_sq:
                if not float(np.max(np.abs(v))) <= ceiling:
                    return k0 + s
    return -1
