"""Blocked, batched NumPy time stepper for the modulated ladder line.

One call advances B runs (rows) that share geometry, drive, dt and blowup
ceiling; they differ only in their source (waveform and port) and probes.

Layout: each field of the batch is one flat, contiguous vector. v holds the
B*(n+1) node voltages, row after row. psi and j have one slot per gap
between neighbours in v plus a ghost at each end: slot m sits between
v[m-1] and v[m], so branch c of row r is slot r*(n+1)+c+1, and the ghost
slots are the multiples of n+1 (both ends and every seam between rows).

Scaled state: psi = flux/dt and j = i*dt/C_cell. With the table
w_k = cos(phi_dc + phi_rf * sin(mod_phase - omega_s th)) * dt^2/(C_cell l0),
one step from voltage time t to t+dt is

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

mod_phase[j] = kappa_s * z_j + phase is baked in by the caller. The drive
depends on z and t only through mod_phase - omega_s t, so by angle addition

  sin(mod_phase - w) = sin(mod_phase) cos(w) - cos(mod_phase) sin(w).

Steps are taken in blocks of BLOCK. Per block, the arguments of w_k for
all steps and cells are one (BLOCK, 3) @ (3, n) product into row 0's
slots of the table, one cos per cell-step, copied to the other rows; each
row's source values are one vector. Per step, the leapfrog is five 1-D
ufuncs, the 2B row ends are Python floats through memoryviews, and the
blowup check is one dot product unless that product reaches ceiling^2.
"""

from __future__ import annotations

import math

import numpy as np

# steps per modulation table: (64, 2 * 1025 + 1) doubles is 1 MB
BLOCK = 64


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


def step_block(v, psi, j, sin_mp, cos_mp,
               phi_dc, phi_rf, omega_s, dt, tab_scale, a_end,
               sources, ceiling, t_index0, n_steps,
               probe_idx=None, probe_rec=None) -> int:
    """Advance every row n_steps in place.

    v: contiguous (B*(n+1),) voltages; psi, j: contiguous (B*(n+1)+1,)
    scaled flux and current in the layout above, with n = sin_mp.size.
    tab_scale = dt^2/(C_cell l0). sources: one (left_port, kind, amp,
    omega, t_center, t_width, ramp) tuple per row. probe_idx: slots of j,
    recorded each step into the rows of probe_rec. Returns -1, or the
    absolute step index at which max|v| over all rows left the ceiling
    (the state is then as of that failed step)."""
    n = sin_mp.size
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

    # arg_k = [phi_rf cos w_k, -phi_rf sin w_k, phi_dc] @ basis, one GEMM
    basis = np.stack((sin_mp, cos_mp, np.ones(n)))
    coef = np.empty((min(BLOCK, n_steps), 3))
    coef[:, 2] = phi_dc
    table = np.zeros((len(coef), psi.size))
    cells = table[:, :-1].reshape(len(coef), -1, n + 1)[:, :, 1:]
    for b0 in range(0, n_steps, BLOCK):
        kk = min(BLOCK, n_steps - b0)
        th = (np.arange(t_index0 + b0, t_index0 + b0 + kk) + 0.5) * dt
        w = omega_s * th
        np.multiply(np.cos(w), phi_rf, out=coef[:kk, 0])
        np.multiply(np.sin(w), -phi_rf, out=coef[:kk, 1])
        tab = cells[:kk, 0]
        np.matmul(coef[:kk], basis, out=tab)
        np.cos(tab, out=tab)
        tab *= tab_scale
        cells[:kk, 1:] = tab[:, None]

        zeros = [0.0] * kk
        src_l, src_r = [], []
        for left, kind, *params in sources:
            vs = source_values(kind, th, *params).tolist()
            src_l.append(vs if left else zeros)
            src_r.append(zeros if left else vs)

        for s, row in enumerate(table[:kk]):
            np.subtract(v_lo, v_hi, out=dv)
            psi_in += dv
            np.multiply(psi, row, out=j)

            if record:
                np.take(j, probe_idx, out=probe_rec[b0 + s])

            np.subtract(j_lo, j_hi, out=di)
            v += di

            for (vl, jl, vr), sl, sr in zip(ends, src_l, src_r):
                v_mem[vl] = (v_mem[vl] + a_end * sl[s]
                             - j_mem[jl]) / one_plus_a
                v_mem[vr] = (v_mem[vr] + a_end * sr[s]
                             + j_mem[vr]) / one_plus_a

            if not v_dot(v) < ceiling_sq:
                if not float(np.max(np.abs(v))) <= ceiling:
                    return t_index0 + b0 + s
    return -1
