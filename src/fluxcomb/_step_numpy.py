"""Blocked, batched NumPy time stepper for the modulated ladder line.

One call advances B runs that share geometry, drive, dt and blowup ceiling,
stored as rows of (B, n+1) voltage and (B, n) flux and current arrays. The
rows differ only in their source (waveform and port) and probes. One step
from voltage time t to t+dt:

  1. th = (k + 1/2) dt
  2. flux[j] += dt * (v[j] - v[j+1])                 (branch flux, half grid)
  3. i[j] = flux[j] * m_k[j]                         (current through cell j)
  4. interior v[j] += (dt/C_cell) * (i[j-1] - i[j])
  5. boundary nodes: semi-implicit resistor update with C_end = C_cell/2,
     v = (v + a*Vs - (dt/C_end)*i_adj) / (1 + a), a = dt/(C_end Z)
  6. blowup check on max|v| (a NaN also trips it), probe currents recorded
     at th

m_k[j] = cos(phi_dc + phi_rf * sin(mod_phase[j] - omega_s * th)) / l0 with
mod_phase[j] = kappa_s * z_j + phase baked in by the caller. The drive
depends on z and t only through mod_phase - omega_s t, so by angle addition

  sin(mod_phase - w) = sin(mod_phase) cos(w) - cos(mod_phase) sin(w).

Steps are taken in blocks of BLOCK. Per block, the arguments of m_k for
all steps and cells are one (BLOCK, 3) @ (3, n) product, the (BLOCK, n)
table of m_k costs one cos per cell-step and is shared by all rows, and
each row's source values are one vector. Per step, the leapfrog is a fixed
set of in-place ufuncs on views taken once, the 2B boundary nodes are
updated with Python floats through memoryviews, and the blowup check is
one dot product unless that product reaches ceiling^2.
"""

from __future__ import annotations

import math

import numpy as np

# steps per modulation table: (64, 1024) doubles is 0.5 MB
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


def step_block(v, flux, cur, sin_mp, cos_mp,
               phi_dc, phi_rf, omega_s, dt,
               inv_l0, dt_over_c, dt_over_cend, a_end,
               sources, ceiling, t_index0, n_steps,
               probe_flat=None, probe_rec=None) -> int:
    """Advance every row n_steps in place.

    v, flux, cur: C-contiguous (B, n+1), (B, n), (B, n) arrays. sources:
    one (left_port, kind, amp, omega, t_center, t_width, ramp) tuple per
    row. probe_flat: indices into cur.ravel(), recorded each step into the
    rows of probe_rec. Returns -1, or the absolute step index at which
    max|v| over all rows left the ceiling (the state is then as of that
    failed step)."""
    n_rows, n = flux.shape
    if not (v.flags.c_contiguous and cur.flags.c_contiguous):
        raise ValueError("v and cur must be C-contiguous")
    v_lo, v_hi, v_in = v[:, :-1], v[:, 1:], v[:, 1:-1]
    cur_lo, cur_hi = cur[:, :-1], cur[:, 1:]
    dv = np.empty_like(flux)
    di = np.empty((n_rows, n - 1))
    v_flat = v.reshape(-1)
    cur_flat = cur.reshape(-1)
    v_mem = memoryview(v_flat)
    cur_mem = memoryview(cur_flat)
    record = probe_flat is not None and len(probe_flat) > 0

    rows = [(r * (n + 1), r * (n + 1) + n, r * n, r * n + n - 1)
            for r in range(n_rows)]
    one_plus_a = 1.0 + a_end
    # any |v| > ceiling makes v.v >= ceiling^2 (a sum of nonnegative
    # rounded squares is at least its largest term), so v.v < ceiling^2
    # clears the step; otherwise the exact max|v| test decides
    ceiling_sq = ceiling * ceiling

    # arg_k = [phi_rf cos w_k, -phi_rf sin w_k, phi_dc] @ basis, one GEMM
    basis = np.stack((sin_mp, cos_mp, np.ones(n)))
    coef = np.empty((min(BLOCK, n_steps), 3))
    coef[:, 2] = phi_dc
    table = np.empty((coef.shape[0], n))
    for b0 in range(0, n_steps, BLOCK):
        kk = min(BLOCK, n_steps - b0)
        th = (np.arange(t_index0 + b0, t_index0 + b0 + kk) + 0.5) * dt
        w = omega_s * th
        np.multiply(np.cos(w), phi_rf, out=coef[:kk, 0])
        np.multiply(np.sin(w), -phi_rf, out=coef[:kk, 1])
        tab = table[:kk]
        np.matmul(coef[:kk], basis, out=tab)
        np.cos(tab, out=tab)
        tab *= inv_l0

        zeros = [0.0] * kk
        src_l, src_r = [], []
        for left, kind, *params in sources:
            vs = source_values(kind, th, *params).tolist()
            src_l.append(vs if left else zeros)
            src_r.append(zeros if left else vs)

        for s in range(kk):
            np.subtract(v_lo, v_hi, out=dv)
            dv *= dt
            flux += dv
            np.multiply(flux, tab[s], out=cur)

            if record:
                np.take(cur_flat, probe_flat, out=probe_rec[b0 + s])

            np.subtract(cur_lo, cur_hi, out=di)
            di *= dt_over_c
            v_in += di

            for (vl, vr, il, ir), sl, sr in zip(rows, src_l, src_r):
                v_mem[vl] = (v_mem[vl] + a_end * sl[s]
                             - dt_over_cend * cur_mem[il]) / one_plus_a
                v_mem[vr] = (v_mem[vr] + a_end * sr[s]
                             + dt_over_cend * cur_mem[ir]) / one_plus_a

            if not np.dot(v_flat, v_flat) < ceiling_sq:
                if not float(np.max(np.abs(v_flat))) <= ceiling:
                    return t_index0 + b0 + s
    return -1
