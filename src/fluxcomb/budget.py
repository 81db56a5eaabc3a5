"""Gate-error budget for a frequency-multiplexed qubit array on a shared
bus: Purcell decay through the bus, engineered dephasing suppression, and
coherent crosstalk between comb neighbors.

One pass over the comb, teeth 1..n at unit pitch, sums the crosstalk over
tooth spacings and serves full_budget and every size of scalability_sweep,
with one formula path for both bus variants. The dimensionless suppression
constants and the gain profile are the calibration set: tuned once against
the target coherence and error bands, then frozen here.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, shown

TWO_PI = 2.0 * math.pi

MAX_QUBITS = 1024    # the largest comb; the guards below are written for it
# the comb pass squares frequencies from omega_m (the buses' 8 and
# 16 omega_m widths) up to the top tooth's MAX_QUBITS omega_m: for an
# omega_m in this range [rad/s] all are normal floats, the top one with a
# factor 4 to spare
_OMEGA_M_RANGE = (math.sqrt(sys.float_info.min),
                  math.sqrt(sys.float_info.max) / (2 * MAX_QUBITS))


@dataclass(frozen=True)
class QubitArraySpec:
    """Comb of transmons on a shared bus. The budget's comb is teeth
    1..n_qubits at unit pitch, qubit i at x = i + 1 [m]."""

    n_qubits: int = 25
    omega_m: float = TWO_PI * 3e9        # comb spacing [rad/s]
    harmonic_indices: tuple = None       # a flux sweep's; not the budget's
    t1_intrinsic: float = 150e-6         # [s]
    t2_intrinsic: float = 40e-6          # [s]
    g_coupling: float = TWO_PI * 50e6    # qubit-bus coupling [rad/s]
    kappa_bus: float = TWO_PI * 100e6    # bus dissipation [rad/s]
    t_gate: float = 0.5e-9               # [s]
    lambda_c: float = 12.0               # coupling decay length [m]

    def __post_init__(self):
        # the comb pass takes 1 / t2_intrinsic and 1 / t1_intrinsic, at
        # most 2 / t2_intrinsic, and the coupling's decay over up to
        # MAX_QUBITS - 1 pitches
        if not math.isfinite(2.0 / self.t2_intrinsic):
            raise ConfigError("t2_intrinsic is too short: 2 / t2_intrinsic "
                              "is out of float range")
        if not math.isfinite((MAX_QUBITS - 1) / self.lambda_c):
            raise ConfigError(f"lambda_c is too short: {MAX_QUBITS - 1} / "
                              f"lambda_c is out of float range")
        w_lo, w_hi = _OMEGA_M_RANGE
        if not w_lo <= self.omega_m <= w_hi:
            raise ConfigError(
                f"omega_m must be in {w_lo:.4g}..{w_hi:.4g} rad/s")
        g_sq = self.g_coupling * self.g_coupling
        if not math.isfinite(g_sq):
            raise ConfigError("g_coupling squared is out of float range")
        # the crosstalk divides the coupling by comb spacings >= omega_m,
        # and takes the sine of spacings up to MAX_QUBITS omega_m times
        # t_gate / 2
        ratio = self.g_coupling / self.omega_m
        if not math.isfinite(ratio * ratio):
            raise ConfigError("omega_m is too small: (g_coupling / omega_m)"
                              "^2 is out of float range")
        if not math.isfinite(MAX_QUBITS * self.omega_m * self.t_gate):
            raise ConfigError(f"t_gate is too long: {MAX_QUBITS} omega_m "
                              f"t_gate is out of float range")
        if not math.isfinite(g_sq / self.kappa_bus):
            raise ConfigError("kappa_bus is too small: g_coupling^2 / "
                              "kappa_bus is out of float range")
        if self.t2_intrinsic > 2.0 * self.t1_intrinsic:
            raise ConfigError("t2_intrinsic cannot exceed 2 * t1_intrinsic")
        hi = self.harmonic_indices or ()
        if any(b <= a for a, b in zip(hi, hi[1:])):
            raise ConfigError("harmonic_indices must be strictly increasing")


@dataclass(frozen=True)
class BusIsolationModel:
    c_purcell: float                     # Purcell suppression
    c_phi: float                         # dephasing suppression
    c0: float                            # residual bus leakage
    delta_bw: float                      # isolation bandwidth [rad/s]
    omega_res: float                     # bus resonance [rad/s]
    purcell_bw: float                    # Purcell Lorentzian width [rad/s]
    gain_width: float                    # gain Gaussian width [rad/s]
    gain_floor: float = 0.5
    gain_peak: float = 2.0


# each bus kind's constants: a reciprocal bus is a plain shared bus with
# flat sub-unity gain (insertion loss; gain_width is inert), a
# nonreciprocal one is direction-selective, suppressing decay back into
# the bus, with in-band gain peaking at the bus resonance. The
# nonreciprocal constants are assumed, not derived from the line: c0
# 0.3 -> 0.005 implies 17.8 dB of isolation and c_purcell 4.8251e-5 ->
# 1.9e-6 implies 14.0 dB, while line.isolation_report at the fundamental
# reads -0.09 dB on the stable (phi_dc, phi_rf) = (0.5, 0.3) drive and
# -8.47 dB on the packaged (0.6, 0.6) one (a strict xfail in the
# acceptance tests records the gap)
_BUSES = {
    "reciprocal": dict(c_purcell=4.8251e-5, c_phi=1.0, c0=0.3,
                       gain_floor=0.07, gain_peak=0.07),
    "nonreciprocal": dict(c_purcell=1.9e-6, c_phi=0.002, c0=0.005,
                          gain_floor=0.5, gain_peak=2.0),
}


def bus_model(kind: str, omega_m: float) -> BusIsolationModel:
    """The bus of a kind, "reciprocal" or "nonreciprocal", with the
    bandwidths and resonance of both at fixed multiples of omega_m."""
    if kind not in _BUSES:
        raise ConfigError(f"kind {shown(kind)} is not a bus model")
    return BusIsolationModel(
        **_BUSES[kind], delta_bw=0.4 * omega_m, omega_res=13.0 * omega_m,
        gain_width=8.0 * omega_m, purcell_bw=16.0 * omega_m)


def gain(model: BusIsolationModel, omega) -> np.ndarray:
    """Frequency-dependent insertion gain G(omega), Gaussian around the
    bus resonance with a flat floor."""
    omega = np.asarray(omega, dtype=float)
    return model.gain_floor + (model.gain_peak - model.gain_floor) * np.exp(
        -((omega - model.omega_res) ** 2) / (2.0 * model.gain_width ** 2))


@contextmanager
def _in_float_range():
    """A comb pass out of float range raises ConfigError, not inf or NaN."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:
        raise ConfigError(
            "omega_m, n_qubits, t1_intrinsic, t2_intrinsic, g_coupling, "
            "kappa_bus, t_gate, lambda_c: the error budget is out of float "
            f"range: {exc}") from None


def full_budget(array: QubitArraySpec, model: BusIsolationModel) -> tuple:
    """Lifetimes and gate errors of every qubit of the comb: per-qubit
    arrays (omega [rad/s], gamma_purcell [1/s], t1 [s], t2 [s], e_relax,
    e_dephase, e_crosstalk, e_total), e_total the sum of the three errors."""
    with _in_float_range():
        return _comb_pass(array, model)[0]


def scalability_sweep(array: QubitArraySpec, model: BusIsolationModel,
                      n_range) -> list[float]:
    """Worst-case total gate error of the comb's first n teeth, for each n
    of n_range, all from one comb pass. An n outside 1..array.n_qubits,
    which the pass over the template's teeth cannot answer, raises
    ValueError."""
    n_range = list(n_range)
    for n in n_range:
        if not 1 <= n <= array.n_qubits:
            raise ValueError(f"n_range holds {n}, outside 1.."
                             f"{array.n_qubits} (array.n_qubits)")
    with _in_float_range():
        per_qubit, g_omega, reach = _comb_pass(array, model)
        base = per_qubit[4] + per_qubit[5]         # e_relax + e_dephase
        return [float(np.max(base[:n] + (reach[:n] + reach[n - 1::-1])
                             / g_omega[:n])) for n in n_range]


def _comb_pass(array: QubitArraySpec, model: BusIsolationModel) -> tuple:
    """full_budget's tuple of per-qubit arrays, the gain G(omega), and
    reach, whose entry d sums the crosstalk terms of partners 1..d teeth away.
    Purcell decay through the bus is the gain-screened coupling g^2/G,
    filtered by a Lorentzian of width purcell_bw around the bus resonance
    and scaled by the suppression constant. Crosstalk is the coherent swap
    error from every other tooth, with exponentially decaying coupling and
    gain screening at the victim: qubit i of n has i partners below it and
    n - 1 - i above."""
    teeth = np.arange(1.0, array.n_qubits + 1)
    omega = teeth * array.omega_m
    g_omega = gain(model, omega)
    half_w_sq = (model.purcell_bw / 2.0) ** 2
    lor = half_w_sq / ((omega - model.omega_res) ** 2 + half_w_sq)
    gamma_p = array.g_coupling ** 2 / g_omega / array.kappa_bus * lor \
        * model.c_purcell
    t1 = 1.0 / (1.0 / array.t1_intrinsic + gamma_p)
    gamma_phi = 1.0 / array.t2_intrinsic - 0.5 / array.t1_intrinsic
    t2 = 1.0 / (0.5 / t1 + gamma_phi * model.c_phi)
    # a partner d = 1..n-1 teeth away is d omega_m and d pitches off, the
    # same term for every qubit
    dist, delta = teeth[:-1], omega[:-1]
    g_ij = array.g_coupling * np.exp(-dist / array.lambda_c)
    c_bus = model.c0 + (1.0 - model.c0) * np.exp(
        -((delta / model.delta_bw) ** 2))
    terms = (g_ij / delta) ** 2 * np.sin(
        0.5 * delta * array.t_gate) ** 2 * c_bus
    reach = np.concatenate(([0.0], np.cumsum(terms)))
    e_relax = array.t_gate / t1
    e_dephase = 1.0 - np.exp(-array.t_gate / t2)
    e_crosstalk = (reach + reach[::-1]) / g_omega
    return ((omega, gamma_p, t1, t2, e_relax, e_dephase, e_crosstalk,
             e_relax + e_dephase + e_crosstalk), g_omega, reach)
