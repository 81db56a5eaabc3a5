"""Transmon spectra from charge-basis diagonalization, flux tuning, dispersive
readout shift, and the comb-addressing maps.

Unit policy: every energy/frequency in this module is an ordinary frequency in
Hz (E/h). Angular quantities (the comb spacing omega_m, the resonance width
sigma_res) enter only through addressing_map and are converted at that
boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal
from scipy.optimize import brentq
from scipy.special import j0

from .errors import ConfigError, ConvergenceError

# default Gaussian resonance width for addressing scores, rad/s
SIGMA_RES = 2.0 * math.pi * 50e6

_MAX_CHARGE_CUT = 200


@dataclass
class TransmonSpec:
    ec: float                 # charging energy E_C/h [Hz]
    ej_max: float             # max Josephson energy E_Jmax/h [Hz], per junction
    ng: float = 0.0           # offset charge [Cooper pairs]
    n_charge_cut: int = 31    # charge basis spans -cut..+cut

    def __post_init__(self):
        if self.ec <= 0 or self.ej_max <= 0:
            raise ConfigError("ec and ej_max must be positive")
        if self.n_charge_cut < 10:
            raise ConfigError("n_charge_cut must be >= 10")
        if self.ej_max / self.ec < 10:
            warnings.warn(
                f"ej_max/ec = {self.ej_max / self.ec:.2f} < 10: outside the "
                "transmon regime", stacklevel=2)


@dataclass
class QubitSpectrum:
    """Ground-referenced eigenfrequencies of one transmon."""

    levels: np.ndarray        # Hz, ascending, levels[0] == 0
    omega_q: float            # Hz, E1 - E0
    anharmonicity: float      # Hz, E2 - 2 E1 + E0 (negative for a transmon)


@dataclass
class ReadoutSpec:
    omega_r: float            # resonator frequency [Hz]
    g_r: float                # qubit-resonator coupling [Hz]

    def __post_init__(self):
        if self.omega_r <= 0 or self.g_r < 0:
            raise ConfigError("omega_r must be positive, g_r nonnegative")


def ej_of_flux(ej_max: float, phi_over_phi0: float) -> float:
    """Effective SQUID Josephson energy at external flux.

    Returns 2*ej_max*|cos(pi*phi/phi0)|; magnitude by convention, a negative
    E_J being a frame rotation with identical spectrum.
    """
    return 2.0 * ej_max * abs(math.cos(math.pi * phi_over_phi0))


def ej_time_averaged(ej_max: float, phi_dc: float, phi_rf: float) -> float:
    """Cycle-averaged E_J under flux phi(t) = phi_dc + phi_rf*sin(omega t),
    both in line-flux units (2*pi*Phi/Phi0, radians).

    The average of cos(phi/2) over one drive period contributes a Bessel
    factor: <cos> = cos(phi_dc/2) * J0(phi_rf/2). At phi_rf = 0 this is the
    plain DC expression.
    """
    return 2.0 * ej_max * abs(math.cos(0.5 * phi_dc) * j0(0.5 * phi_rf))


def _charge_levels(ec: float, ej: float, ng: float, cut: int, n_levels: int
                   ) -> np.ndarray:
    n = np.arange(-cut, cut + 1, dtype=np.float64)
    diag = 4.0 * ec * (n - ng) ** 2
    off = np.full(2 * cut, -0.5 * ej)
    # non-finite input is left to LAPACK, which then fails to converge
    try:
        vals = eigvalsh_tridiagonal(diag, off, select="i",
                                    select_range=(0, n_levels - 1),
                                    check_finite=False)
    except LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    return vals - vals[0]


def _converged_levels(spec: TransmonSpec, ej: float, n_levels: int
                      ) -> tuple[np.ndarray, int]:
    """Grow the charge cutoff until the two highest retained levels stop
    moving (relative 1e-9 under cut -> cut+5)."""
    cut = max(spec.n_charge_cut, n_levels + 2)
    prev = _charge_levels(spec.ec, ej, spec.ng, cut, n_levels)
    while cut + 5 <= _MAX_CHARGE_CUT:
        cut += 5
        cur = _charge_levels(spec.ec, ej, spec.ng, cut, n_levels)
        scale = max(abs(cur[-1]), abs(cur[-2]), spec.ec)
        if (abs(cur[-1] - prev[-1]) <= 1e-9 * scale
                and abs(cur[-2] - prev[-2]) <= 1e-9 * scale):
            return cur, cut
        prev = cur
    raise ConvergenceError(
        f"charge basis not converged at cut = {_MAX_CHARGE_CUT} "
        f"(ej/ec = {ej / spec.ec:.3g})")


def diagonalize(spec: TransmonSpec, ej: float, n_levels: int = 5
                ) -> QubitSpectrum:
    """Diagonalize the charge-basis Hamiltonian 4*E_C*(n-ng)^2 - (E_J/2) *
    (|n><n+1| + h.c.) and return the lowest ground-referenced levels.

    The truncation is auto-verified; raises ConvergenceError when the cap is
    reached.
    """
    if ej < 0:
        raise ConfigError("ej must be nonnegative (take the magnitude)")
    if n_levels < 3:
        raise ConfigError("need at least 3 levels for omega_q and alpha")
    levels, _ = _converged_levels(spec, ej, n_levels)
    return QubitSpectrum(
        levels=levels,
        omega_q=float(levels[1]),
        anharmonicity=float(levels[2] - 2.0 * levels[1]),
    )


def chi_dispersive(spec: TransmonSpec, ej: float, readout: ReadoutSpec
                   ) -> float:
    """Dispersive shift chi = (g^2/Delta)*(1 + alpha/Delta), Hz, with
    Delta = omega_q - omega_r and alpha from diagonalization."""
    spect = diagonalize(spec, ej)
    delta = spect.omega_q - readout.omega_r
    if delta == 0.0:
        raise ConfigError("qubit degenerate with resonator (Delta = 0)")
    if readout.g_r / abs(delta) > 0.1:
        warnings.warn(
            f"g/|Delta| = {readout.g_r / abs(delta):.3f} > 0.1: dispersive "
            "approximation degrading", stacklevel=2)
    return (readout.g_r ** 2 / delta) * (1.0 + spect.anharmonicity / delta)


class FluxCurve:
    """omega_q as a function of effective E_J at fixed E_C, tabulated once and
    interpolated in ln(E_J).

    240 points over ej/ec in [8, 2.2e4] keep the interpolation error below a
    few MHz, far under the addressing resonance width. Exact solves go through
    diagonalize(); this class only serves map evaluation and root bracketing.
    """

    def __init__(self, ec: float, ej_over_ec_min: float = 8.0,
                 ej_over_ec_max: float = 2.2e4, n_points: int = 240):
        self.ec = ec
        spec = TransmonSpec(ec=ec, ej_max=ec * ej_over_ec_max)
        # one converged solve at the widest wavefunction fixes the cut
        _, cut = _converged_levels(spec, ec * ej_over_ec_max, 3)
        self._ln_ej = np.linspace(
            math.log(ec * ej_over_ec_min), math.log(ec * ej_over_ec_max),
            n_points)
        wq = np.empty(n_points)
        for k, le in enumerate(self._ln_ej):
            lv = _charge_levels(ec, math.exp(le), 0.0, cut, 3)
            wq[k] = lv[1]
        self._wq = wq

    def omega_q(self, ej):
        """Interpolated qubit frequency [Hz]; accepts scalars or arrays."""
        le = np.log(np.clip(ej, math.exp(self._ln_ej[0]),
                            math.exp(self._ln_ej[-1])))
        return np.interp(le, self._ln_ej, self._wq)

    def ej_from_omega(self, omega_q_hz: float) -> float:
        # omega_q is strictly increasing in ej, so the inverse interp is safe
        return float(np.exp(np.interp(omega_q_hz, self._wq, self._ln_ej)))


_CURVE_CACHE: dict[float, FluxCurve] = {}


def flux_curve(ec: float) -> FluxCurve:
    if ec not in _CURVE_CACHE:
        _CURVE_CACHE[ec] = FluxCurve(ec)
    return _CURVE_CACHE[ec]


def resonance_bias(spec: TransmonSpec, target_hz: float,
                   phi_rf: float = 0.0) -> float:
    """DC flux bias (line units, radians) putting the cycle-averaged qubit
    frequency on target; bisection on the monotone flux curve."""
    curve = flux_curve(spec.ec)

    def f(phi_dc):
        return curve.omega_q(ej_time_averaged(spec.ej_max, phi_dc, phi_rf)) \
            - target_hz

    lo, hi = 1e-9, math.pi - 1e-6
    if f(lo) < 0.0:
        raise ConfigError(
            f"target {target_hz / 1e9:.3f} GHz above the zero-bias frequency")
    if f(hi) > 0.0:
        raise ConfigError(
            f"target {target_hz / 1e9:.3f} GHz below the flux-curve floor")
    return float(brentq(f, lo, hi, xtol=1e-10))


def default_comb_qubits(omega_m: float,
                        harmonic_indices=(5, 10, 15, 20, 25),
                        ec: float = 0.25e9,
                        bias_targets=None) -> list[TransmonSpec]:
    """Calibrated qubit set: qubit i is sized so its cycle-averaged frequency
    sits on harmonic n_i of the comb (omega_m in rad/s) at a staggered DC
    bias, giving well-separated addressing peaks.
    """
    idx = list(harmonic_indices)
    if bias_targets is None:
        # lower bound 0.7: an rf amplitude up to ~0.85 scales the averaged
        # E_J by J0(0.425) ~ 0.955, and a qubit biased much below 0.65 can
        # then never climb back to its harmonic at any dc flux
        bias_targets = np.linspace(0.7, 1.2, len(idx))
    if len(bias_targets) != len(idx):
        raise ConfigError("bias_targets length must match harmonic_indices")
    template = TransmonSpec(ec=ec, ej_max=1e12)
    curve = flux_curve(ec)
    out = []
    for n_i, bias in zip(idx, bias_targets):
        target_hz = n_i * omega_m / (2.0 * math.pi)
        guess = curve.ej_from_omega(target_hz)

        def f(ln_ej):
            lv = _converged_levels(template, math.exp(ln_ej), 3)[0]
            return lv[1] - target_hz

        ln_lo, ln_hi = math.log(guess) - 0.1, math.log(guess) + 0.1
        ej_needed = math.exp(brentq(f, ln_lo, ln_hi, xtol=1e-12))
        ej_max = ej_needed / (2.0 * math.cos(0.5 * bias))
        out.append(TransmonSpec(ec=ec, ej_max=ej_max))
    return out


@dataclass
class AddressingMap:
    phi_dc: np.ndarray        # rad, shape (n_dc,)
    phi_rf: np.ndarray        # rad, shape (n_rf,)
    score: np.ndarray         # (n_dc, n_rf, n_qubits), each in [0, 1]
    omega_bar: np.ndarray     # rad/s, cycle-averaged qubit frequency
    harmonic_indices: list = field(default_factory=list)


def addressing_map(array, phi_dc_grid, phi_rf_grid, qubits=None,
                   sigma_res: float = SIGMA_RES) -> AddressingMap:
    """Resonance-proximity map over the flux-drive grid.

    `array` supplies omega_m (rad/s) and harmonic_indices; `qubits` the
    per-qubit TransmonSpec list (default: the calibrated comb set). Score of
    qubit i at a grid point is exp(-(omega_bar - n_i*omega_m)^2/(2 sigma^2)).
    """
    phi_dc = np.asarray(phi_dc_grid, dtype=float)
    phi_rf = np.asarray(phi_rf_grid, dtype=float)
    if np.any(phi_rf < 0.0):
        raise ConfigError("phi_rf grid must be nonnegative")
    idx = list(array.harmonic_indices)
    if qubits is None:
        qubits = default_comb_qubits(array.omega_m, idx)
    if len(qubits) != len(idx):
        raise ConfigError("one TransmonSpec per harmonic index required")

    # separable flux factor: ej_bar = 2 ej_max |cos(dc/2)| J0(rf/2)
    dc_fac = np.abs(np.cos(0.5 * phi_dc))[:, None]
    rf_fac = np.abs(j0(0.5 * phi_rf))[None, :]
    shape = (phi_dc.size, phi_rf.size, len(qubits))
    score = np.empty(shape)
    omega_bar = np.empty(shape)
    for q, (spec, n_i) in enumerate(zip(qubits, idx)):
        curve = flux_curve(spec.ec)
        ej_bar = 2.0 * spec.ej_max * dc_fac * rf_fac
        wq = 2.0 * math.pi * curve.omega_q(ej_bar)
        omega_bar[:, :, q] = wq
        det = wq - n_i * array.omega_m
        score[:, :, q] = np.exp(-det ** 2 / (2.0 * sigma_res ** 2))
    return AddressingMap(phi_dc=phi_dc, phi_rf=phi_rf, score=score,
                         omega_bar=omega_bar, harmonic_indices=idx)
