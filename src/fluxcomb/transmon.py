"""Transmon spectra from charge-basis diagonalization, flux tuning, dispersive
readout shift, and the comb-addressing maps.

Unit policy: every energy/frequency in this module is an ordinary frequency in
Hz (E/h). Angular quantities (the comb spacing omega_m, the resonance width
sigma_res) enter only through addressing_map and are converted at that
boundary.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

from .errors import ConfigError, ConvergenceError

# default Gaussian resonance width for addressing scores, rad/s
SIGMA_RES = 2.0 * math.pi * 50e6

_MAX_CHARGE_CUT = 200

# J0 quadrature: midpoints of 32 equal steps over half a drive period
_J0_SIN = np.sin((np.arange(32) + 0.5) * (math.pi / 32))

# calibration: exact Newton steps allowed, and the relative residual after
# which one more step leaves only the eigensolver's rounding (~1e-13)
_CAL_STEPS = 8
_CAL_RTOL = 1e-12


@dataclass
class TransmonSpec:
    ec: float                 # charging energy E_C/h [Hz]
    ej_max: float             # max Josephson energy E_Jmax/h [Hz], per junction
    ng: float = 0.0           # offset charge [Cooper pairs]
    n_charge_cut: int = 31    # charge basis spans -cut..+cut

    def __post_init__(self):
        for name in ("ec", "ej_max"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
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


def j0(x):
    """Bessel J0 as the average of cos(x sin theta) over one drive period.

    The integrand has period pi in theta, so a 32-node midpoint rule is
    exact up to a J_64(x) aliasing term: within 1e-15 of J0 for |x| <= 30.
    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    return np.cos(np.multiply.outer(x, _J0_SIN)).mean(axis=-1)[()]


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
    ham = np.diag(4.0 * ec * (n - ng) ** 2)
    off = np.arange(2 * cut)
    ham[off, off + 1] = ham[off + 1, off] = -0.5 * ej
    try:
        vals = np.linalg.eigvalsh(ham)[:n_levels]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"charge-basis eigensolve failed: {exc}") \
            from exc
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
        raise ConfigError("n_levels must be >= 3 for omega_q and alpha")
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
    """omega_q as a function of effective E_J at fixed E_C: a Chebyshev
    interpolant in ln(E_J) on 48 nodes over ej/ec in [8, 2.2e4].

    It matches exact solves to about 1e-12 relative over that range (the
    dense eigensolver's own rounding at the low end), and E_J outside the
    range is clipped to its ends. Exact solves go through diagonalize();
    this class serves map evaluation and calibration start points and
    slopes.
    """

    def __init__(self, ec: float, ej_over_ec_min: float = 8.0,
                 ej_over_ec_max: float = 2.2e4, n_nodes: int = 48):
        self.ec = ec
        spec = TransmonSpec(ec=ec, ej_max=ec * ej_over_ec_max)
        # one converged solve at the widest wavefunction fixes the cut
        _, cut = _converged_levels(spec, ec * ej_over_ec_max, 3)
        self._ej_lo, self._ej_hi = ec * ej_over_ec_min, ec * ej_over_ec_max
        lo, hi = math.log(self._ej_lo), math.log(self._ej_hi)
        t = chebyshev.chebpts1(n_nodes)
        self._ln_ej = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        self._wq = np.array([_charge_levels(ec, math.exp(le), 0.0, cut, 3)[1]
                             for le in self._ln_ej])
        # interpolating coefficients from the discrete orthogonality of
        # T_k on the first-kind nodes
        coef = chebyshev.chebvander(t, n_nodes - 1).T @ self._wq
        coef *= 2.0 / n_nodes
        coef[0] *= 0.5
        self._series = chebyshev.Chebyshev(coef, domain=[lo, hi])
        self._slope = self._series.deriv()

    def omega_q(self, ej):
        """Interpolated qubit frequency [Hz]; accepts scalars or arrays."""
        return self._series(np.log(np.clip(ej, self._ej_lo, self._ej_hi)))

    def slope(self, ln_ej: float) -> float:
        """d omega_q / d ln(E_J) [Hz] of the interpolant."""
        return float(self._slope(ln_ej))

    def ln_ej_from_omega(self, omega_q_hz: float) -> float:
        """ln(E_J) at which the interpolant equals omega_q_hz: Newton on
        the series, from linear interpolation between the nodes."""
        w_lo, w_hi = self._series(self._series.domain)
        if not w_lo <= omega_q_hz <= w_hi:
            raise ConfigError(
                f"qubit frequency {omega_q_hz / 1e9:.3f} GHz outside the "
                f"flux curve's {w_lo / 1e9:.3f}-{w_hi / 1e9:.3f} GHz")
        # omega_q is strictly increasing in ej, so the nodes are sorted
        ln_ej = float(np.interp(omega_q_hz, self._wq, self._ln_ej))
        for _ in range(50):
            step = (float(self._series(ln_ej)) - omega_q_hz) \
                / self.slope(ln_ej)
            ln_ej -= step
            if abs(step) <= 1e-15 * abs(ln_ej):
                break
        return ln_ej


@functools.lru_cache(maxsize=16)
def flux_curve(ec: float) -> FluxCurve:
    return FluxCurve(ec)


def resonance_bias(spec: TransmonSpec, target_hz: float,
                   phi_rf: float = 0.0) -> float:
    """DC flux bias (line units, radians) putting the cycle-averaged qubit
    frequency on target, in closed form on the flux curve:
    phi_dc = 2 arccos(E_J,needed / (2 E_Jmax |J0(phi_rf/2)|))."""
    ej_needed = math.exp(flux_curve(spec.ec).ln_ej_from_omega(target_hz))
    ratio = ej_needed / (2.0 * spec.ej_max * abs(j0(0.5 * phi_rf)))
    if ratio > 1.0:
        raise ConfigError(
            f"target {target_hz / 1e9:.3f} GHz above the zero-bias frequency")
    return 2.0 * math.acos(ratio)


def default_comb_qubits(omega_m: float,
                        harmonic_indices=(5, 10, 15, 20, 25),
                        ec: float = 0.25e9,
                        bias_targets=None) -> list[TransmonSpec]:
    """Calibrated qubit set: qubit i is sized so its cycle-averaged frequency
    sits on harmonic n_i of the comb (omega_m in rad/s) at a staggered DC
    bias, giving well-separated addressing peaks.

    Calibration is Newton in ln(E_J): each residual is an exact solve, each
    slope the flux curve's, and the start the flux curve's own root.
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
        try:
            ln_ej = curve.ln_ej_from_omega(target_hz)
        except ConfigError as exc:
            raise ConfigError(f"harmonic {n_i} at ec = {ec:.4g} Hz: {exc}") \
                from None
        for _ in range(_CAL_STEPS):
            residual = _converged_levels(template, math.exp(ln_ej), 3)[0][1] \
                - target_hz
            ln_ej -= residual / curve.slope(ln_ej)
            if abs(residual) <= _CAL_RTOL * target_hz:
                break
        else:
            raise ConvergenceError(
                f"calibration to harmonic {n_i} not converged in "
                f"{_CAL_STEPS} steps")
        ej_max = math.exp(ln_ej) / (2.0 * math.cos(0.5 * bias))
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
