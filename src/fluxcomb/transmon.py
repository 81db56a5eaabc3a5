"""Transmon spectra from charge-basis diagonalization, flux tuning, and the
comb-addressing maps.

At zero offset charge the charge-basis Hamiltonian 4 E_C n^2 - (E_J/2)
(|n><n+1| + h.c.) commutes with n -> -n, so it is solved as two
tridiagonal parity blocks (Koch et al., Phys. Rev. A 76, 042319 (2007)).
The even block, on |0> and (|n> + |-n>)/sqrt(2) for n = 1..cut, has
diagonal 4 E_C n^2 for n = 0..cut and off-diagonal -E_J/2, except
-E_J/sqrt(2) between |0> and the first even state; the odd block, on
(|n> - |-n>)/sqrt(2), is 4 E_C n^2 for n = 1..cut with off-diagonal
-E_J/2. Their levels interleave (even, odd, even, ...), so the lowest
levels of the whole basis are the lowest of the sorted union.

Unit policy: every energy/frequency in this module is an ordinary frequency in
Hz (E/h). Angular quantities (the comb spacing omega_m, the resonance width
SIGMA_RES) enter only through default_comb_qubits and addressing_map and are
converted at those boundaries.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import chebyshev

from .errors import ConfigError, NumericalError

# Gaussian resonance width of the addressing scores, rad/s
SIGMA_RES = 2.0 * math.pi * 50e6

# FluxCurve: the ej/ec range of its table, its Chebyshev node count, and
# the Newton steps of its root, which from the node interpolation reach
# rounding (relative step ~1e-16) by the fourth anywhere on the range
_CURVE_EJ_OVER_EC = (8.0, 2.2e4)
_CURVE_NODES = 48
_ROOT_STEPS = 4

# the charge basis spans -cut..+cut: a solve starts at the larger of
# _START_CHARGE_CUT and n_levels + 2, and grows by 5 until converged
_START_CHARGE_CUT = 31
_MAX_CHARGE_CUT = 200
# the most levels a solve can converge for: the cut must grow by 5 at
# least once within _MAX_CHARGE_CUT
MAX_LEVELS = _MAX_CHARGE_CUT - 5 - 2
# grid points x qubits of an addressing map (two float arrays of this
# size, 32 MiB each, and as many CSV rows); the benchmark's dense map has
# 221 x 161 x 5 = 177,905
MAX_MAP_POINTS = 1 << 22

# J0 quadrature: midpoints of 32 equal steps over half a drive period
_J0_SIN = np.sin((np.arange(32) + 0.5) * (math.pi / 32))


def j0(x):
    """Bessel J0 as the average of cos(x sin theta) over one drive period.

    The integrand has period pi in theta, so a 32-node midpoint rule is
    exact up to a J_64(x) aliasing term: within 1e-15 of J0 for |x| <= 30.
    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    return np.cos(np.multiply.outer(x, _J0_SIN)).mean(axis=-1)[()]


def ej_time_averaged(ej_max, phi_dc, phi_rf):
    """Cycle-averaged E_J under flux phi(t) = phi_dc + phi_rf*sin(omega t),
    both in line-flux units (2*pi*Phi/Phi0, radians): scalars or arrays,
    broadcast together.

    The average of cos(phi/2) over one drive period contributes a Bessel
    factor: <cos> = cos(phi_dc/2) * J0(phi_rf/2). At phi_rf = 0 this is the
    plain DC expression.
    """
    return 2.0 * ej_max * abs(np.cos(0.5 * phi_dc)) * abs(j0(0.5 * phi_rf))


def eigvals_tridiag(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric tridiagonal matrices with
    main diagonal diag (..., m) and off-diagonal off (..., m - 1), the
    leading axes broadcast: one LAPACK call for the whole stack. A failed
    solve raises NumericalError."""
    m = diag.shape[-1]
    stack = np.broadcast_shapes(diag.shape[:-1], off.shape[:-1])
    # each matrix flattened: the diagonal is every (m + 1)th entry from 0,
    # the subdiagonal every (m + 1)th from m, and eigvalsh reads the lower
    # triangle only
    ham = np.zeros(stack + (m * m,))
    ham[..., ::m + 1] = diag
    ham[..., m::m + 1] = off
    try:
        return np.linalg.eigvalsh(ham.reshape(stack + (m, m)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"charge-basis eigensolve failed: {exc}") \
            from exc


def _charge_levels(ec: float, ej, cut: int, n_levels: int) -> np.ndarray:
    """The lowest n_levels ground-referenced levels of the charge basis
    -cut..+cut, from its two parity blocks. ej is a scalar, or an array
    whose levels run along a new last axis."""
    ej = np.asarray(ej, dtype=np.float64)[..., None]
    diag = 4.0 * ec * np.arange(cut + 1, dtype=np.float64) ** 2
    hop = np.repeat(-0.5 * ej, cut, axis=-1)
    odd = eigvals_tridiag(diag[1:], hop[..., 1:])
    # |0> couples to (|1> + |-1>)/sqrt(2) through both of its neighbours
    hop[..., 0] = -ej[..., 0] / math.sqrt(2.0)
    even = eigvals_tridiag(diag, hop)
    vals = np.sort(np.concatenate((even, odd), axis=-1), axis=-1)
    vals = vals[..., :n_levels]
    return vals - vals[..., :1]


def _converged_levels(ec: float, ej: float, n_levels: int
                      ) -> tuple[np.ndarray, int]:
    """Grow the charge cutoff until the two highest retained levels stop
    moving (relative 1e-9 under cut -> cut+5): (levels, cut)."""
    cut = max(_START_CHARGE_CUT, n_levels + 2)
    prev = _charge_levels(ec, ej, cut, n_levels)
    while cut + 5 <= _MAX_CHARGE_CUT:
        cut += 5
        cur = _charge_levels(ec, ej, cut, n_levels)
        scale = max(abs(cur[-1]), abs(cur[-2]), ec)
        if (abs(cur[-1] - prev[-1]) <= 1e-9 * scale
                and abs(cur[-2] - prev[-2]) <= 1e-9 * scale):
            return cur, cut
        prev = cur
    raise NumericalError(
        f"charge basis not converged at cut = {_MAX_CHARGE_CUT} "
        f"(ej/ec = {ej / ec:.3g})")


def diagonalize(ec: float, ej: float, n_levels: int = 5) -> np.ndarray:
    """Diagonalize the charge-basis Hamiltonian 4*E_C*n^2 - (E_J/2) *
    (|n><n+1| + h.c.), with E_C = ec > 0 and E_J = ej [Hz] at zero offset
    charge, and return the lowest n_levels >= 3 ground-referenced levels [Hz],
    ascending from levels[0] == 0: omega_q is levels[1] and the
    anharmonicity levels[2] - 2 levels[1]. The spectrum is even in ej.

    The truncation is auto-verified; raises NumericalError when the cap is
    reached.
    """
    return _converged_levels(ec, ej, n_levels)[0]


class FluxCurve:
    """omega_q as a function of effective E_J at fixed E_C: a Chebyshev
    interpolant in ln(E_J) on 48 nodes over ej/ec in [8, 2.2e4].

    The table takes one cut from a converged solve at the top of the range
    and solves all 48 nodes at it as one stack per parity block: 2 LAPACK
    calls, each node's levels equal to its own solve bit for bit. Each node
    keeps the lowest levels of the union of its even and odd blocks, whose
    levels interleave at zero offset charge.

    It matches exact solves to within 2e-13 relative over that range (the
    eigensolver's own rounding), at any E_C, and E_J outside the range is
    clipped to its ends. Exact solves go through diagonalize(); this class
    serves map evaluation and calibration.
    """

    def __init__(self, ec: float):
        self._ej_lo, self._ej_hi = (ec * r for r in _CURVE_EJ_OVER_EC)
        # one converged solve at the widest wavefunction fixes the cut
        cut = _converged_levels(ec, self._ej_hi, 3)[1]
        lo, hi = math.log(self._ej_lo), math.log(self._ej_hi)
        t = chebyshev.chebpts1(_CURVE_NODES)
        self._ln_ej = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        # math.exp: NumPy's SIMD exp can differ from it by an ulp
        ej = np.array([math.exp(le) for le in self._ln_ej])
        self._wq = _charge_levels(ec, ej, cut, 3)[:, 1]
        # interpolating coefficients from the discrete orthogonality of
        # T_k on the first-kind nodes
        coef = chebyshev.chebvander(t, _CURVE_NODES - 1).T @ self._wq
        coef *= 2.0 / _CURVE_NODES
        coef[0] *= 0.5
        self._series = chebyshev.Chebyshev(coef, domain=[lo, hi])
        self._slope = self._series.deriv()
        self.omega_range = tuple(self._series(self._series.domain))

    def omega_q(self, ej):
        """Interpolated qubit frequency [Hz]; accepts scalars or arrays."""
        return self._series(np.log(np.clip(ej, self._ej_lo, self._ej_hi)))

    def ln_ej_from_omega(self, omega_q_hz) -> np.ndarray:
        """ln(E_J) at which the interpolant equals each of omega_q_hz [Hz],
        a scalar or an array: Newton on the series for every target at
        once, from linear interpolation between the nodes. A target
        outside omega_range raises ConfigError."""
        w = np.asarray(omega_q_hz, dtype=float)
        w_lo, w_hi = self.omega_range
        off = ~((w_lo <= w) & (w <= w_hi))
        if off.any():
            raise ConfigError(
                f"qubit frequency {w[off][0] / 1e9:.4g} GHz outside the "
                f"flux curve's {w_lo / 1e9:.4g}-{w_hi / 1e9:.4g} GHz")
        # omega_q is strictly increasing in ej, so the nodes are sorted
        ln_ej = np.interp(w, self._wq, self._ln_ej)
        for _ in range(_ROOT_STEPS):
            ln_ej = ln_ej - (self._series(ln_ej) - w) / self._slope(ln_ej)
        return ln_ej


@functools.lru_cache(maxsize=16)
def flux_curve(ec: float) -> FluxCurve:
    return FluxCurve(ec)


def default_comb_qubits(omega_m: float, harmonic_indices, ec: float,
                        bias_targets=None) -> np.ndarray:
    """Calibrated comb qubits, all at charging energy ec [Hz]: their
    ej_max [Hz, per junction] as an array. Qubit i is sized so its
    cycle-averaged frequency sits on harmonic n_i of the comb (omega_m in
    rad/s) at a staggered DC bias, giving well-separated addressing peaks.

    Calibration is the flux curve's root, taken for every qubit at once:
    an exact solve at the calibrated E_J lands within 2e-13 relative of
    its harmonic. A qubit below ej_max/ec = 10, outside the transmon
    regime, raises ConfigError.
    """
    idx = list(harmonic_indices)
    if bias_targets is None:
        # lower bound 0.7: an rf amplitude up to ~0.85 scales the averaged
        # E_J by J0(0.425) ~ 0.955, and a qubit biased much below 0.65 can
        # then never climb back to its harmonic at any dc flux
        bias_targets = np.linspace(0.7, 1.2, len(idx))
    curve = flux_curve(ec)
    # Python floats: a huge harmonic index overflows no NumPy product
    targets = [n_i * omega_m / (2.0 * math.pi) for n_i in idx]
    try:
        ln_ej = curve.ln_ej_from_omega(targets)
    except ConfigError as exc:
        w_lo, w_hi = curve.omega_range
        n_i = next(n for n, w in zip(idx, targets) if not w_lo <= w <= w_hi)
        raise ConfigError(
            f"harmonic {n_i} at omega_m = {omega_m:.4g} rad/s and "
            f"ec = {ec:.4g} Hz: {exc}") from None
    ej_max = np.empty(len(idx))
    for q, (le, bias) in enumerate(zip(ln_ej, bias_targets)):
        ej_max[q] = math.exp(le) / (2.0 * math.cos(0.5 * bias))
        if not ej_max[q] > 0:
            raise ConfigError("ej_max must be positive")
        # the charge basis models zero offset charge, which holds only
        # where the charge dispersion is negligible
        if ej_max[q] / ec < 10:
            raise ConfigError(
                f"ec, harmonic, omega_m, ej_max: ej_max/ec = "
                f"{ej_max[q] / ec:.2f} < 10: outside the transmon regime")
    return ej_max


def addressing_map(array, phi_dc_grid, phi_rf_grid, ec: float, ej_max
                   ) -> np.ndarray:
    """Resonance-proximity scores over the flux-drive grid, shape
    (n_dc, n_rf, n_qubits), each in [0, 1].

    `array` supplies omega_m (rad/s) and harmonic_indices; `ec` [Hz] is
    the comb's charging energy and `ej_max` [Hz] holds one value per
    qubit. Score of qubit i at a grid point is
    exp(-(omega_bar - n_i*omega_m)^2/(2 SIGMA_RES^2)), omega_bar the
    qubit's cycle-averaged frequency [rad/s].
    """
    phi_dc = np.asarray(phi_dc_grid, dtype=float)
    phi_rf = np.asarray(phi_rf_grid, dtype=float)
    idx = list(array.harmonic_indices)
    curve = flux_curve(ec)
    score = np.empty((phi_dc.size, phi_rf.size, len(idx)))
    for q, (e_q, n_i) in enumerate(zip(ej_max, idx)):
        ej_bar = ej_time_averaged(e_q, phi_dc[:, None], phi_rf)
        det = 2.0 * math.pi * curve.omega_q(ej_bar) - n_i * array.omega_m
        score[:, :, q] = np.exp(-det ** 2 / (2.0 * SIGMA_RES ** 2))
    return score
