"""Shared test fixtures: the rf-driven line drive, its cw source and the
memory-kernel regime that the line and non-Markovian tests are written
against, four measures only the tests take (the total spatial harmonic
band power, the transmon's dispersive shift, the exact dephasing
contrasts and acceptance 10's stretched-exponent fit), two independent
oracles (the Jaynes-Cummings dispersive shift and the kernel's
population by direct quadrature), the error budget's arrays by name,
and the leaves of a config tree."""

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import j0

from fluxcomb import budget, line, nonmarkov, transmon
from fluxcomb.errors import ConfigError

TWO_PI = 2.0 * math.pi


def config_leaves(tree, path=""):
    """(dotted key, value) for every leaf of a config tree."""
    for key, value in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from config_leaves(value, here)
        else:
            yield here, value


def named_budget(array: budget.QubitArraySpec,
                 model: budget.BusIsolationModel) -> SimpleNamespace:
    """budget.full_budget's per-qubit arrays, by name in its order."""
    return SimpleNamespace(**dict(zip(
        ("omega", "gamma_purcell", "t1_eff", "t2_eff", "e_relax",
         "e_dephase", "e_crosstalk", "e_total"),
        budget.full_budget(array, model), strict=True)))


def default_drive(phi_dc: float, phi_rf: float,
                  geom: line.LineGeometry) -> line.FluxDrive:
    """Three modulation periods along the line, modulated at the 3 GHz
    excitation tone."""
    return line.FluxDrive(
        phi_dc_tilde=phi_dc, phi_rf_tilde=phi_rf,
        kappa_s=TWO_PI * 3.0 / geom.length, omega_s=TWO_PI * 3e9)


def cw_source(amp: float = 1e-6) -> line.SourceSpec:
    """A continuous wave at the 3 GHz excitation tone, from the left port
    with the default ramp."""
    return line.SourceSpec(kind="continuous-wave", omega=TWO_PI * 3e9,
                           amplitude=amp)


def memory_kernel() -> tuple[float, float]:
    """The packaged nonmarkov kernel, (amplitude_a, gamma_memory): the
    decay rate transiently turns negative within the first 100 ns."""
    gamma_mem = TWO_PI * 5e6
    return 4.0 * gamma_mem ** 2, gamma_mem


def exact_contrasts(models, tau) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble means that nonmarkov.dephasing estimates, (ramsey,
    echo), each (len(models), len(tau)). A trajectory is a sum of tones
    a_k cos(w_k t + phi_k) with independent uniform phases, so the mean
    of exp(i Phi(tau)) is prod_k J0(B_k) (Abramowitz and Stegun 9.1.21),
    with B_k = (2 a_k / w_k) |sin(w_k tau / 2)| for Ramsey and
    B_k = (a_k / w_k) |exp(i w_k tau / 2) - 1|^2 for the echo."""
    tau = np.asarray(tau, dtype=float)[:, None]
    out = np.empty((2, len(models), tau.size))
    for m, model in enumerate(models):
        f_k, a_k = nonmarkov._tones(model)
        w = TWO_PI * f_k
        b_ramsey = (2.0 * a_k / w) * np.abs(np.sin(0.5 * w * tau))
        b_echo = (a_k / w) * np.abs(np.exp(0.5j * w * tau) - 1.0) ** 2
        out[:, m] = [np.prod(j0(b), axis=1) for b in (b_ramsey, b_echo)]
    return out[0], out[1]


def fit_beta(tau: np.ndarray, y: np.ndarray) -> float:
    """Acceptance 10's stretched exponent of a contrast curve: the fit of
    the points between 0.25 and 0.85, clipped at 1."""
    m = (y > 0.25) & (y < 0.85)
    return nonmarkov.fit_decay(tau[m], np.minimum(y[m], 1.0))[1]


def harmonic_band_power(i: np.ndarray, sim: line.Simulator, n_max: int = 6,
                        half_width: int = 2) -> float:
    """Total spatial power of one snapshot's branch current i summed over
    the bands around harmonics 2..n_max of kappa_1 = omega / v_dc.

    Band sums (not per-band maxima) so the value tracks converted energy
    smoothly in time; used for development-rate comparisons."""
    k1 = sim.sources[0].omega / sim.v_dc
    kappas = TWO_PI * np.fft.rfftfreq(sim.geom.n_cells, sim.geom.dz)
    bands = line._bands(i, kappas, [h * k1 for h in range(2, n_max + 1)],
                        half_width)
    return sum(float(np.sum(band)) for band in bands)


@dataclass
class ReadoutSpec:
    omega_r: float            # resonator frequency [Hz]
    g_r: float                # qubit-resonator coupling [Hz]

    def __post_init__(self):
        if self.omega_r <= 0 or self.g_r < 0:
            raise ConfigError("omega_r must be positive, g_r nonnegative")


def chi_dispersive(ec: float, ej: float, readout: ReadoutSpec) -> float:
    """Dispersive shift chi = (g^2/Delta)*(1 + alpha/Delta), Hz, with
    Delta = omega_q - omega_r and alpha from diagonalization at E_C = ec
    and E_J = ej [Hz]."""
    levels = transmon.diagonalize(ec, ej)
    delta = levels[1] - readout.omega_r
    if delta == 0.0:
        raise ConfigError("qubit degenerate with resonator (Delta = 0)")
    if readout.g_r / abs(delta) > 0.1:
        warnings.warn(
            f"g/|Delta| = {readout.g_r / abs(delta):.3f} > 0.1: dispersive "
            "approximation degrading", stacklevel=2)
    alpha = levels[2] - 2.0 * levels[1]
    return (readout.g_r ** 2 / delta) * (1.0 + alpha / delta)


def jc_chi(nu_q, nu_r, g, n_ph=40):
    """Two-level atom + resonator oracle: full diagonalization, chi from the
    dressed resonator frequencies in the two qubit states."""
    dim = 2 * n_ph
    H = np.zeros((dim, dim))
    for n in range(n_ph):
        H[2 * n, 2 * n] = n * nu_r
        H[2 * n + 1, 2 * n + 1] = n * nu_r + nu_q
        if n + 1 < n_ph:
            i, j = 2 * n + 1, 2 * (n + 1)
            H[i, j] = H[j, i] = g * math.sqrt(n + 1)
    w, v = np.linalg.eigh(H)

    def dressed(bare_index):
        return w[np.argmax(np.abs(v[bare_index, :]))]

    e_g0, e_e0 = dressed(0), dressed(1)
    e_g1, e_e1 = dressed(2), dressed(3)
    return ((e_e1 - e_e0) - (e_g1 - e_g0)) / 2.0


def quadrature_population(kernel, t_grid):
    """Independent check for the kernel (A, Gamma): integrate
    c'(t) = -(A/2) I(t) with
    I(t) = int_0^t exp(-Gamma (t - tau)) c(tau) dtau directly, using a
    trapezoid predictor-corrector and an exponentially-updated running
    integral. O(h^2); no auxiliary (c, w) embedding.
    """
    t = np.asarray(t_grid, dtype=float)
    amplitude_a, gm = kernel
    a_half = 0.5 * amplitude_a
    c = 1.0
    integ = 0.0
    out = np.empty(t.size)
    out[0] = c * c
    for k in range(t.size - 1):
        h = t[k + 1] - t[k]
        decay = np.exp(-gm * h)
        c_pred = c + h * (-a_half * integ)
        i_pred = decay * (integ + 0.5 * h * c) + 0.5 * h * c_pred
        c_new = c + 0.5 * h * (-a_half * integ - a_half * i_pred)
        integ = decay * (integ + 0.5 * h * c) + 0.5 * h * c_new
        c = c_new
        out[k + 1] = c * c
    return out
