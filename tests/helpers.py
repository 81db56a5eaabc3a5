"""Shared test fixtures: the rf-driven line drive and the memory-kernel
regime that the line and non-Markovian tests are written against, two
measures only the tests take (the total spatial harmonic band power and
the transmon's dispersive shift), the error budget's arrays by name, and
the leaves of a config tree."""

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from fluxcomb import budget, line, transmon
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


def memory_kernel() -> tuple[float, float]:
    """The packaged nonmarkov kernel, (amplitude_a, gamma_memory): the
    decay rate transiently turns negative within the first 100 ns."""
    gamma_mem = TWO_PI * 5e6
    return 4.0 * gamma_mem ** 2, gamma_mem


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
