"""Shared test fixtures: the rf-driven line drive and the memory-kernel
regime that the line and non-Markovian tests are written against."""

import math

from fluxcomb import line, nonmarkov

TWO_PI = 2.0 * math.pi


def default_drive(phi_dc: float, phi_rf: float,
                  geom: line.LineGeometry) -> line.FluxDrive:
    """Three modulation periods along the line, modulated at the 3 GHz
    excitation tone."""
    return line.FluxDrive(
        phi_dc_tilde=phi_dc, phi_rf_tilde=phi_rf,
        kappa_s=TWO_PI * 3.0 / geom.length, omega_s=TWO_PI * 3e9)


def memory_kernel() -> nonmarkov.KernelSpec:
    """The packaged nonmarkov kernel: the decay rate transiently turns
    negative within the first 100 ns."""
    gamma_mem = TWO_PI * 5e6
    return nonmarkov.KernelSpec(amplitude_a=4.0 * gamma_mem ** 2,
                                gamma_memory=gamma_mem,
                                markovian_gamma=gamma_mem / 100.0)
