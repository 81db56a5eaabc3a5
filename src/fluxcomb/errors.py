"""Exception taxonomy shared by all fluxcomb modules.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError -> 3,
plain OSError -> 4.
"""


class SimulationError(Exception):
    """Base class for everything fluxcomb raises on purpose."""


class ConfigError(SimulationError):
    """Invalid input: bad parameter values, unknown config keys, guard
    violations (e.g. the inductance secant margin)."""


class NumericalError(SimulationError):
    """Runtime numerical failure: field blowup, trace drift, step-size
    violations."""


class ConvergenceError(NumericalError):
    """Iterative method exhausted its budget or failed to converge (a LAPACK
    eigensolve failure, basis truncation growth, calibration or fit
    iterations)."""
