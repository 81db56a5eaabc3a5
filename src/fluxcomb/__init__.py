"""fluxcomb: space-time-modulated transmission line simulator with a
frequency-comb qubit error model."""

__version__ = "0.1.0"

# the line has one stepper, in NumPy (line.Simulator); BACKEND names it
# for tools that record the run environment
BACKEND = "python"

from .errors import (  # noqa: F401
    ConfigError,
    ConvergenceError,
    NumericalError,
    SimulationError,
)
from .line import (  # noqa: F401
    FluxDrive,
    LineGeometry,
    Simulator,
    SourceSpec,
    build_line,
    isolation_report,
    spatial_harmonics,
    temporal_harmonics,
    wavepacket_metrics,
)
from .transmon import (  # noqa: F401
    TransmonSpec,
    default_comb_qubits,
    diagonalize,
    ej_time_averaged,
)
from .budget import (  # noqa: F401
    BusIsolationModel,
    QubitArraySpec,
    full_budget,
    nonreciprocal_bus,
    reciprocal_bus,
    scalability_sweep,
)
from .nonmarkov import (  # noqa: F401
    KernelSpec,
    NoiseModel,
    averaged_periodogram,
    dephasing,
    evolve_kernel,
    evolve_markovian,
    fit_decay,
    gamma_eff,
    synthesize_noise,
)
