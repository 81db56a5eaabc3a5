"""fluxcomb: space-time-modulated transmission line simulator with a
frequency-comb qubit error model."""

__version__ = "0.1.0"

# the line has one stepper, in NumPy (line.Simulator); BACKEND names it
# for tools that record the run environment
BACKEND = "python"
