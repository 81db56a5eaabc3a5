"""Exceptions that fluxcomb raises on purpose. The CLI maps them onto
exit codes, one class each: ConfigError -> 2, NumericalError -> 3, plain
OSError -> 4. A library ConfigError's message starts with the name of
the field it concerns, which the CLI maps to the field's dotted config
key. A message echoes a value through shown(), cut to a readable length.
"""

from itertools import islice

SHOWN = 200     # characters of an echoed value


def shown(value) -> str:
    """repr(value), cut to its first SHOWN characters. Of a list, tuple or
    dict only the first SHOWN items are rendered, which pass the cut."""
    sized = type(value) in (list, tuple, dict)
    text = repr(dict(islice(value.items(), SHOWN)) if type(value) is dict
                else value[:SHOWN] if sized else value)
    size = f"{len(value)} items" if sized else f"{len(text)} characters"
    return text if len(text) <= SHOWN else f"{text[:SHOWN]}... ({size})"


class ConfigError(Exception):
    """Invalid input: unknown config keys, a value of the wrong type or
    outside its one-key bound, or a library guard on values tied together
    or derived (e.g. the flux excursion's secant margin, or a value that
    would leave float range)."""


class NumericalError(Exception):
    """Runtime numerical failure: field blowup, an isolation run with no
    band power at a harmonic, or an iterative method that did not converge
    (a LAPACK eigensolve, the charge-basis growth, calibration or fit
    iterations)."""
