"""Exceptions that fluxcomb raises on purpose. The CLI maps them onto
exit codes, one class each: ConfigError -> 2, NumericalError -> 3, plain
OSError -> 4. A library ConfigError's message starts with the name of
the field it concerns, which the CLI maps to the field's dotted config
key. A message echoes a value through shown(), cut to a readable length.
"""

SHOWN = 200     # characters of an echoed value
_BRACKETS = {list: "[]", tuple: "()", dict: "{}"}


def _pieces(value):
    """repr(value) in pieces: a list, tuple or dict, at every nesting
    level, one item at a time, so a reader can stop at any length without
    rendering the rest."""
    brackets = _BRACKETS.get(type(value))
    if brackets is None:
        yield repr(value)
        return
    yield brackets[0]
    is_dict = type(value) is dict
    for i, item in enumerate(value.items() if is_dict else value):
        if i:
            yield ", "
        if is_dict:
            yield from _pieces(item[0])
            yield ": "
            item = item[1]
        yield from _pieces(item)
    if type(value) is tuple and len(value) == 1:
        yield ","
    yield brackets[1]


def shown(value) -> str:
    """repr(value), cut to its first SHOWN characters. A list, tuple or
    dict is rendered only until it passes the cut, at every nesting level
    (each level spends one bracket of the cut, so a deep one stops there
    too), and its cut text ends with its own item count."""
    text = ""
    for piece in _pieces(value):
        text += piece
        if len(text) > SHOWN:
            break
    else:
        return text
    size = (f"{len(value)} items" if type(value) in _BRACKETS
            else f"{len(text)} characters")
    return f"{text[:SHOWN]}... ({size})"


class ConfigError(Exception):
    """Invalid input: unknown config keys, a value of the wrong type or
    outside its one-key bound, or a library guard on values tied together
    or derived (e.g. the flux excursion's secant margin, or a value that
    would leave float range)."""


class NumericalError(Exception):
    """Runtime numerical failure: field blowup, an isolation run with no
    band power at a harmonic, or an iterative method that did not converge
    (a LAPACK eigensolve, the charge-basis growth or fit iterations)."""
