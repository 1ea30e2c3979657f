"""Exception types shared across the package, and the rules for settings.

The CLI maps these onto exit codes: usage problems exit 2, data problems
exit 3, numeric failures exit 4.
"""

import contextlib
import numbers
import operator


class GbmPatchError(Exception):
    """Base class for all package errors."""


class DimensionError(GbmPatchError, ValueError):
    """Tensor or image shapes are incompatible with an operation."""


class ParameterError(GbmPatchError, ValueError):
    """An argument is outside its legal range (e.g. dropout rate >= 1)."""


class ContractError(GbmPatchError, ValueError):
    """A call violates an API contract (e.g. backward on a non-scalar)."""


class DataError(GbmPatchError, ValueError):
    """Input data is malformed: bad labels, unreadable files, bad manifests."""


class PpmParseError(DataError):
    """A PPM file failed to parse; message includes the byte offset."""


class StratificationError(DataError):
    """A class has too few samples to fill every fold."""


class NumericError(GbmPatchError, RuntimeError):
    """A numeric invariant broke at runtime (NaN/Inf where finite required)."""


def as_int(value, what: str, low=None) -> int:
    """``value`` as a Python int when it is an integer (Python or numpy)
    of at least ``low``, else ParameterError: a bool, a float or a string
    is no size, seed or count."""
    if type(value) is not bool:
        with contextlib.suppress(TypeError):
            number = operator.index(value)
            if low is not None and number < low:
                raise ParameterError(f"{what} must be >= {low}, got {number}")
            return number
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def as_real(value, what: str) -> float:
    """``value`` as a Python float when it is a real number (Python or
    numpy), else ParameterError: a bool, a string or None is no rate."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise ParameterError(f"{what} must be a real number, got {value!r}")
    return float(value)


def settle(config, ints: dict, reals=()):
    """Store a frozen config's number fields as Python numbers, so it
    always JSON-dumps: ``ints`` maps each integer field to its ``as_int``
    bound, and ``reals`` go through ``as_real``."""
    for name, low in ints.items():
        object.__setattr__(config, name, as_int(getattr(config, name), name, low))
    for name in reals:
        object.__setattr__(config, name, as_real(getattr(config, name), name))
