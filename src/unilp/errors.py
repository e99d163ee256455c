"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.
"""

import math
from numbers import Integral, Real


class UnilpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(UnilpError):
    """Invalid parameters, shapes, or option combinations."""


class DataError(UnilpError):
    """Malformed or infeasible input data (files, graphs, splits)."""


class NumericError(UnilpError):
    """Non-finite values or numeric invariant violations."""


def check_number_fields(config, ints=(), reals=()) -> None:
    """ConfigError unless each field of config named in ints holds an
    integer and each named in reals a finite real number. A bool counts as
    neither, a float such as 2.0 is not an integer, NaN and infinities are
    rejected, and NumPy numbers count."""
    for names, kind, noun in ((ints, Integral, "an integer"), (reals, Real, "a finite real number")):
        for name in names:
            value = getattr(config, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or (kind is Real and not math.isfinite(value))):
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
