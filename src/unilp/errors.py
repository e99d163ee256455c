"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.
"""

from numbers import Integral


class UnilpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(UnilpError):
    """Invalid parameters, shapes, or option combinations."""


class DataError(UnilpError):
    """Malformed or infeasible input data (files, graphs, splits)."""


class NumericError(UnilpError):
    """Non-finite values or numeric invariant violations."""


def check_int_fields(config, names) -> None:
    """ConfigError unless each named field of config holds an integer (a
    bool or a float such as 2.0 does not count)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
