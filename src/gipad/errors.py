"""Exception hierarchy shared across the package, and `read_input`, the one
reader of the files the program did not write.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, InternalError -> 4. An input file that cannot be opened,
read or decoded is a DataError, and so is every fault its parser finds in
its bytes. No numpy here: the CLI reads its config file through this module
before --threads pins the BLAS thread pools.
"""


class GipadError(Exception):
    """Base class for all package errors."""


class ConfigError(GipadError):
    """Invalid configuration, incompatible shapes, or violated preconditions."""


class DataError(GipadError):
    """Missing, malformed, or inconsistent input data."""


class InternalError(GipadError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class UndefinedMetricError(DataError):
    """A metric or statistic has no defined value for the given inputs."""


def read_input(path, what, text=False):
    """The bytes of file `path`, or its UTF-8 text; DataError names `what`."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw.decode("utf-8") if text else raw
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
