"""Exception hierarchy shared across the package, and the one reader and one
writer of files: `read_input` for the files the program did not write,
`write_output` for every file it writes.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
InternalError -> 4. A file that cannot be read, decoded or written is a
DataError, and so is every fault a parser finds in its bytes. No numpy
here: the CLI uses this module before --threads pins the BLAS thread pools.
"""

import os


class GipadError(Exception):
    """Base class for all package errors."""


class ConfigError(GipadError):
    """Invalid configuration, incompatible shapes, or violated preconditions."""


class DataError(GipadError):
    """Missing, malformed, or inconsistent input data, or an unwritable output."""


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


def write_output(path, chunks):
    """Write bytes-like `chunks` unjoined to `<path>.<pid>.tmp`, then replace file `path`
    (a symlink's target) with that; after a fault the temporary file is gone and a
    DataError names `path`. No fsync: whole against faults of the process, not power loss."""
    target = os.path.realpath(path) if os.path.islink(path) else path
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):  # after a fault
            os.remove(tmp)
