"""Exception types shared across the package."""
from __future__ import annotations

from typing import IO


class DistgapsError(Exception):
    """Base class for package errors."""


class ConfigError(DistgapsError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class InvariantViolation(DistgapsError):
    """A run-record or construction invariant failed (CLI exit code 1)."""


class DegenerateRegionError(DistgapsError):
    """Rejection sampling acceptance rate collapsed (region/bbox mismatch)."""


class ConvergenceError(DistgapsError):
    """Monte Carlo error target not met at the requested effort."""


class SpectrumSizeError(DistgapsError):
    """Pair count exceeds the configured hard cap."""


class AuditError(DistgapsError):
    """Internal contradiction in the witness audit (non-empty witness)."""


def open_input(path: str, mode: str = "r") -> IO:
    """Open a file named by the user for reading; a missing file, a
    directory or a file it may not read is a ConfigError naming it."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
