"""Shared exception types for the simulator."""


class MemassocError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(MemassocError, ValueError):
    """An operation received input outside its documented contract."""


class InvalidStartError(MemassocError, RuntimeError):
    """An iterative routine could not be started from the supplied point."""


class ConfigError(MemassocError, ValueError):
    """An experiment config file is malformed; the message names the line."""


class DataError(MemassocError, ValueError):
    """An external data file is missing, unreadable, or malformed."""


def require(obj: object, *checks: tuple[str, bool, str]) -> None:
    """Raise `InvalidInputError("<field> must <need>, got <value>")` for the
    first (field, ok, need) check on `obj` that failed.

    Messages name their field first: the config parser reports an error at
    the line of the key whose field the message names.
    """
    for name, ok, need in checks:
        if not ok:
            raise InvalidInputError(f"{name} must {need}, got {getattr(obj, name)!r}")
