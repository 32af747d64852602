"""Shared exception types, `require`, and `read_input` and `split_lines`,
the input files' reader and their one line rule."""

from pathlib import Path


class MemassocError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(MemassocError, ValueError):
    """An operation received input outside its documented contract."""


class InvalidStartError(MemassocError, RuntimeError):
    """An iterative routine could not be started from the supplied point."""


class ConfigError(MemassocError, ValueError):
    """An experiment config file is malformed; the message names the line."""


class DataError(MemassocError, ValueError):
    """An external data file is missing, unreadable, or malformed, or a
    run's values leave the float range."""


def require(obj: object, *checks: tuple[str, bool, str]) -> None:
    """Raise `InvalidInputError("<field> must <need>, got <value>")` for the
    first (field, ok, need) check on `obj` that failed.

    Messages name their field first: the config parser reports an error at
    the line of the key whose field the message names.
    """
    for name, ok, need in checks:
        if not ok:
            raise InvalidInputError(f"{name} must {need}, got {getattr(obj, name)!r}")


def read_input(path: Path, error: type[MemassocError], *,
               text: bool = True) -> str | bytes:
    """The file at `path` as UTF-8 text (newlines kept as they are), or its
    bytes when not `text`.  An `OSError`, a path the file system cannot
    encode (a lone surrogate, which only a manifest can carry), or bytes
    that are not UTF-8 raise `error` naming the path, and for bytes the
    first bad byte's offset."""
    try:
        # `open` skips about 4 us of `Path.read_bytes` dispatch per file
        with open(path, "rb") as fh:
            blob = fh.read()
    except UnicodeEncodeError as exc:
        raise error(f"{path}: path cannot be encoded: {exc.reason}") from exc
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    try:
        return blob.decode() if text else blob
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                    f"at offset {exc.start}") from exc


def split_lines(text: str) -> list[str]:
    """`text`'s lines, broken at CR, LF and CRLF only: the breaks the csv
    module counts in a trace, so every reader numbers lines alike
    (`str.splitlines` also breaks at \\v, \\f, \\x1c-\\x1e, \\x85, U+2028
    and U+2029).  A CRLF is one break, so it becomes LF before a lone CR."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
