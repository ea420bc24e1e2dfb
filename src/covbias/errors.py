"""Exception types raised by the pipeline stages, and the input opener
that turns a file that is not UTF-8 into one of them.

Every defect in an input file is an `InputError`, raised by the reader of
that file and naming the file and, but for an undecodable file, the line.
"""

from contextlib import contextmanager
from typing import Iterator, Optional, TextIO


class CovbiasError(Exception):
    """Base class for all package errors."""


class InputError(CovbiasError):
    """A defect in an input file: `{path}: line {line}: {message}`, or
    `{path}: {message}` when `line` is None."""

    def __init__(self, path, line: Optional[int], message: str):
        where = f"{path}" if line is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class ConfigError(CovbiasError):
    pass


class StageError(CovbiasError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def open_input(path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Open an input text file as UTF-8, dropping a leading byte-order mark.

    Bytes that are not UTF-8 are an `InputError` naming the file. The
    decoder reads in buffered chunks, so the error names no line.
    """
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(
                path, None, f"not UTF-8: cannot decode byte 0x{exc.object[exc.start]:02x}"
            ) from None
