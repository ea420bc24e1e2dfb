"""Exception types raised by the pipeline stages, and the input opener
that turns a file that is not UTF-8 into one of them."""

from contextlib import contextmanager
from typing import Iterator, Optional, TextIO


class CovbiasError(Exception):
    """Base class for all package errors."""


class ConlluFormatError(CovbiasError):
    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line


class MetadataError(CovbiasError):
    pass


class RegistryError(CovbiasError):
    pass


class LexiconError(CovbiasError):
    pass


class GazetteerError(CovbiasError):
    pass


class ConfigError(CovbiasError):
    pass


class StageError(CovbiasError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class InputEncodingError(CovbiasError):
    pass


@contextmanager
def open_input(path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Open an input text file as UTF-8, dropping a leading byte-order mark.

    Bytes that are not UTF-8 are an `InputEncodingError` naming the file.
    The decoder reads in buffered chunks, so the message names no line.
    """
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputEncodingError(
                f"{path}: not UTF-8: cannot decode byte 0x{exc.object[exc.start]:02x}"
            ) from None
