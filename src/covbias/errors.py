"""Exception types raised by the pipeline stages."""


class CovbiasError(Exception):
    """Base class for all package errors."""


class ConlluFormatError(CovbiasError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
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
