"""covbias: gender-adjusted personalization analytics for parsed news corpora."""

__version__ = "0.1.0"
