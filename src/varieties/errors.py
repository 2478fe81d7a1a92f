"""Exception hierarchy shared across the package.

Validation-style failures (bad input files, bad configuration, violated
preconditions) derive from VarietiesError so the CLI can map them to exit
code 1; anything else is treated as a runtime failure (exit code 2).
"""


class VarietiesError(Exception):
    pass


class CorpusFormatError(VarietiesError):
    """Unparseable or invalid corpus input. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceError(VarietiesError):
    """Invalid word-list / phrase-list / rank-list resource file."""


class ConfigError(VarietiesError):
    """Invalid pipeline configuration."""


class DegenerateDataError(VarietiesError):
    """Input data carries no usable signal (e.g. zero variance for PCA)."""


class UntaggedTokenError(VarietiesError, ValueError):
    """A token without a POS tag where a POS reader needs every tag (POS
    trigrams, pronoun counts, POS language models)."""


class ConvergenceError(RuntimeError):
    """An iterative optimizer exhausted its budget before reaching tolerance."""
