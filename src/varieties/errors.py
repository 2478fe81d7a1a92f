"""Exception hierarchy shared across the package.

Validation-style failures (bad input files, bad configuration, violated
preconditions) derive from VarietiesError so the CLI can map them to exit
code 1; anything else is treated as a runtime failure (exit code 2). A
reader that meets bytes that are not UTF-8 raises its own validation error at
the line ``undecodable_line`` finds.
"""

from pathlib import Path


class VarietiesError(Exception):
    pass


class CorpusFormatError(VarietiesError):
    """Unparseable or invalid corpus input. Carries the offending line number
    and, once ``ingest`` names it, the file: ``path:line: message``."""

    def __init__(self, message: str, line: int | None = None, path: Path | None = None):
        self.reason, self.line, self.path = message, line, path
        if path is not None:
            message = f"{path}:{line}: {message}" if line is not None else f"{path}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceError(VarietiesError):
    """Invalid word-list / phrase-list / rank-list resource file."""


class ConfigError(VarietiesError):
    """Invalid pipeline configuration."""


class DegenerateDataError(VarietiesError, ValueError):
    """Input data carries no usable signal (e.g. zero variance for PCA or
    for the paired t-test)."""


class UntaggedTokenError(VarietiesError, ValueError):
    """A token without a POS tag where a POS reader needs every tag (POS
    trigrams, pronoun counts, POS language models)."""


class ConvergenceError(RuntimeError):
    """An iterative optimizer exhausted its budget before reaching tolerance."""


def undecodable_line(path: Path) -> int:
    """The first line of ``path`` that is not UTF-8, counted as a text-mode
    reader counts lines (universal newlines). For use once strict decoding
    has failed, as its ``UnicodeDecodeError`` names no line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return line_no
    raise ValueError(f"{path} is UTF-8 text")
