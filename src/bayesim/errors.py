"""Error types shared across the simulator, and the text and JSON readers
every loader goes through.

Validation-type errors (bad arguments, malformed files, mismatched shapes)
all derive from ValidationError so the CLI can map them to exit code 2.
Anything else escaping to the CLI is a runtime failure (exit code 1).
"""

import json

import numpy as np


class ValidationError(ValueError):
    """Base for errors caused by bad inputs rather than bugs."""


class DomainError(ValidationError):
    """Argument outside the mathematically valid domain."""


class ConfigError(ValidationError):
    """Inconsistent or unsupported machine/task configuration."""


class TrainingError(ValidationError):
    """Model fitting failed (too few samples, wrong sign, ...)."""


class FormatError(ValidationError):
    """Malformed serialized artifact (image, model, dataset, config)."""


def check_int(name: str, value, lo: int | None = None) -> int:
    """``value`` as an int; a bool, a float or any other non-integer, or a
    value below ``lo``, raises ConfigError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    return int(value)


def read_text(path) -> str:
    """The UTF-8 text of a file, line ends untouched; other bytes raise
    FormatError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def parse_json(text: str, source):
    """The JSON document in ``text``; malformed JSON raises FormatError
    naming ``source`` and the line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}:{exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError(f"{source}: JSON nested too deeply") from exc
