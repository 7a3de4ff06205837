"""Error types shared across the simulator, and the file conventions every
loader and writer goes through: text and JSON readers, the one JSON
layout, versioned documents and ``# bayesim-<tag>`` header lines.

Validation-type errors (bad arguments, malformed files, mismatched shapes)
all derive from ValidationError so the CLI can map them to exit code 2.
Anything else escaping to the CLI is a runtime failure (exit code 1).
"""

import json
from pathlib import Path

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


def write_json(path, doc) -> None:
    """Write ``doc`` as every JSON artifact is written: indent 2, sorted keys,
    a final newline, and numpy arrays and scalars as plain lists and numbers."""
    Path(path).write_text(json_text(doc))


def json_text(doc) -> str:
    """The text `write_json` writes."""
    return json.dumps(doc, indent=2, sort_keys=True, default=lambda v: v.tolist()) + "\n"


def read_versioned(text: str, source, version: int, what: str, build):
    """``build(doc)`` of the JSON object in ``text``, which must hold
    ``"version": version`` as a JSON integer (not ``true`` or ``1.0``).  A
    builder's KeyError, TypeError, ValueError or OverflowError becomes a
    FormatError naming ``source``; a ValidationError passes unchanged."""
    doc = parse_json(text, source)
    found = doc.get("version") if isinstance(doc, dict) else None
    if type(found) is not int or found != version:
        raise FormatError(f"{source}: not a version-{version} {what}")
    try:
        return build(doc)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{source}: bad {what} ({exc})") from exc


def parse_header(line: str):
    """``(name, fields)`` of a ``# bayesim-<tag> key=value ...`` header line,
    the fields as text; None for any other line."""
    toks = line.split()
    if len(toks) < 2 or toks[0] != "#" or not toks[1].startswith("bayesim"):
        return None
    return toks[1], dict(tok.partition("=")[::2] for tok in toks[2:])
