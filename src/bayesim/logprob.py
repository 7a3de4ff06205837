"""Logarithmic probability codes.

A probability p in (0, 1] is stored as an unsigned integer n such that

    p ~ B ** (n / m)   with base B = 1/2,

so n = 0 means certainty and larger codes mean smaller probabilities.
The 8-bit flavor uses m = 8: one code step is a factor 2**(1/8), and the
largest code 255 reaches (1/2)**(255/8), about 2.5e-10.  The 16-bit flavor
keeps the same range by scaling m with the extra bits (m = 2048), so it
refines resolution instead of extending range.

Multiplication of probabilities is integer addition of codes, saturating
at the maximum code.  Comparison is reversed: the smaller code wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

WIDTHS = (8, 16)

# code-units per factor of 1/2, by width
_SCALE = {8: 8, 16: 2048}


def scale(width: int) -> int:
    """Return m, the number of code steps per halving of probability."""
    if width not in _SCALE:
        raise DomainError(f"unsupported log code width {width}, expected one of {WIDTHS}")
    return _SCALE[width]


def max_code(width: int) -> int:
    return (1 << width) - 1


def min_prob(width: int = 8) -> float:
    """Smallest decodable probability (the all-ones code)."""
    return 2.0 ** (-max_code(width) / scale(width))


@dataclass(frozen=True)
class LogCode:
    """An encoded probability: value n on a width-bit scale."""

    n: int
    width: int = 8

    def __post_init__(self):
        scale(self.width)
        if not 0 <= self.n <= max_code(self.width):
            raise DomainError(f"log code {self.n} out of range for width {self.width}")


def encode(p: float, width: int = 8) -> LogCode:
    """Encode probability p to the nearest code; p = 0 clamps to the max code."""
    return LogCode(int(encode_array(p, width)), width)


def decode(code: LogCode) -> float:
    return 2.0 ** (-code.n / scale(code.width))


def sat_add(a: LogCode, b: LogCode) -> LogCode:
    """Multiply the two encoded probabilities: add codes, saturate at the top."""
    if a.width != b.width:
        raise DomainError(f"width mismatch {a.width} vs {b.width}")
    return LogCode(min(a.n + b.n, max_code(a.width)), a.width)


def encode_array(p: np.ndarray, width: int = 8) -> np.ndarray:
    """Vectorized encode for probability tables; returns uint16 codes.

    Half-way cases round away from zero (codes are never negative, so this
    is floor(x + 1/2)).  Unsupported widths, and probabilities outside
    [0, 1] or NaN, raise DomainError.
    """
    m = scale(width)
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("probabilities outside [0, 1] or not finite")
    top = max_code(width)
    out = np.full(p.shape, top, dtype=np.uint16)
    pos = p > 0.0
    raw = np.floor(-m * np.log2(p[pos]) + 0.5)
    out[pos] = np.clip(raw, 0, top).astype(np.uint16)
    return out


def decode_array(codes: np.ndarray, width: int = 8) -> np.ndarray:
    return 2.0 ** (-np.asarray(codes, dtype=float) / scale(width))
