"""Logarithmic probability codes: the 8-bit codes a logarithmic machine reads.

A probability p in (0, 1] is stored as an unsigned 8-bit integer n such that

    p ~ B ** (n / M)   with base B = 1/2 and M = 8,

so n = 0 means certainty and larger codes mean smaller probabilities.
One code step is a factor 2**(1/8), and the largest code TOP = 255 reaches
(1/2)**(255/8), about 2.5e-10.

Multiplication of probabilities is integer addition of codes, saturating
at TOP.  Comparison is reversed: the smaller code wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

M = 8  # code steps per halving of probability
TOP = 255  # the all-ones code
MIN_PROB = 2.0 ** (-TOP / M)  # smallest decodable probability


@dataclass(frozen=True)
class LogCode:
    """An encoded probability: code value n."""

    n: int

    def __post_init__(self):
        if not 0 <= self.n <= TOP:
            raise DomainError(f"log code {self.n} out of range 0..{TOP}")


def encode(p: float) -> LogCode:
    """Encode probability p to the nearest code; p = 0 clamps to TOP."""
    return LogCode(int(encode_array(p)))


def decode(code: LogCode) -> float:
    return 2.0 ** (-code.n / M)


def sat_add(a: LogCode, b: LogCode) -> LogCode:
    """Multiply the two encoded probabilities: add codes, saturate at TOP."""
    return LogCode(min(a.n + b.n, TOP))


def encode_array(p: np.ndarray) -> np.ndarray:
    """Vectorized encode for probability tables; returns uint16 codes.

    Half-way cases round away from zero (codes are never negative, so this
    is floor(x + 1/2)).  Probabilities outside [0, 1] or NaN raise
    DomainError.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("probabilities outside [0, 1] or not finite")
    out = np.full(p.shape, TOP, dtype=np.uint16)
    pos = p > 0.0
    raw = np.floor(-M * np.log2(p[pos]) + 0.5)
    out[pos] = np.clip(raw, 0, TOP).astype(np.uint16)
    return out


def decode_array(codes: np.ndarray) -> np.ndarray:
    return 2.0 ** (-np.asarray(codes, dtype=float) / M)
