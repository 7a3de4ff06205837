"""Stochastic (bitstream) probability codes and the sampling inference loop.

A probability is held as a plain k-bit integer v with P = v / 2**k.  Each
cycle every stored code is turned into one Bernoulli bit by comparing a
fresh uniform draw against v; AND-ing the bits of a row multiplies the
probabilities, and per-row counters accumulate the resulting fire events.

Two run strategies:

* ``conventional``   run exactly ``budget`` cycles, winner is the row with
  the highest counter.
* ``power_conscious`` stop at the first cycle in which any row fires and
  pick among the rows that fired; if nothing fires within the budget,
  fall back to a tie over all rows.

RNG sharing is configurable: ``column_shared`` draws one uniform per
column per cycle (all rows of a column see the same draw, as one RNG per
column would in hardware), ``per_cell`` draws independently per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

STRATEGIES = ("conventional", "power_conscious")
RNG_MODES = ("column_shared", "per_cell")
TIE_BREAKS = ("random", "lowest")


@dataclass(frozen=True)
class LinearCode:
    """A linearly quantized probability: P = v / 2**k."""

    v: int
    k: int = 8

    def __post_init__(self):
        if self.k not in (8, 16):
            raise DomainError(f"unsupported linear code width {self.k}")
        if not 0 <= self.v < (1 << self.k):
            raise DomainError(f"linear code {self.v} out of range for width {self.k}")

    @property
    def probability(self) -> float:
        return self.v / (1 << self.k)


def quantize_linear(p: float, k: int = 8) -> LinearCode:
    """Round p * 2**k to the nearest code; exact 1.0 clamps to 2**k - 1."""
    return LinearCode(int(quantize_linear_array(p, k)), k)


def quantize_linear_array(p: np.ndarray, k: int = 8) -> np.ndarray:
    """Vectorized quantize for probability tables; returns uint16 codes.

    Half-way cases round away from zero.  Widths other than 8 or 16 bits,
    and probabilities outside [0, 1] or NaN, raise DomainError.
    """
    if k not in (8, 16):
        raise DomainError(f"unsupported linear code width {k}")
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("probabilities outside [0, 1] or not finite")
    v = np.floor(p * (1 << k) + 0.5)
    return np.minimum(v, (1 << k) - 1).astype(np.uint16)


def draw_bit(code: LinearCode, r: int) -> int:
    """One Bernoulli bit from a uniform draw r in [0, 2**k)."""
    if not 0 <= r < (1 << code.k):
        raise DomainError(f"draw {r} outside [0, 2**{code.k})")
    return 1 if r < code.v else 0


@dataclass
class StochasticRunResult:
    counters: np.ndarray  # per-row fire counts over the cycles actually run
    cycles_run: int
    winner: int
    stopped_early: bool


def _pick(rng: np.random.Generator, candidates: np.ndarray, tie_break: str) -> int:
    if tie_break == "lowest" or len(candidates) == 1:
        return int(candidates[0])
    return int(candidates[rng.integers(0, len(candidates))])


def run_stochastic(
    image,
    obs,
    budget: int,
    strategy: str = "conventional",
    rng_mode: str = "column_shared",
    seed=0,
    tie_break: str = "random",
) -> StochasticRunResult:
    """Run one stochastic inference on a linear-code memory image.

    ``image`` is a linear-code MemoryImage; ``obs`` gives one value address
    per column.  Memory is read once up front (``image.latch``) and the
    latched codes are reused every cycle.  ``seed`` may be an int or an
    existing numpy Generator (so a caller stepping a sequence can keep one
    stream across steps).
    """
    if image.kind != "linear":
        raise ConfigError("stochastic run needs a linear-code image")
    if budget < 1:
        raise ConfigError(f"cycle budget must be >= 1, got {budget}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if rng_mode not in RNG_MODES:
        raise ConfigError(f"unknown rng mode {rng_mode!r}")
    if tie_break not in TIE_BREAKS:
        raise ConfigError(f"unknown tie break {tie_break!r}")

    latched = image.latch(obs)  # (R, C)
    rows, cols = latched.shape

    rng = np.random.default_rng(seed)
    span = 1 << image.width
    if rng_mode == "column_shared":
        draws = rng.integers(0, span, size=(budget, 1, cols), dtype=np.uint32)
    else:
        draws = rng.integers(0, span, size=(budget, rows, cols), dtype=np.uint32)
    row_fire = (draws < latched[np.newaxis, :, :]).all(axis=2)  # (budget, R)

    if strategy == "conventional":
        counters = row_fire.sum(axis=0, dtype=np.int64)
        best = np.flatnonzero(counters == counters.max())
        return StochasticRunResult(counters, budget, _pick(rng, best, tie_break), False)

    fired_cycles = np.flatnonzero(row_fire.any(axis=1))
    if fired_cycles.size == 0:
        counters = row_fire.sum(axis=0, dtype=np.int64)  # all zero
        winner = _pick(rng, np.arange(rows), tie_break)
        return StochasticRunResult(counters, budget, winner, False)
    t = int(fired_cycles[0])
    counters = row_fire[: t + 1].sum(axis=0, dtype=np.int64)
    winner = _pick(rng, np.flatnonzero(row_fire[t]), tie_break)
    return StochasticRunResult(counters, t + 1, winner, True)
