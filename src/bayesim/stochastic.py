"""Stochastic (bitstream) probability codes and the sampling inference kernel.

A probability is held as a plain k-bit integer v with P = v / 2**k.  Each
cycle every stored code is turned into one Bernoulli bit by comparing a
fresh uniform draw against v; AND-ing the bits of a row multiplies the
probabilities, and per-row counters accumulate the resulting fire events.
`run_stochastic` simulates a whole batch (N, C) of independent presentations
in one call and returns an `InferenceResult`, the result type of every
machine call.

Two run strategies, both breaking ties by a uniform pick among the tied rows:

* ``conventional``   run exactly ``budget`` cycles, winner is the row with
  the highest counter.
* ``power_conscious`` stop at the first cycle in which any row fires and
  pick among the rows that fired; if nothing fires within the budget,
  fall back to a tie over all rows.

Every cycle draws one uniform per column: all rows of a column see the
same draw, as one RNG per column would in hardware.  Cycles are
independent, so a run is drawn from the exact per-cycle law of the fired
rows (`mask_law`; a product of per-row rates would be wrong, since the
rows of a column share its draw): `decide` draws a power-conscious run's
stop cycle and fired mask, and `tally` a conventional run's counters as
one multinomial over the masks.  A law has 2**rows masks, so a linear
image holds at most `LAW_MAX_ROWS` rows (`machine.MemoryImage` refuses
more).  Batches run power-conscious from the law and conventional through
`sample`'s cycle kernel, which draws the uniforms cycle by cycle as an
(N, budget, C) block of integers of the codes' width and counts each row's
fires over contiguous cycles; filters run both strategies from their
(step, previous winner) pairs' law.  Runs over one presentation set can
share one `plan`: its codes and this law, built in `RunPlan.parts` of at
most `LAW_MAX` entries (kept if one part).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import energy
from .errors import ConfigError, DomainError, check_int

STRATEGIES = ("conventional", "power_conscious")
WIDTHS = (8, 16)  # linear code widths
LAW_MAX_ROWS = 12  # a law has 2**rows masks; a linear image holds at most this many rows
LAW_MAX = 1 << 22  # entries of one law: (law rows) * 2**rows
MAX_BUDGET = 1 << 53  # a power-conscious stop cycle is a float64, exact up to here
KERNEL_MAX_DRAWS = 1 << 28  # entries of one cycle-kernel array: N * budget * max(C, R)


def quantize_linear_array(p: np.ndarray, k: int = 8) -> np.ndarray:
    """Vectorized quantize for probability tables; returns uint16 codes.

    Half-way cases round away from zero.  Widths other than 8 or 16 bits,
    and probabilities outside [0, 1] or NaN, raise DomainError.
    """
    if k not in WIDTHS:
        raise DomainError(f"unsupported linear code width {k}")
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("probabilities outside [0, 1] or not finite")
    v = np.floor(p * (1 << k) + 0.5)
    return np.minimum(v, (1 << k) - 1).astype(np.uint16)


@dataclass(frozen=True)
class MachineConfig:
    """Run parameters of a stochastic machine, and the one check of a run's budget
    and strategy; the geometry and codes are read from the `machine.MemoryImage`."""

    cycle_budget: int = 255
    strategy: str = "conventional"

    def __post_init__(self):
        if not 1 <= check_int("cycle budget", self.cycle_budget) <= MAX_BUDGET:
            raise ConfigError(f"cycle budget must be in [1, 2**53], got {self.cycle_budget}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")


@dataclass
class InferenceResult:
    """One machine call's inferences of N presentations (a batch, or a
    filter's N steps): ``scores`` is (N, rows), ``winner`` and ``cycles`` are
    (N,).  A logarithmic presentation runs one cycle; ``event_counts`` is the
    total."""

    scores: np.ndarray  # log: saturating score sums; stochastic: fire counters
    winner: np.ndarray
    cycles: np.ndarray
    event_counts: energy.EventCounts

    @classmethod
    def of(cls, image, scores, winner, cycles) -> "InferenceResult":
        """One machine call's result on ``image``, priced by one `energy.count_events` call."""
        counts = energy.count_events(image.mode, image.rows, image.columns, image.width,
                                     cycles=int(cycles.sum()), presentations=len(winner))
        return cls(scores, winner, cycles, counts)

    @property
    def cycles_used(self) -> int:
        return int(self.cycles.sum())


def mask_law(codes, width: int) -> np.ndarray:
    """The exact per-cycle row-fire law of latched codes (N, R, C): entry
    [n, m] is P(in one cycle exactly the rows of bit mask m fire).

    P(every row of S fires in column c) is the min over S of the column's
    probabilities, since its one draw fires nested top sets of rows; the
    product over columns, then a Moebius pass per row, gives P(mask == S).
    """
    n, rows, cols = codes.shape
    p = codes / float(1 << width)
    law, part = np.ones((n, 1 << rows)), np.ones((n, 1 << rows))
    for c in range(cols):
        for r in range(rows):  # part[S] for S within rows 0..r, one row at a time
            np.minimum(part[:, :1 << r], p[:, r, c, np.newaxis], out=part[:, 1 << r:2 << r])
        law *= part
    for r in range(rows):
        both = law.reshape(n, -1, 2, 1 << r)
        both[:, :, 0] -= both[:, :, 1]  # P(S fires, r not) = P(S fires) - P(S, r fire)
    return np.maximum(law, 0.0, out=law)  # rounding must not leave -1e-17


def mask_bits(rows: int) -> np.ndarray:
    """The row bits (2**rows, rows) of every fire mask: entry [m, r] is 1 when
    mask m fires row r."""
    return (np.arange(1 << rows)[:, np.newaxis] >> np.arange(rows)) & 1


@dataclass(frozen=True, eq=False)
class RunPlan:
    """The codes (N, R, C) of N presentations latched once from ``image``: a
    batch's `plan`, or the steps of a `machine.filter_plan`.  ``cum_law``, the
    cumulative law of the non-empty masks, is built on first use, ``law_rows``
    rows of it per row of codes; runs cut it in `parts`."""

    image: object
    codes: np.ndarray
    law_rows = 1

    @property
    def part_rows(self) -> int:  # rows of codes whose law holds at most LAW_MAX entries
        return max(1, LAW_MAX // (self.law_rows << self.codes.shape[1]))

    def parts(self):
        """(first, plan) of consecutive `part_rows` rows of codes: the plan, which
        keeps its law, if it is one part, else new plans of its type made in turn."""
        for first in range(0, n := len(self.codes), size := self.part_rows):
            yield first, self if size >= n else type(self)(self.image, self.codes[first:first + size])

    @cached_property
    def cum_law(self) -> np.ndarray:
        return np.cumsum(mask_law(self.codes, self.image.width)[:, 1:], axis=1)

    @cached_property
    def outcomes(self) -> tuple:
        """Per presentation the stop divisor log1p(-q) (-1.0 where q = 0), the
        ``q > 0`` mask of runs that can fire, and q; per fired mask (0: none)
        its row bits and candidate count; and, flat at ``mask * rows + pick``,
        the winner of each tie pick (mask 0 ties every row)."""
        rows = self.codes.shape[1]
        bits = mask_bits(rows)
        k = bits.sum(axis=1)
        k[0] = rows
        q = np.ascontiguousarray(self.cum_law[:, -1])
        fires = q > 0
        # q >= 1 fires every cycle; a q = 0 run never stops, whatever its divisor
        divisor = np.log1p(-q, where=q < 1, out=np.full(len(q), -np.inf))
        divisor[~fires] = -1.0
        return divisor, fires, q, bits, k, np.argsort(-bits, axis=1, kind="stable").ravel()


def decide(run: RunPlan, uniforms: np.ndarray, budget: int) -> tuple:
    """(counters, winner, cycles) of power-conscious runs of ``run``, one [0, 1)
    (stop, mask, tie) row of ``uniforms`` each: a stop cycle truncated geometric
    in q = 1 - P(no row fires), and one mask from the law of the non-empty masks."""
    divisor, fires, q, bits, k, winners = run.outcomes
    stop = np.negative(uniforms[:, 0])
    np.log1p(stop, out=stop)
    stop /= divisor
    np.floor(stop, out=stop)
    stop += 1
    stopped = stop <= budget
    stopped &= fires
    target = uniforms[:, 1] * q
    # cum_law is non-decreasing: the first entry above the target is the mask
    mask = (run.cum_law > target[:, np.newaxis]).argmax(axis=1)
    mask += 1
    mask *= stopped
    k = k.take(mask)
    pick = np.multiply(uniforms[:, 2], k, out=target).astype(np.int64)  # target is spent
    counters = bits.take(mask, axis=0)
    mask *= bits.shape[1]
    mask += pick
    return counters, winners.take(mask), np.where(stopped, stop, budget).astype(np.int64)


def tally(run: RunPlan, ties: np.ndarray, rng, budget: int) -> tuple:
    """(counters, winner, cycles) of conventional runs of ``run``: one
    multinomial(budget, law) per run over its masks, drawn from the Generator
    ``rng``, gives how many cycles fired each mask, so the counters are those
    counts times the masks' row bits; ``ties`` holds one [0, 1) uniform per run
    that breaks its tie among the highest counters."""
    cum = run.cum_law
    # per run: P(no row fires), then each non-empty mask's share of the cumulative law
    law = np.column_stack((1 - cum[:, -1], np.diff(cum, axis=1, prepend=0.0)))
    counters = rng.multinomial(budget, law) @ mask_bits(run.codes.shape[1])
    winner = _pick(counters == counters.max(axis=1, keepdims=True), ties)
    return counters, winner, np.full(len(cum), budget, dtype=np.int64)


def _pick(candidates: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Each row's winner among its k candidate rows: candidate int(tie * k),
    counted in row order (a uniform below 1 times k truncates below k)."""
    pick = (ties * candidates.sum(axis=1)).astype(np.int64)
    return (candidates.cumsum(axis=1) > pick[:, np.newaxis]).argmax(axis=1)


def plan(image, obs) -> RunPlan:
    """Check a batch (N, C) of addresses ``obs`` and latch the codes once, from
    an image of either kind; `run_stochastic` refuses a log image's plan."""
    return RunPlan(image, image.latch(obs))


def run_stochastic(
    image,
    obs,
    budget: int,
    strategy: str = "conventional",
    rng_mode: str = "column_shared",  # its one value; kept for the benchmark (ROADMAP item 1)
    seed=0,
) -> InferenceResult:
    """Run stochastic inference of a batch (N, C) of addresses on a
    linear-code memory image.

    Memory is read once up front (``image.latch``) and the latched codes are
    reused every cycle; ``obs`` may instead be a `plan` of ``image`` (a
    `machine.FilterPlan` is refused: its steps stand for a filter's pairs).
    ``seed`` may be an int or an existing numpy Generator (so a caller
    stepping a sequence can keep one stream across steps).  A conventional
    call draws every presentation's bits, in presentation, cycle, column
    order, one integer in [0, 2**width) each, then one uniform per
    presentation that breaks its ties.  A power-conscious call draws one
    float64 uniform triple (stop, mask, tie) per presentation and `decide`s
    them.  A power-conscious presentation stopped early
    exactly when any of its scores is non-zero; a conventional one never
    stops early.  ``rng_mode`` accepts only ``"column_shared"``.
    """
    if image.kind != "linear":
        raise ConfigError("stochastic run needs a linear-code image")
    MachineConfig(budget, strategy)  # the one check of a budget and a strategy
    if rng_mode != "column_shared":
        raise ConfigError(f"unknown rng mode {rng_mode!r}")
    run = obs if isinstance(obs, RunPlan) else plan(image, obs)
    if run.image is not image:
        raise ConfigError("plan was not built for this image")
    if type(run) is not RunPlan:
        raise ConfigError("a filter plan is not a batch plan: run it with machine.run_filter")
    return InferenceResult.of(image, *sample(run, np.random.default_rng(seed), budget, strategy))


def sample(run: RunPlan, rng, budget: int, strategy: str) -> tuple:
    """(counters, winner, cycles) of every presentation of ``run``, drawn from
    the Generator ``rng`` as `run_stochastic` describes.  The caller checks the
    image kind, the budget and the strategy; a conventional run whose draws
    (N, budget, C) or fire arrays (N, budget, R) would hold more than
    `KERNEL_MAX_DRAWS` entries raises ConfigError before any draw."""
    n, rows, cols = run.codes.shape
    width = run.image.width
    if strategy == "power_conscious":
        uniforms = rng.random((n, 3))
        if n <= run.part_rows:  # one part: the plan itself, without a generator
            return decide(run, uniforms, budget)
        return tuple(map(np.concatenate, zip(*(decide(part, uniforms[i:i + len(part.codes)], budget)
                                               for i, part in run.parts()))))
    size = n * budget * max(cols, rows)
    if size > KERNEL_MAX_DRAWS:
        raise ConfigError(f"cycle budget {budget} over {n} presentations of {rows} rows and "
                          f"{cols} columns needs arrays of {size} entries, more than the "
                          f"cycle kernel's {KERNEL_MAX_DRAWS}")
    dtype = np.uint8 if width == 8 else np.uint16
    codes = run.codes.astype(dtype)  # the draws' dtype: no compare below casts a column
    # one draw per column per cycle, seen by every row of the column
    draws = rng.integers(0, 1 << width, size=(n, budget, 1, cols), dtype=dtype)
    ties = rng.random(n)
    # AND the columns into (N, budget, R) one at a time, never (N, budget, R, C)
    fire = draws[..., 0] < codes[:, np.newaxis, :, 0]
    col = np.empty_like(fire)
    for c in range(1, cols):
        np.less(draws[..., c], codes[:, np.newaxis, :, c], out=col)
        fire &= col
    # each row's fires over contiguous cycles: one transposed copy, summed on its last axis
    counters = fire.transpose(0, 2, 1).copy().sum(axis=2, dtype=np.int64)
    return counters, _pick(counters == counters.max(axis=1, keepdims=True), ties), np.full(n, budget)
