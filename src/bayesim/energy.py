"""Event counting and first-order energy accounting.

The simulator does not model devices; it counts architectural events
(memory bits read, code additions, compare/AND evaluations, RNG draws,
counter increments, register writes) and prices them with a user-supplied
cost table.  The bundled example table is illustrative only: it exists so
the energy trends and the crossover report are runnable out of the box,
not as a claim about any fabricated part.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict, fields

from .errors import ConfigError, FormatError, read_text, read_versioned, write_json

EVENT_KINDS = (
    "mem_read_bits",
    "add_ops",
    "and_compare_ops",
    "rng_draws",
    "counter_increments",
    "register_writes",
)


@dataclass(frozen=True)
class EventCounts:
    """Architectural events of one or more presentations.  When
    ``count_events`` is given a mean cycle count, the per-cycle fields are
    means too, so every field is a real number."""

    mem_read_bits: float = 0
    add_ops: float = 0
    and_compare_ops: float = 0
    rng_draws: float = 0
    counter_increments: float = 0
    register_writes: float = 0

    def __post_init__(self):
        for name in EVENT_KINDS:  # the field names, without dataclasses.fields per call
            v = getattr(self, name)
            if not 0 <= v < math.inf:  # also refuses NaN
                raise ConfigError(f"{'negative' if v < 0 else 'non-finite'} event count {name}")


@dataclass(frozen=True)
class CostTable:
    """Energy per event, in joules."""

    mem_read_bit: float
    add_op: float
    and_compare_op: float
    rng_draw: float
    counter_increment: float
    register_write: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            real = isinstance(v, numbers.Real) and not isinstance(v, bool)  # JSON true is not 1 J
            if not (real and math.isfinite(v) and v >= 0):
                raise ConfigError(f"cost {f.name} must be finite and non-negative, got {v!r}")


def example_cost_table() -> CostTable:
    """Illustrative per-event costs (picojoule scale, not calibrated)."""
    return CostTable(
        mem_read_bit=0.5e-12,
        add_op=10e-12,
        and_compare_op=0.1e-12,
        rng_draw=2e-12,
        counter_increment=0.5e-12,
        register_write=1e-12,
    )


def save_cost_table(path, table: CostTable) -> None:
    write_json(path, {"version": 1, "unit": "J", "costs": asdict(table)})


def load_cost_table(path) -> CostTable:
    def build(doc):
        if doc.get("unit") != "J":  # a pJ table read as joules prices 10**12 too high
            raise FormatError(f"{path}: cost unit must be \"J\", got {doc.get('unit')!r}")
        return CostTable(**doc["costs"])
    return read_versioned(read_text(path), path, 1, "cost table", build)


def count_events(
    mode: str,
    rows: int,
    cols: int,
    width: int,
    cycles: float = 1,
    presentations: int = 1,
) -> EventCounts:
    """Events for ``presentations`` input presentations that ran ``cycles``
    stochastic cycles in all.

    Logarithmic: every addressed code is read and folded into a per-row
    saturating accumulator in a single pass, so there are no RNG, AND or
    counter events.  Stochastic: codes are read and latched once per
    presentation (counted as register writes), then every cycle costs one
    compare/AND per cell, one RNG draw per column (its rows share it), and
    one counter update per row.  ``cycles`` may be a real-valued mean (say,
    the measured mean cycles of power-conscious runs); the per-cycle counts
    are then means too.
    """
    if rows < 1 or cols < 1 or not 1 <= cycles < math.inf or presentations < 1:  # NaN too
        raise ConfigError("rows, cols, cycles and presentations must all be finite and >= 1")
    if mode == "logarithmic":
        return EventCounts(
            mem_read_bits=presentations * cols * rows * width,
            add_ops=presentations * cols * rows,
            register_writes=presentations * rows,
        )
    if mode != "stochastic":
        raise ConfigError(f"unknown mode {mode!r}")
    return EventCounts(
        mem_read_bits=presentations * cols * rows * width,
        and_compare_ops=cols * rows * cycles,
        rng_draws=cols * cycles,
        counter_increments=rows * cycles,
        register_writes=presentations * cols * rows,
    )


def energy_of(counts: EventCounts, table: CostTable) -> float:
    return (
        counts.mem_read_bits * table.mem_read_bit
        + counts.add_ops * table.add_op
        + counts.and_compare_ops * table.and_compare_op
        + counts.rng_draws * table.rng_draw
        + counts.counter_increments * table.counter_increment
        + counts.register_writes * table.register_write
    )


@dataclass(frozen=True)
class CrossoverPoint:
    strategy: str  # "logarithmic", "conventional" or "power_conscious"
    budget: int
    accuracy: float
    energy_j: float


@dataclass(frozen=True)
class CrossoverReport:
    points: tuple
    crossover_budget: int | None  # smallest budget where conventional > logarithmic


def crossover(log_image, lin_image, table: CostTable, points,
              log_accuracy: float = math.nan) -> CrossoverReport:
    """Energy-vs-budget report for a logarithmic and a stochastic machine.

    ``points`` are the stochastic machine's measured points (say, the
    `runner.CyclesPoint`s of a cycle sweep on ``lin_image``).  Each point is
    priced as the energy of its ``count_events`` at its own ``mean_cycles``
    on its own image's rows, columns and code width: the logarithmic point
    on ``log_image``, every stochastic point on ``lin_image``.  A
    conventional point's mean cycles are its budget.  Where a (strategy,
    budget) pair repeats, the last point wins; rows are sorted by budget,
    conventional first.
    """
    if (log_image.kind, lin_image.kind) != ("log", "linear"):
        raise ConfigError("crossover needs a log-code image and a linear-code image")
    last = {(p.budget, p.strategy): p for p in points}
    if not last:
        raise ConfigError("need at least one point")

    def priced(image, cycles: float = 1) -> float:
        return energy_of(count_events(image.mode, image.rows, image.columns, image.width,
                                      cycles=cycles), table)

    log_energy = priced(log_image)
    rows = [CrossoverPoint("logarithmic", 1, log_accuracy, log_energy)]
    rows += [CrossoverPoint(p.strategy, p.budget, p.mean_acc, priced(lin_image, p.mean_cycles))
             for _, p in sorted(last.items())]
    cross = min((p.budget for p in rows[1:]
                 if p.strategy == "conventional" and p.energy_j > log_energy), default=None)
    return CrossoverReport(tuple(rows), cross)
