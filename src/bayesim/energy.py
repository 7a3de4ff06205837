"""Event counting and first-order energy accounting.

The simulator does not model devices; it counts architectural events
(memory bits read, code additions, compare/AND evaluations, RNG draws,
counter increments, register writes) and prices them with a user-supplied
cost table.  The bundled example table is illustrative only: it exists so
the energy trends and the crossover report are runnable out of the box,
not as a claim about any fabricated part.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, asdict, fields

from .errors import ConfigError, FormatError, parse_json, read_text

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
            if getattr(self, name) < 0:
                raise ConfigError(f"negative event count {name}")


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
    doc = {"version": 1, "unit": "J", "costs": asdict(table)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cost_table(path) -> CostTable:
    doc = parse_json(read_text(path), path)
    if not isinstance(doc, dict) or doc.get("version") != 1 or "costs" not in doc:
        raise FormatError(f"{path}: not a version-1 cost table")
    if doc.get("unit") != "J":  # a pJ table read as joules prices 10**12 too high
        raise FormatError(f"{path}: cost unit must be \"J\", got {doc.get('unit')!r}")
    try:
        return CostTable(**doc["costs"])
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: bad cost table fields ({exc})") from exc


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
    if rows < 1 or cols < 1 or cycles < 1 or presentations < 1:
        raise ConfigError("rows, cols, cycles and presentations must all be >= 1")
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


def crossover(
    log_image,
    lin_image,
    table: CostTable,
    budgets,
    pc_mean_cycles: dict | None = None,
    accuracies: dict | None = None,
    log_accuracy: float = math.nan,
) -> CrossoverReport:
    """Energy-vs-budget report for a logarithmic and a stochastic machine.

    Each point is priced as the energy of its ``count_events`` on its own
    image's rows, columns and code width: the logarithmic point on
    ``log_image``, every stochastic point on ``lin_image``.  Conventional
    runs take cycles = budget; power-conscious runs take the measured mean
    cycles from ``pc_mean_cycles`` when given, else the full budget as an
    upper bound.  ``accuracies`` maps (strategy, budget) to measured
    accuracy; missing entries are NaN.
    """
    if (log_image.kind, lin_image.kind) != ("log", "linear"):
        raise ConfigError("crossover needs a log-code image and a linear-code image")
    budgets = sorted(set(int(b) for b in budgets))
    if not budgets:
        raise ConfigError("need at least one budget")
    acc = accuracies or {}
    pc_cycles = pc_mean_cycles or {}

    def priced(image, cycles: float = 1) -> float:
        return energy_of(count_events(image.mode, image.rows, image.columns, image.width,
                                      cycles=cycles), table)

    log_energy = priced(log_image)
    points = [CrossoverPoint("logarithmic", 1, log_accuracy, log_energy)]
    cross = None
    for b in budgets:
        conv = priced(lin_image, b)
        points.append(CrossoverPoint("conventional", b, acc.get(("conventional", b), math.nan), conv))
        pc = priced(lin_image, pc_cycles.get(b, float(b)))
        points.append(CrossoverPoint("power_conscious", b, acc.get(("power_conscious", b), math.nan), pc))
        if cross is None and conv > log_energy:
            cross = b
    return CrossoverReport(tuple(points), cross)
