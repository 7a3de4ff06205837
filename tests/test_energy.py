import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from bayesim import energy
from bayesim.errors import ConfigError, FormatError
from bayesim.machine import MemoryImage


def images(rows=4, columns=6, values=64):
    """A log and a linear image of one geometry, by default that of the
    scaled-up machine: 4 rows, 6 columns, 64 values."""
    blocks = [np.zeros((rows, values), dtype=np.uint16)] * columns
    return MemoryImage(blocks, 8, "log"), MemoryImage(blocks, 8, "linear")


def unit_table(**over):
    base = dict(mem_read_bit=1.0, add_op=1.0, and_compare_op=1.0,
                rng_draw=1.0, counter_increment=1.0, register_write=1.0)
    base.update(over)
    return energy.CostTable(**base)


def test_event_kinds_are_the_field_names_in_order():
    # EventCounts checks its fields by looping over EVENT_KINDS
    assert energy.EVENT_KINDS == tuple(f.name for f in fields(energy.EventCounts))
    for name in energy.EVENT_KINDS:
        with pytest.raises(ConfigError, match=f"negative event count {name}"):
            energy.EventCounts(**{name: -1})


def test_count_events_logarithmic():
    c = energy.count_events("logarithmic", rows=4, cols=4, width=8)
    assert c.mem_read_bits == 128
    assert c.add_ops == 16
    assert c.register_writes == 4
    assert c.rng_draws == 0 and c.and_compare_ops == 0 and c.counter_increments == 0


def test_count_events_stochastic_column_shared():
    c = energy.count_events("stochastic", rows=4, cols=4, width=8, cycles=100)
    assert c.rng_draws == 400  # one draw per column per cycle
    assert c.and_compare_ops == 1600
    assert c.counter_increments == 400
    assert c.mem_read_bits == 128  # read once, latched
    assert c.register_writes == 16


def test_count_events_single_cycle_stop():
    one = energy.count_events("stochastic", rows=4, cols=6, width=8, cycles=1)
    many = energy.count_events("stochastic", rows=4, cols=6, width=8, cycles=7)
    assert many.and_compare_ops == 7 * one.and_compare_ops
    assert many.mem_read_bits == one.mem_read_bits  # latch is cycle-free


def test_count_events_validation():
    with pytest.raises(ConfigError):
        energy.count_events("analog", 4, 4, 8)
    with pytest.raises(ConfigError):
        energy.count_events("stochastic", 0, 4, 8)
    with pytest.raises(ConfigError):
        energy.EventCounts(mem_read_bits=-1)


def test_energy_of_linearity():
    c = energy.count_events("stochastic", 4, 4, 8, cycles=5)
    zero = energy.CostTable(0, 0, 0, 0, 0, 0)
    assert energy.energy_of(c, zero) == 0.0
    ones = unit_table()
    total = (c.mem_read_bits + c.add_ops + c.and_compare_ops + c.rng_draws
             + c.counter_increments + c.register_writes)
    assert energy.energy_of(c, ones) == total
    doubled = unit_table(mem_read_bit=2.0, add_op=2.0, and_compare_op=2.0,
                         rng_draw=2.0, counter_increment=2.0, register_write=2.0)
    assert energy.energy_of(c, doubled) == 2 * total


def test_example_table_round_trip(tmp_path):
    table = energy.example_cost_table()
    path = tmp_path / "cost.json"
    energy.save_cost_table(path, table)
    assert energy.load_cost_table(path) == table
    path.write_text('{"version": 1}\n')
    with pytest.raises(FormatError):
        energy.load_cost_table(path)


def test_cost_table_refuses_any_unit_but_joules(tmp_path):
    costs = asdict(energy.example_cost_table())
    path = tmp_path / "cost.json"
    for unit in ("pJ", "j", 1, None):
        path.write_text(json.dumps({"version": 1, "unit": unit, "costs": costs}))
        with pytest.raises(FormatError, match=f"cost unit must be \"J\", got {unit!r}"):
            energy.load_cost_table(path)
    path.write_text(json.dumps({"version": 1, "costs": costs}))  # no unit at all
    with pytest.raises(FormatError, match="got None"):
        energy.load_cost_table(path)


def test_cost_table_rejects_non_finite(tmp_path):
    costs = asdict(energy.example_cost_table())
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            energy.CostTable(**{**costs, "rng_draw": bad})
    path = tmp_path / "cost.json"
    path.write_text(json.dumps({"version": 1, "unit": "J",
                                "costs": {**costs, "add_op": math.nan}}))
    with pytest.raises(ConfigError):
        energy.load_cost_table(path)


def test_cost_table_rejects_bools_and_non_numbers(tmp_path):
    costs = asdict(energy.example_cost_table())
    for bad in (True, False, "1e-12", None, [1e-12]):
        with pytest.raises(ConfigError, match="cost rng_draw"):
            energy.CostTable(**{**costs, "rng_draw": bad})
    # a JSON true is not a cost of 1 J
    path = tmp_path / "cost.json"
    path.write_text(json.dumps({"version": 1, "unit": "J", "costs": {**costs, "add_op": True}}))
    with pytest.raises(ConfigError, match="cost add_op"):
        energy.load_cost_table(path)
    assert energy.CostTable(**{**costs, "rng_draw": 0}).rng_draw == 0  # an int cost is real


def test_conventional_energy_affine_in_budget():
    rep = energy.crossover(*images(), energy.example_cost_table(), [10, 20, 40, 80])
    conv = {p.budget: p.energy_j for p in rep.points if p.strategy == "conventional"}
    slope = (conv[20] - conv[10]) / 10
    for b1, b2 in [(10, 20), (20, 40), (40, 80)]:
        assert (conv[b2] - conv[b1]) / (b2 - b1) == pytest.approx(slope, rel=1e-12)
    intercept = conv[10] - 10 * slope
    assert intercept > 0  # the one-time latch cost


def test_log_energy_budget_independent():
    # the small fabricated machine: 4 rows, 4 columns, 8 values
    rep = energy.crossover(*images(4, 4, 8), energy.example_cost_table(), [1, 100, 4096])
    log_points = [p for p in rep.points if p.strategy == "logarithmic"]
    assert len(log_points) == 1


def test_power_conscious_cheaper_with_measured_cycles():
    table = energy.example_cost_table()
    budgets = [32, 255]
    rep = energy.crossover(*images(), table, budgets,
                           pc_mean_cycles={32: 6.5, 255: 31.0})
    by = {(p.strategy, p.budget): p.energy_j for p in rep.points}
    for b in budgets:
        assert by[("power_conscious", b)] <= by[("conventional", b)]


def test_crossover_limit_cases():
    pair = images()
    # free stochastic-side events: stochastic never exceeds the log point
    free_stoch = unit_table(and_compare_op=0.0, rng_draw=0.0,
                            counter_increment=0.0, add_op=100.0)
    rep = energy.crossover(*pair, free_stoch, [1, 10, 10_000])
    assert rep.crossover_budget is None
    # free adds: the log machine wins immediately
    free_adds = unit_table(add_op=0.0, and_compare_op=5.0, rng_draw=5.0)
    rep = energy.crossover(*pair, free_adds, [1, 10, 100])
    assert rep.crossover_budget == 1


def test_crossover_monotone_in_and_cost():
    crossings = []
    for and_cost in (0.05e-12, 0.1e-12, 0.5e-12, 2e-12):
        t = energy.example_cost_table()
        t = energy.CostTable(t.mem_read_bit, t.add_op, and_cost,
                             t.rng_draw, t.counter_increment, t.register_write)
        rep = energy.crossover(*images(), t, list(range(1, 400)))
        assert rep.crossover_budget is not None
        crossings.append(rep.crossover_budget)
    assert crossings == sorted(crossings, reverse=True)


def test_crossover_needs_budgets():
    with pytest.raises(ConfigError):
        energy.crossover(*images(), energy.example_cost_table(), [])
    log_image, lin_image = images()
    with pytest.raises(ConfigError, match="log-code image and a linear-code image"):
        energy.crossover(lin_image, log_image, energy.example_cost_table(), [10])


def test_crossover_accuracy_passthrough():
    rep = energy.crossover(*images(), energy.example_cost_table(), [10],
                           accuracies={("conventional", 10): 0.5},
                           log_accuracy=0.9)
    by = {(p.strategy, p.budget): p.accuracy for p in rep.points}
    assert by[("conventional", 10)] == 0.5
    assert by[("logarithmic", 1)] == 0.9
    assert math.isnan(by[("power_conscious", 10)])
