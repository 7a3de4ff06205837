"""The traced benchmark still reaches every layer it measures.

``benchmark/spans.py`` times bayesim from outside by rebinding functions on
the bayesim modules, so a change that stops calling one of them through
its module leaves a per-layer metric without a value.  This runs the
benchmark's layer probe under its tracer, reading the benchmark files only,
and pins the calls the benchmark rebinds: its gesture rounds time every
`runner.eval_stochastic` pass that `sweep_cycles` makes, and read the
budget from the config passed third.  The CLI workload reads power-conscious
mean cycles back out of ``energy.csv`` by inverting the affine energy model,
and one full cycle of log_faults slots, and one gesture_mc slot, keep their
recorded outputs digests.  Every ``BENCH_*.json`` record at the repository
root names its workloads and gives each gated end-to-end metric a value and
its unit, on both sides of the change it records.
"""

import argparse
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bayesim import cli, energy, machine, runner, stochastic, tasks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
# numpy promises no Generator stream across feature releases (NEP 19): the
# digests below were recorded on numpy 2.4
NUMPY_PINNED = f"digest recorded on numpy 2.4.6; this is numpy {np.__version__}"


def test_layer_probe_gives_every_layer_metric_a_value(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workloads.layer_probe(7)
    finally:
        tracer.uninstall()
    values = run.layer_values(tracer.aggregate(), tracer.counts)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # the rest come from the workload's own rounds or from CLI children
    from_rounds = set(run.LAYER_COUNTS) | {"cli.startup_ms", "trace_overhead_pct"}
    assert declared - from_rounds <= set(values)
    assert sorted(m for m, v in values.items() if v is None) == []


def record_calls(monkeypatch, owner, name):
    calls, inner = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_benchmark_call_contract(monkeypatch):
    monkeypatch.setenv("BAYESIM_THREADS", "1")
    # the tracer calls the sampler by keyword and swaps its seed for a counting stream
    assert {"image", "obs", "budget", "strategy", "rng_mode", "seed"} <= set(
        inspect.signature(stochastic.run_stochastic).parameters)
    prep = runner.prepare(tasks.gesture_like_spec(seed=8, train_size=60, test_size=20))
    _, lin = runner.images_for_model(prep)
    passes = record_calls(monkeypatch, runner, "eval_stochastic")
    runs = record_calls(monkeypatch, stochastic, "run_stochastic")
    runner.sweep_cycles(prep, lin[8], budgets=[4, 8], trials=3, seed=5)
    # sweep_cycles: one module-global eval_stochastic call per pass, config third
    budgets = [args[2].cycle_budget for args, _ in passes
               if isinstance(args[2], machine.MachineConfig)]
    assert sorted(budgets) == [4] * 6 + [8] * 6
    # infer_stochastic reaches the sampler through its module global, once a pass
    assert len(runs) == len(passes)
    # filter models: eval_log and eval_stochastic reach run_filter through its module
    sleep = runner.prepare(tasks.sleep_like_spec(seed=8, train_size=400, test_size=20))
    log_img, sleep_lin = runner.images_for_model(sleep)
    filters = record_calls(monkeypatch, machine, "run_filter")
    runner.eval_log(sleep, log_img)
    runner.eval_stochastic(sleep, sleep_lin[8], machine.MachineConfig(), seed=1)
    assert [args[0].kind for args, _ in filters] == ["log", "linear"]


def test_energy_csv_gives_back_power_conscious_mean_cycles(monkeypatch, tmp_path):
    monkeypatch.setenv("BAYESIM_THREADS", "1")
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    prep = runner.prepare(tasks.gesture_like_spec(seed=8, train_size=60, test_size=20))
    log_img, lin = runner.images_for_model(prep)
    pts = runner.sweep_cycles(prep, lin[8], budgets=[4, 16, 64], trials=2, seed=5)
    rep = energy.crossover(log_img, lin[8], energy.example_cost_table(), pts)
    cli.Options(argparse.Namespace(config=None), "energy").emit(
        tmp_path, "energy", rep.points, "energy")
    got = workloads._pc_mean_cycles(workloads._read_csv(tmp_path / "energy.csv"), lin[8])
    want = {p.budget: p.mean_cycles for p in pts if p.strategy == "power_conscious"}
    assert sorted(got) == sorted(want)
    for b, cycles in want.items():
        assert got[b] == pytest.approx(cycles, rel=1e-9)


def test_log_faults_cycle_keeps_its_outputs(monkeypatch):
    # one full cycle of log_faults slots at seed 7 digests to the benchmark's
    # recorded outputs_sha256, so a change to the log filter or to fault
    # injection that moves one score or winner fails here, not only in a run
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    size = workloads.SIZES["log_faults"]["full"]
    state = workloads.faults_prepare(size)
    cycle = [workloads.faults_round(state, 7, size, slot).stats for slot in range(size["slots"])]
    assert (run.digest(cycle)
            == "1ec86518f8b1e549c2ca3c1e17f66bd50b4672b45c5d636993fb7bb56495322a"), NUMPY_PINNED


def test_gesture_mc_slot_keeps_its_outputs(monkeypatch):
    # one full-size gesture_mc slot at seed 7 digests to the benchmark's
    # recorded outputs_sha256, so a change to the sampler's draws, stop cycles
    # or tie picks that moves one accuracy or mean cycle count fails here
    monkeypatch.setenv("BAYESIM_THREADS", "1")
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    size = workloads.SIZES["gesture_mc"]["full"]
    state = workloads.gesture_prepare(size)
    cycle = [workloads.gesture_round(state, 7, size, slot).stats for slot in range(size["slots"])]
    assert (run.digest(cycle)
            == "4bfaefa08a353e3bba8ead18eb9d4859bd786da4fa4808df5ea13c552a73e19b"), NUMPY_PINNED


def test_bench_records_give_every_gated_metric():
    # the records are read by the next change, not judged: only their shape is
    # checked, never a timing, so this cannot flake
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in contract["workloads"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        assert doc["workloads"] and set(doc["workloads"]) <= names, path.name
        for side in ("parent", "change"):
            record = doc[side]
            assert type(record["tier1_passed"]) is int and type(record["src_lines"]) is int
            assert sorted(record["runs"]) == sorted(doc["workloads"]), (path.name, side)
            for workload, runs in record["runs"].items():
                assert runs, (path.name, side, workload)
                for res in runs:
                    assert res["workload"] == workload
                    for metric in contract["end_to_end"]:
                        got = res["end_to_end"][metric["name"]]
                        assert got["unit"] == metric["unit"], (path.name, metric["name"])
                        assert type(got["value"]) in (int, float) and math.isfinite(got["value"])
