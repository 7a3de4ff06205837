"""The traced benchmark still reaches every layer it measures.

``benchmark/spans.py`` times bayesim from outside by rebinding functions on
the bayesim modules, so a change that stops calling one of them through
its module leaves a per-layer metric without a value.  This runs the
benchmark's layer probe under its tracer, reading the benchmark files only.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"


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
