#!/usr/bin/env python3
"""bayesim benchmark: one workload per run, host-time metrics, optional tracing.

Run from the repository root:

    python3 benchmark/run.py --workload gesture_mc --seed 7 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 7 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``all`` runs every workload both ways in child processes.  Human-
readable lines go to stdout first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a results file (default ``.bench_out/<workload>-seed<n>-trace<t>.json``).
The package is used from ``src/`` as it is; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("gesture_mc", "sleep_filter16", "log_faults", "cli_pipeline")
# in-process set-ups per run; setup_s is their median.  The import of
# bayesim is timed once and reported as import_s, outside setup_s: it shifts
# up to 2x with the machine's I/O state, which would drown the few ms of
# set-up work that setup_s exists to watch.
SETUP_REPS = 15
STARTUP_REPS = 5  # ``python -m bayesim --version`` runs behind cli.startup_ms
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "presentations_per_s": "1/s",
    "sim_cycles_per_s": "1/s",
    "pass_min_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer time metrics: (metric, span, duration field, unit, ns per unit)
LAYER_TIMES = (
    ("runner.eval_stochastic.self_ms_per_pass", "runner.eval_stochastic", "self_ns", "ms", 1e6),
    ("machine.infer_stochastic.self_us", "machine.infer_stochastic", "self_ns", "us", 1e3),
    ("stochastic.run_stochastic.us_per_call", "stochastic.run_stochastic", "total_ns", "us", 1e3),
    ("energy.count_events.self_us", "energy.count_events", "self_ns", "us", 1e3),
    ("machine.run_filter.self_ms_per_pass", "machine.run_filter", "self_ns", "ms", 1e6),
    ("machine.infer_logarithmic.us_per_call", "machine.infer_logarithmic", "total_ns", "us", 1e3),
    ("runner.eval_log.self_ms_per_pass", "runner.eval_log", "self_ns", "ms", 1e6),
    ("machine.inject_errors.ms_per_call", "machine.inject_errors", "total_ns", "ms", 1e6),
    ("tasks.generate.ms", "tasks.generate", "total_ns", "ms", 1e6),
    ("modelkit.train_model.ms", "modelkit.train_model", "total_ns", "ms", 1e6),
    ("modelkit.bin_observations.ms", "modelkit.bin_observations", "total_ns", "ms", 1e6),
    ("modelkit.compile_model.ms", "modelkit.compile_model", "total_ns", "ms", 1e6),
)
# exact counts per cycle of trial slots, from the workload's own traced rounds
LAYER_COUNTS = ("energy.count_events.calls", "stochastic.draws", "stochastic.cycles_drawn",
                "stochastic.cycles_used", "machine.inject_errors.calls")
PER_LAYER_UNITS = {
    **{m: unit for m, _, _, unit, _ in LAYER_TIMES},
    **{m: "count" for m in LAYER_COUNTS},
    "modelkit.oracle.ms": "ms",
    "stochastic.ns_per_draw": "ns",
    "stochastic.useful_cycle_ratio": "ratio",
    "logprob.encode_array.us_per_code": "us",
    "cli.startup_ms": "ms",
    "trace_overhead_pct": "%",
}
CLI_COMMANDS = ("gen", "train", "compile", "sim", "sweep_cycles", "sweep_ber", "energy", "report")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Ops:
    """Attempted and failed operations; a failure is an exception, a
    non-zero exit or a failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, n: int = 1, errors=()) -> None:
        self.attempted += n
        self.failures.extend(errors)


# ---- helpers ----

def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, p: float) -> float:
    xs = sorted(xs)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def tail(xs, wanted: float) -> tuple:
    """The workload's fixed tail percentile; when a run has too few passes
    for 10 samples beyond it, the highest percentile that has them."""
    p = min(wanted, math.floor(1000.0 * (1.0 - 10.0 / len(xs))) / 10.0)
    return percentile(xs, max(p, 0.0)), max(p, 0.0)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def child_env(src: Path, threads: str) -> dict:
    """Absolute PYTHONPATH, so children that change directory still find src."""
    env = dict(os.environ, BAYESIM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "bayesim").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(np, bayesim_src: Path, threads: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "BAYESIM_THREADS": threads,
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "bayesim_src": str(bayesim_src.relative_to(ROOT)),
        "platform": platform.platform(),
        "note": "shared machine; only the benchmark's own processes are measured, "
                "with no machine-wide tuning",
    }


# ---- one workload ----

def cli_startup_ms(env: dict, cwd: Path, ops: Ops) -> float:
    samples = []
    for _ in range(STARTUP_REPS):
        ops.add()
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "bayesim", "--version"], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        samples.append((time.perf_counter() - t) * 1e3)
        if proc.returncode != 0:
            ops.failures.append(f"--version exit {proc.returncode}")
    return median(samples)


def layer_values(agg: dict, counts: dict) -> dict:
    """Per-layer time metrics from aggregated spans; None where no calls."""
    out = {}
    for metric, span, field, _, scale in LAYER_TIMES:
        a = agg.get(span)
        out[metric] = a[field] / a["calls"] / scale if a else None
    orc, passes = agg.get("modelkit.oracle"), agg.get("runner.eval_oracle")
    out["modelkit.oracle.ms"] = orc["total_ns"] / passes["calls"] / 1e6 if orc and passes else None
    sampler = agg.get("stochastic.run_stochastic")
    draws = counts.get("stochastic.draws", 0)
    out["stochastic.ns_per_draw"] = sampler["self_ns"] / draws if sampler and draws else None
    drawn = counts.get("stochastic.cycles_drawn", 0)
    out["stochastic.useful_cycle_ratio"] = (
        counts.get("stochastic.cycles_used", 0) / drawn if drawn else None)
    enc, codes = agg.get("logprob.encode_array"), counts.get("logprob.codes_encoded", 0)
    out["logprob.encode_array.us_per_code"] = enc["total_ns"] / codes / 1e3 if enc and codes else None
    return out


def run_workload(args, wl, size: dict, work: Path, np, W, Tracer, src: Path,
                 import_s: float) -> dict:
    ops = Ops()
    tracer = Tracer() if args.trace else None
    in_process = wl.prepare is not None
    env = child_env(src, "1" if in_process else W.CLI_THREADS)

    # ---- set-up: setup_s is the median of these repetitions ----
    cli_cmds = []
    if in_process:
        setup_secs, state = [], None
        for _ in range(SETUP_REPS):
            ops.add()
            if tracer:
                tracer.install()
            t = time.perf_counter()
            try:
                with tracer.span("bench.setup") if tracer else nullcontext():
                    state = wl.prepare(size)
            finally:
                if tracer:
                    tracer.uninstall()
            setup_secs.append(time.perf_counter() - t)

        def do_round(tr, slot):
            return wl.round(state, args.seed, size, slot, tr)
    else:
        cli = W.Cli(sys.executable, env, work)
        data_dir, setup_secs, cli_cmds, errors = W.cli_setup(cli, args.seed, size, tracer)
        ops.add(len(cli_cmds), errors)
        if errors:
            raise BenchError("cli set-up failed: " + "; ".join(errors))

        def do_round(tr, slot):
            return W.cli_round(cli, data_dir, args.seed, size, slot, tr)

    # ---- rounds: one warm-up, then closed-loop rounds for --seconds ----
    slots = size["slots"]
    rounds = []

    def one(kind: str, slot: int, cycle: int) -> None:
        tr = tracer if kind == "traced" else None
        ops.add()
        if tr is not None and in_process:
            tr.install()
        mark = tr.mark() if tr is not None else None
        t = time.perf_counter()
        try:
            with tr.span("bench.round") if tr is not None else nullcontext():
                rnd = do_round(tr, slot)
        except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
            ops.failures.append(f"{kind} round: {exc.__class__.__name__}: {exc}")
            return
        finally:
            if tr is not None and in_process:
                tr.uninstall()
        secs = time.perf_counter() - t
        ops.failures.extend(rnd.errors)
        counts = tr.counts_between(mark, tr.mark()) if tr is not None else None
        rounds.append({"kind": kind, "slot": slot, "cycle": cycle, "secs": secs, "rnd": rnd,
                       "counts": counts})

    one("warmup", 0, -1)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < 100_000:
        cycle, slot = divmod(i, slots)
        # traced runs alternate whole cycles, so both kinds see every slot
        one("traced" if tracer and cycle % 2 else "plain", slot, cycle)
        i += 1
        if i % slots == 0 and time.perf_counter() >= deadline:
            kinds = [r["kind"] for r in rounds]
            if kinds.count("plain") >= 2 and (not tracer or kinds.count("traced") >= 2):
                break

    good = [r for r in rounds if r["rnd"].stats is not None and not r["rnd"].errors]
    first = {}
    for r in good:
        d = digest(r["rnd"].stats)
        if r["slot"] not in first:
            first[r["slot"]] = (d, r["rnd"])
        elif d != first[r["slot"]][0]:
            ops.failures.append(f"{r['kind']} round statistics differ from the first round "
                                f"of slot {r['slot']}")
    if len(first) < slots:
        raise BenchError("no complete cycle of slots: " + "; ".join(ops.failures[:5]))
    cycle_stats = [first[k][1].stats for k in range(slots)]
    gates = wl.gates(cycle_stats)
    ops.add(len(gates), [f"gate {g['name']}: {g['detail']}" for g in gates if not g["ok"]])

    plain = [r for r in good if r["kind"] == "plain"]
    if not plain:
        raise BenchError("no untraced round completed")
    samples = [ms for r in plain for ms in r["rnd"].pass_ms]
    tail_ms, tail_pct = tail(samples, wl.tail_pct)
    values = {
        "wall_s": min(r["secs"] for r in plain),
        "setup_s": median(setup_secs),
        "presentations_per_s": max(r["rnd"].presentations / r["secs"] for r in plain),
        "sim_cycles_per_s": max(r["rnd"].cycles / r["secs"] for r in plain),
        "pass_min_ms": min(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"pass_p50_ms": (median(samples), "ms"), "pass_tail_ms": (tail_ms, "ms"),
             "import_s": (import_s, "s")}
    result = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": {"preset": args.size, **size},
        "environment": environment(np, src, env["BAYESIM_THREADS"]),
        "end_to_end": {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()},
        "end_to_end_ungated": {m: {"value": v, "unit": u} for m, (v, u) in extra.items()},
        "pass_tail": {"percentile": tail_pct, "samples": len(samples)},
        "presentations_per_cycle": sum(first[k][1].presentations for k in range(slots)),
        "cycles_per_cycle": sum(first[k][1].cycles for k in range(slots)),
        "outputs_sha256": digest(cycle_stats),
        "gates": gates,
        "rounds_s": {kind: [round(r["secs"], 6) for r in good if r["kind"] == kind]
                     for kind in ("warmup", "plain", "traced")},
        "setup_samples_s": setup_secs,
        "pass_samples_ms": [round(ms, 4) for ms in samples],
    }
    if not in_process:
        cmds = cli_cmds + [c for r in good for c in r["rnd"].commands]
        result["cli_command_s"] = {
            f"cli.{name}.s": median([s for c, s in cmds if c == name]) for name in CLI_COMMANDS}

    if tracer:
        result["per_layer"] = traced_metrics(args, slots, good, tracer, env, work, ops, W, Tracer)
        if not in_process:
            for m, v in result["cli_command_s"].items():
                result["per_layer"][m] = {"value": v, "unit": "s", "source": "rounds"}
        spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace1.spans.npz"
        tracer.save(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))

    result["attempted"] = ops.attempted
    result["failed"] = len(ops.failures)
    result["failures"] = ops.failures[:50]
    result["error_rate"] = len(ops.failures) / ops.attempted
    return result


def traced_metrics(args, slots, good, tracer, env, work, ops, W, Tracer) -> dict:
    traced = [r for r in good if r["kind"] == "traced"]
    plain = [r for r in good if r["kind"] == "plain"]
    cycles: dict = {}
    for r in traced:
        cycles.setdefault(r["cycle"], []).append(r["counts"])
    per_cycle = []
    for rows in cycles.values():
        if len(rows) == slots:
            total = Counter()
            for c in rows:
                total.update(c)
            per_cycle.append(dict(total))
    counts = per_cycle[0] if per_cycle else {}
    ops.add()
    if not per_cycle or any(c != counts for c in per_cycle[1:]):
        ops.failures.append("traced counts missing or differing between cycles")

    probe = Tracer()
    probe.install()
    try:
        with probe.span("bench.probe"):
            W.layer_probe(args.seed)
    finally:
        probe.uninstall()

    own = layer_values(tracer.aggregate(), tracer.counts)
    # useful_cycle_ratio is a per-cycle ratio of the workload's own counts
    drawn = counts.get("stochastic.cycles_drawn", 0)
    own["stochastic.useful_cycle_ratio"] = (
        counts.get("stochastic.cycles_used", 0) / drawn if drawn else None)
    probed = layer_values(probe.aggregate(), probe.counts)
    out = {}
    for m in PER_LAYER_UNITS:
        if m in LAYER_COUNTS:
            out[m] = {"value": counts.get(m, 0), "source": "rounds"}
        elif m in own:
            src = "rounds" if own[m] is not None else "probe"
            out[m] = {"value": own[m] if own[m] is not None else probed[m], "source": src}
    out["cli.startup_ms"] = {"value": cli_startup_ms(env, work, ops), "source": "cli"}
    t_traced = min(r["secs"] for r in traced)
    t_plain = min(r["secs"] for r in plain)
    out["trace_overhead_pct"] = {"value": (t_traced / t_plain - 1.0) * 100.0, "source": "rounds"}
    for m, d in out.items():
        d["unit"] = PER_LAYER_UNITS[m]
    out["_counts_per_cycle"] = {"value": counts, "unit": "count", "source": "rounds"}
    return out


def print_metrics(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']}")
    for m, d in {**result["end_to_end"], **result["end_to_end_ungated"]}.items():
        extra = ""
        if m == "pass_tail_ms":
            extra = (f"  (p{result['pass_tail']['percentile']:g} of "
                     f"{result['pass_tail']['samples']} passes)")
        print(f"{m} = {d['value']:.6g} {d['unit']}{extra}")
    print(f"error_rate = {result['error_rate']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for m, d in result.get("per_layer", {}).items():
        if not m.startswith("_"):
            v = d["value"]
            shown = f"{v:d}" if isinstance(v, int) else f"{v:.6g}"
            print(f"{m} = {shown} {d['unit']}  [{d['source']}]")
    for g in result["gates"]:
        print(f"gate {g['name']}: {'PASS' if g['ok'] else 'FAIL'}: {g['detail']}")
    print(f"outputs_sha256 = {result['outputs_sha256']}")
    for f in result["failures"]:
        print(f"failure: {f}")


def run_single(args) -> int:
    os.environ["BAYESIM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import bayesim

    import_s = time.perf_counter() - t

    src = Path(bayesim.__file__).resolve().parent.parent
    if src != SRC.resolve():
        print(f"error: imported bayesim from {src}, expected {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads as W
    from spans import Tracer

    wl = W.WORKLOADS[args.workload]
    size = W.SIZES[wl.name][args.size]
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
    work.mkdir()
    try:
        result = run_workload(args, wl, size, work, np, W, Tracer, src, import_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = Path(args.out) if args.out else OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print_metrics(result)
    print(f"results file: {out}")
    if args.trace:
        metrics = {m: {"value": d["value"], "unit": d["unit"]}
                   for m, d in result["per_layer"].items() if m in PER_LAYER_UNITS}
    else:
        metrics = result["end_to_end"]
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    OUT_DIR.mkdir(exist_ok=True)
    runs, summary = [], {}
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            part = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size, "--out", str(part)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
            if proc.returncode != 0:
                print(f"error: {name} trace={trace} exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
                return 1
            res = json.loads(part.read_text())
            runs.append(res)
            attempted += res["attempted"]
            failed += res["failed"]
            key = "per_layer" if trace else "end_to_end"
            for m, d in res[key].items():
                if not m.startswith("_"):
                    summary[f"{name}.{m}"] = {"value": d["value"], "unit": d["unit"]}
    out = Path(args.out) if args.out else OUT_DIR / f"all-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")
    print(f"results file: {out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="work per round; tiny is for the smoke check only")
    p.add_argument("--out", help="results file (default under .bench_out/)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bayesim" / "__init__.py").is_file():
        print(f"error: bayesim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
