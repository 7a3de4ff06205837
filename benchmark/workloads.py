"""The four benchmark workloads.

Each workload is a closed loop driven from one process: it sets up (the
set-up is repeated to time it), then repeats short rounds of calls until the
run time is used up.  Rounds
are short so that the fastest of many rounds is a steady figure on a
shared machine.  Round ``i`` runs trial slot ``i % slots``; a correctness
gate that needs many trials reads one full cycle of slots.  A slot always
re-runs the same seeded inputs, so every round must give the statistics of
the first round of its slot, and the benchmark checks that it does.  Inputs
are derived only from the ``--seed`` argument; bayesim receives nothing else.

The synthetic task instances are those of the acceptance suite (spec seed
7), where the criteria behind the correctness gates are defined; ``--seed``
drives every Monte Carlo stream and fault pattern.  On other task instances
some gates do not hold (see the README), which is a property of the
modelled machines, not of the run.

A round reports its statistics (digested into ``outputs_sha256``), the
times of its reference passes, and how many presentations and machine
cycles it simulated.  A log presentation counts as one cycle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from bayesim import energy, machine, runner, tasks

TASK_SEED = 7  # the acceptance suite's task instance
STRATEGIES = ("conventional", "power_conscious")
GESTURE_BUDGETS = (10, 50, 100, 255)
GESTURE_REF_BUDGET = 100  # ROADMAP item 1 quotes gesture 8-bit passes at this budget
SLEEP_BUDGET = 4096
BERS = (0.0, 1e-4, 1e-2)
CLI_THREADS = "2"  # a 2-worker pool, as on a 2-core host; results are identical for any value

# Work per round and trial slots per cycle.  "tiny" only exists for the
# smoke check of the benchmark.
SIZES = {
    # the gates keep a margin of ~6 pt at 2 trials per sweep point
    "gesture_mc": {"full": {"slots": 1, "trials": 2}, "tiny": {"slots": 1, "trials": 1}},
    # 4 slots: on the seed-7 task one 16-bit pass trails log by 1.0 +- 0.6 pt,
    # so the mean of 4 exceeds the 2 pt gate with probability ~1e-3
    "sleep_filter16": {"full": {"slots": 4}, "tiny": {"slots": 4}},
    # 50 slots (trials per BER), as acceptance criterion 8: one flip in a
    # sleep transition code can cost a trial ~25 pt, so fewer trials make the
    # 1e-4 flatness gate depend on the seed
    "log_faults": {"full": {"slots": 50}, "tiny": {"slots": 2}},
    "cli_pipeline": {"full": {"slots": 1, "trials": 2, "setup_reps": 3},
                     "tiny": {"slots": 1, "trials": 1, "setup_reps": 1}},
}


@dataclass
class Round:
    stats: object  # simulated statistics; JSON-serialisable, digested
    pass_ms: list  # times of the round's reference passes
    presentations: int
    cycles: int
    errors: list = field(default_factory=list)  # failed operations inside the round
    commands: list = field(default_factory=list)  # cli only: (command, seconds)


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t) * 1e3


PT_EPS = 1e-9  # accuracies are k/n; an exact 2 pt gap must not fail on rounding


def _gate(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ---- gesture_mc ----

def gesture_prepare(size: dict) -> dict:
    prep = runner.prepare(tasks.gesture_like_spec(seed=TASK_SEED))
    log_img, lin = runner.images_for_model(prep, widths=(8,))
    return {"prep": prep, "log": log_img, "lin": lin[8]}


def gesture_round(st: dict, seed: int, size: dict, slot: int, tracer=None) -> Round:
    """sweep_cycles over 4 budgets x 2 strategies, plus one eval_log."""
    trials = size["trials"]
    ref_ms = []
    inner = runner.eval_stochastic

    # sweep_cycles looks eval_stochastic up on its module for every pass, so
    # rebinding it times each pass from outside
    def timed_pass(*args, **kwargs):
        out, ms = _timed(lambda: inner(*args, **kwargs))
        if args[2].cycle_budget == GESTURE_REF_BUDGET:
            ref_ms.append(ms)
        return out

    runner.eval_stochastic = timed_pass
    try:
        pts = runner.sweep_cycles(st["prep"], st["lin"], GESTURE_BUDGETS, trials,
                                  runner.point_seed(seed, slot))
    finally:
        runner.eval_stochastic = inner
    log_acc = runner.eval_log(st["prep"], st["log"])
    n = len(st["prep"].test_labels)
    stats = {
        "points": [[p.strategy, p.budget, p.mean_acc, p.std_acc, p.trials, p.mean_cycles]
                   for p in pts],
        "log_acc": log_acc,
    }
    cycles = sum(round(p.mean_cycles * trials * n) for p in pts) + n
    return Round(stats, ref_ms, len(pts) * trials * n + n, cycles)


def gesture_gates(cycle: list) -> list:
    def mean_of(strategy, column):
        return {b: statistics.fmean(p[column] for st in cycle for p in st["points"]
                                    if p[0] == strategy and p[1] == b)
                for b in GESTURE_BUDGETS}

    conv, pc_cycles = mean_of("conventional", 2), mean_of("power_conscious", 5)
    log_acc = statistics.fmean(st["log_acc"] for st in cycle)
    gates = [
        _gate(f"pc_cycles_below_budget@{b}", pc_cycles[b] < b,
              f"power_conscious mean cycles {pc_cycles[b]:.2f} < {b}")
        for b in GESTURE_BUDGETS
    ]
    gates.append(_gate("log_vs_conv255", log_acc >= conv[255] - 0.01 - PT_EPS,
                       f"log acc {log_acc:.4f} >= conventional@255 {conv[255]:.4f} - 0.01"))
    return gates


# ---- sleep_filter16 ----

def sleep_prepare(size: dict) -> dict:
    prep = runner.prepare(tasks.sleep_like_spec(seed=TASK_SEED))
    log_img, lin = runner.images_for_model(prep, widths=(16,))
    return {"prep": prep, "log": log_img, "lin": lin[16]}


def sleep_round(st: dict, seed: int, size: dict, slot: int, tracer=None) -> Round:
    """One 16-bit filter pass at budget 4096 per strategy, plus eval_log.

    runner.eval_stochastic drives machine.run_filter for filter models."""
    prep, lin = st["prep"], st["lin"]
    n = len(prep.test_labels)
    passes, pass_ms, cycles = [], [], 0
    for s_ix, strategy in enumerate(STRATEGIES):
        cfg = runner.config_from_image(lin, cycle_budget=SLEEP_BUDGET, strategy=strategy)
        ev, ms = _timed(runner.eval_stochastic, prep, lin, cfg,
                        runner.point_seed(seed, 16, s_ix, slot))
        pass_ms.append(ms)
        passes.append([strategy, ev.accuracy, ev.mean_cycles])
        cycles += round(ev.mean_cycles * n)
    log_acc = runner.eval_log(prep, st["log"])
    stats = {"passes": passes, "log_acc": log_acc}
    return Round(stats, pass_ms, len(passes) * n + n, cycles + n)


def sleep_gates(cycle: list) -> list:
    conv = statistics.fmean(acc for st in cycle for s, acc, _ in st["passes"]
                            if s == "conventional")
    log_acc = cycle[0]["log_acc"]
    gap = log_acc - conv
    return [_gate("conv16_within_2pt_of_log", abs(gap) <= 0.02 + PT_EPS,
                  f"16-bit@{SLEEP_BUDGET} conventional acc {conv:.4f} (mean of {len(cycle)}) "
                  f"vs log {log_acc:.4f} (|gap| {100 * abs(gap):.2f}pt <= 2)")]


# ---- log_faults ----

FAULT_TASKS = ("gesture", "sleep")


def faults_prepare(size: dict) -> dict:
    st = {}
    for name, spec in (("gesture", tasks.gesture_like_spec(seed=TASK_SEED)),
                       ("sleep", tasks.sleep_like_spec(seed=TASK_SEED))):
        prep = runner.prepare(spec)
        log_img, _ = runner.images_for_model(prep, widths=())
        st[name] = (prep, log_img)
    return st


def faults_round(st: dict, seed: int, size: dict, slot: int, tracer=None) -> Round:
    """inject_errors + eval_log per (task, ber) for trial ``slot``, plus
    eval_oracle.  The reference pass is the sleep eval_log (600 steps)."""
    acc = {task: {} for task in FAULT_TASKS}
    pass_ms, presentations = [], 0
    for b_ix, ber in enumerate(BERS):
        for k, task in enumerate(FAULT_TASKS):
            prep, img = st[task]
            bad = machine.inject_errors(img, ber, seed=runner.point_seed(seed, 2, k, b_ix, slot))
            acc[task][repr(ber)], ms = _timed(runner.eval_log, prep, bad)
            presentations += len(prep.test_labels)
            if task == "sleep":
                pass_ms.append(ms)
    oracle = {task: runner.eval_oracle(st[task][0]) for task in FAULT_TASKS}
    return Round({"acc": acc, "oracle": oracle}, pass_ms, presentations, presentations)


def faults_gates(cycle: list) -> list:
    gates = []
    for task in FAULT_TASKS:
        a = {repr(b): statistics.fmean(st["acc"][task][repr(b)] for st in cycle) for b in BERS}
        a0, a4, orc = a[repr(0.0)], a[repr(1e-4)], cycle[0]["oracle"][task]
        gates.append(_gate(f"{task}_ber0_vs_oracle", abs(a0 - orc) <= 0.02 + PT_EPS,
                           f"log acc@0 {a0:.4f} vs oracle {orc:.4f} (<= 2pt)"))
        gates.append(_gate(f"{task}_ber1e-4_flat", abs(a4 - a0) <= 0.01 + PT_EPS,
                           f"log acc@1e-4 {a4:.4f} vs @0 {a0:.4f} (<= 1pt)"))
    return gates


# ---- cli_pipeline ----

class Cli:
    """Runs ``python -m bayesim`` children in a work directory."""

    def __init__(self, python: str, env: dict, workdir: Path):
        self.python, self.env, self.workdir = python, env, workdir

    def run(self, args, tracer=None, name=None):
        cmd = [self.python, "-m", "bayesim", *map(str, args)]
        t = time.perf_counter()
        with tracer.span("cli." + name) if tracer is not None else nullcontext():
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                  capture_output=True, text=True, timeout=150)
        secs = time.perf_counter() - t
        err = None
        if proc.returncode != 0:
            err = f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return secs, err


def cli_setup(cli: Cli, seed: int, size: dict, tracer=None):
    """gen -> train -> compile log + linear, repeated in fresh directories.

    Returns (data dir, per-rep setup seconds, [(command, seconds)], errors)."""
    reps, commands, errors = [], [], []
    d = None
    for rep in range(size["setup_reps"]):
        d = f"setup{rep}"
        steps = [
            ("gen", ["gen", "--task", "gesture_like", "--seed", TASK_SEED, "--out", d]),
            ("train", ["train", "--data", f"{d}/train.csv", "--bins", 64,
                       "--out", f"{d}/model.json"]),
            ("compile", ["compile", "--model", f"{d}/model.json", "--mode", "logarithmic",
                         "--out", f"{d}/log.img"]),
            ("compile", ["compile", "--model", f"{d}/model.json", "--mode", "stochastic",
                         "--out", f"{d}/lin.img"]),
        ]
        total = 0.0
        for name, args in steps:
            secs, err = cli.run(args, tracer, name)
            total += secs
            commands.append((name, secs))
            if err:
                errors.append(err)
        reps.append(total)
    return d, reps, commands, errors


def _data_rows(path: Path) -> int:
    return sum(1 for ln in path.read_text().splitlines() if ln and not ln.startswith("#"))


def _read_csv(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _pc_mean_cycles(energy_rows, image) -> dict:
    """Power-conscious mean cycles per budget, recovered from energy.csv.

    The energy model is affine in cycles (a latch cost plus a per-cycle
    cost), so two evaluations of it give both coefficients."""
    table = energy.example_cost_table()

    def e(c):
        return energy.energy_of(energy.count_events(
            "stochastic", image.rows, image.columns, image.width, cycles=c), table)

    per_cycle = e(2) - e(1)
    latch = e(1) - per_cycle
    return {int(r["budget"]): (float(r["energy_j"]) - latch) / per_cycle
            for r in energy_rows if r["strategy"] == "power_conscious"}


def cli_round(cli: Cli, d: str, seed: int, size: dict, slot: int, tracer=None) -> Round:
    """sim -> sweep cycles -> sweep ber -> energy -> report on gesture_like."""
    trials = size["trials"]
    grid = ",".join(map(str, GESTURE_BUDGETS))
    common = ["--model", f"{d}/model.json", "--data", f"{d}/test.csv",
              "--trials", trials, "--seed", seed, "--out", f"{d}/run"]
    steps = [
        ("sim", ["sim", "--image", f"{d}/lin.img", "--budget", GESTURE_REF_BUDGET, *common]),
        ("sweep_cycles", ["sweep", "--kind", "cycles", "--grid", grid, *common]),
        ("sweep_ber", ["sweep", "--kind", "ber", "--grid", ",".join(map(repr, BERS)),
                       "--budget", GESTURE_REF_BUDGET, *common]),
        ("energy", ["energy", "--grid", grid, *common]),
        ("report", ["report", "--run", f"{d}/run", "--out", f"{d}/report"]),
    ]
    commands, errors = [], []
    for name, args in steps:
        secs, err = cli.run(args, tracer, name)
        commands.append((name, secs))
        if err:
            errors.append(err)
    pass_ms = [secs * 1e3 for _, secs in commands]
    if errors:
        return Round(None, pass_ms, 0, 0, errors, commands)

    run, base = cli.workdir / d / "run", cli.workdir / d
    names = ("sim.csv", "sweep_cycles.csv", "sweep_ber.csv", "energy.csv")
    blobs = [(run / f).read_bytes() for f in names] + [(base / "report/report.csv").read_bytes()]
    sim = _read_csv(run / "sim.csv")[0]
    cyc = _read_csv(run / "sweep_cycles.csv")
    ber = _read_csv(run / "sweep_ber.csv")
    en = _read_csv(run / "energy.csv")
    rep = _read_csv(base / "report/report.csv")
    n = _data_rows(base / "test.csv")
    pc = _pc_mean_cycles(en, machine.load_image(base / "lin.img"))
    grid_cycles = sum(b * trials * n + round(pc[b] * trials * n) for b in GESTURE_BUDGETS)
    cycles = (round(float(sim["mean_cycles"]) * trials * n)  # sim
              + grid_cycles  # sweep cycles
              + len(BERS) * trials * n * (1 + GESTURE_REF_BUDGET)  # sweep ber: log + stochastic
              + grid_cycles + n)  # energy: the same sweep plus one log pass
    presentations = (trials * n + 2 * len(GESTURE_BUDGETS) * trials * n
                     + 2 * len(BERS) * trials * n + 2 * len(GESTURE_BUDGETS) * trials * n + n)
    stats = {
        "csv_sha256": [hashlib.sha256(b).hexdigest() for b in blobs],
        "report_status": [r["status"] for r in rep],
        "cycles_acc": {f"{r['strategy']}@{r['budget']}": r["mean_acc"] for r in cyc},
        "energy_acc": {f"{r['strategy']}@{r['budget']}": r["accuracy"] for r in en},
        "ber_log0": next(r["mean_acc"] for r in ber
                         if r["machine"] == "logarithmic" and float(r["ber"]) == 0.0),
    }
    return Round(stats, pass_ms, presentations, cycles, errors, commands)


def cli_gates(cycle: list) -> list:
    stats = cycle[0]
    stoch = {k: v for k, v in stats["energy_acc"].items() if not k.startswith("logarithmic")}
    return [
        _gate("report_all_ok", all(s == "ok" for s in stats["report_status"]),
              f"report.csv statuses {sorted(set(stats['report_status']))}"),
        _gate("energy_matches_sweep", stoch == stats["cycles_acc"],
              "energy.csv accuracies equal sweep_cycles.csv at every (strategy, budget)"),
        _gate("ber0_log_matches_energy_log",
              stats["ber_log0"] == stats["energy_acc"]["logarithmic@1"],
              f"sweep_ber log@0 {stats['ber_log0']} == energy log "
              f"{stats['energy_acc']['logarithmic@1']}"),
    ]


def layer_probe(seed: int) -> None:
    """One pass through every traced layer on both tasks.

    The traced run calls this under its own tracer, so a layer metric
    that a workload's rounds never reach still gets a measured value."""
    g = gesture_prepare(SIZES["gesture_mc"]["full"])
    cfg = runner.config_from_image(g["lin"], cycle_budget=GESTURE_REF_BUDGET)
    runner.eval_stochastic(g["prep"], g["lin"], cfg, runner.point_seed(seed, 99))
    runner.eval_log(g["prep"], g["log"])
    runner.eval_oracle(g["prep"])
    for b_ix, ber in enumerate(BERS):
        machine.inject_errors(g["log"], ber, seed=runner.point_seed(seed, 99, b_ix))
    s = sleep_prepare(SIZES["sleep_filter16"]["full"])
    runner.eval_log(s["prep"], s["log"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # fixed pass-time percentile for pass_tail_ms; a 20 s full-size run has
    # well over 10 samples beyond it.  For cli_pipeline, whose passes are its
    # 5 commands, p50 and p70 sit inside the 3rd and 4th fastest command.
    tail_pct: float
    prepare: object = None  # in-process set-up; None for cli_pipeline
    round: object = None
    gates: object = None


WORKLOADS = {
    "gesture_mc": Workload(
        "gesture_mc",
        "many short presentations: per-call overhead in runner, machine, stochastic "
        "validation, the latch and energy.count_events dominates, not draw volume",
        95.0, gesture_prepare, gesture_round, gesture_gates),
    "sleep_filter16": Workload(
        "sleep_filter16",
        "sequential 16-bit filter at budget 4096: draw volume dominates, and "
        "power-conscious discards ~98% of the cycles it draws",
        70.0, sleep_prepare, sleep_round, sleep_gates),
    "log_faults": Workload(
        "log_faults",
        "deterministic one-pass log datapath plus image fault injection, no sampling: "
        "sampler changes must not move it, log-kernel changes show in full",
        98.0, faults_prepare, faults_round, faults_gates),
    "cli_pipeline": Workload(
        "cli_pipeline",
        "the only workload paying interpreter start-up, file parsing, manifest hashing "
        "and the process pool that pickles Prepared per grid point",
        70.0, None, cli_round, cli_gates),
}
