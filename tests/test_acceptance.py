"""Acceptance gate: the ten first-class behavioral criteria.

Each test prints one ``[criterion N] PASS/FAIL`` line with the measured
numbers (run pytest with ``-s`` to see them on success).  The trend
criteria run real Monte Carlo sweeps on the synthetic tasks with pinned
seeds, so the whole file is deterministic end to end.
"""
import math
import subprocess
import sys

import numpy as np
import pytest

from bayesim import energy, logprob, machine, modelkit, runner, stochastic, tasks
from child_env import child_env

pytestmark = pytest.mark.acceptance

SEED = 7
BUDGET_GRID = (10, 50, 100, 255)


def note(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli(args, cwd, threads="1"):
    env = child_env(threads)
    proc = subprocess.run([sys.executable, "-m", "bayesim", *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"exit {proc.returncode} with PYTHONPATH={env['PYTHONPATH']}: {args}\n{proc.stderr}")
    return proc


# ---- shared heavy computations ----

@pytest.fixture(scope="module")
def gesture():
    spec = tasks.gesture_like_spec(seed=SEED)
    prep = runner.prepare(spec)
    log_img, lin = runner.images_for_model(prep, widths=(8,))
    return prep, log_img, lin[8]


@pytest.fixture(scope="module")
def gesture_sweep(gesture):
    prep, log_img, lin8 = gesture
    log_acc = runner.eval_log(prep, log_img)
    pts = runner.sweep_cycles(prep, lin8, budgets=BUDGET_GRID, trials=100, seed=SEED)
    conv = {p.budget: p for p in pts if p.strategy == "conventional"}
    pc = {p.budget: p for p in pts if p.strategy == "power_conscious"}
    return log_acc, conv, pc


@pytest.fixture(scope="module")
def sleep():
    spec = tasks.sleep_like_spec(seed=SEED)
    prep = runner.prepare(spec)
    log_img, lin = runner.images_for_model(prep, widths=(8, 16))
    return prep, log_img, lin


def test_criterion_01_round_trip_and_half_step():
    exhaustive = all(
        logprob.encode(logprob.decode(logprob.LogCode(n))).n == n for n in range(256)
    )
    rng = np.random.default_rng(SEED)
    hi = -math.log2(logprob.MIN_PROB)
    p = 2.0 ** -rng.uniform(0.0, hi, size=100_000)
    err = np.abs(-np.log2(p) - logprob.encode_array(p) / 8.0)
    worst = float(err.max())
    ok = exhaustive and worst <= 1 / 16 + 1e-12
    note(1, ok, f"256/256 codes round-trip, worst |dlog2| = {worst:.6f} <= 1/16")


def test_criterion_02_saturation_exhaustive():
    codes = [logprob.LogCode(n) for n in range(256)]
    bad = 0
    for a in range(256):
        for b in range(256):
            out = logprob.sat_add(codes[a], codes[b]).n
            if out != min(a + b, 255) or (out == 255) != (a + b >= 255):
                bad += 1
    note(2, bad == 0, f"all 65536 pairs saturate exactly at sum >= 255 ({bad} violations)")


def test_criterion_03_oracle_agreement_with_margin():
    rng = np.random.default_rng(SEED)
    edges = [np.array([0.0, 1.0])] * 4
    agree_margin = margin_n = agree_all = 0
    n_models = 10_000
    for _ in range(n_models):
        like = [2.0 ** rng.uniform(-10.0, 0.0, size=(4, 1)) for _ in range(4)]
        like = [t / t.max() for t in like]
        m = modelkit.BayesModel(4, 4, (1,) * 4, like, None, edges)
        img = modelkit.compile_model(m, "logarithmic")
        oracle = modelkit.oracle_infer(m, [0, 0, 0, 0])
        got = machine.infer_logarithmic(img, [0, 0, 0, 0]).winner
        hit = got == oracle.winner
        agree_all += hit
        top2 = np.sort(oracle.posterior)[-2:]
        if math.log2(top2[1] / top2[0]) > (4 + 1) / 8:
            margin_n += 1
            agree_margin += hit
    overall = agree_all / n_models
    ok = agree_margin == margin_n and overall >= 0.98
    note(3, ok, f"margin cases {agree_margin}/{margin_n} agree, "
                f"overall {100 * overall:.2f}% >= 98%")


def test_criterion_04_stochastic_calibration():
    img = machine.MemoryImage([np.array([[128]], dtype=np.uint16)] * 2,
                              width=8, kind="linear")
    rng = np.random.default_rng(SEED)
    bound = 3 * math.sqrt(0.25 * 0.75 / 255)
    trials = 1000
    within = 0
    for _ in range(trials):
        res = stochastic.run_stochastic(img, [0, 0], budget=255, seed=rng)
        within += abs(res.scores[0] / 255 - 0.25) <= bound
    frac = within / trials
    note(4, frac >= 0.99, f"{100 * frac:.1f}% of {trials} trials within "
                          f"3 sigma = {bound:.4f} of 0.25 (need >= 99%)")


def test_criterion_05_gesture_budget_trend(gesture_sweep):
    log_acc, conv, _ = gesture_sweep
    steps = list(zip(BUDGET_GRID[:-1], BUDGET_GRID[1:]))
    monotone = all(conv[b2].mean_acc >= conv[b1].mean_acc - conv[b1].std_acc
                   for b1, b2 in steps)
    log_ok = log_acc >= conv[255].mean_acc - 0.01
    accs = " -> ".join(f"{conv[b].mean_acc:.3f}" for b in BUDGET_GRID)
    note(5, monotone and log_ok,
         f"conventional acc {accs} (monotone within 1 std: {monotone}), "
         f"log {log_acc:.3f} >= conv@255 {conv[255].mean_acc:.3f} - 0.01")


def test_criterion_06_sleep_width_gap(sleep):
    prep, log_img, lin = sleep
    log_acc = runner.eval_log(prep, log_img)
    trials = 20
    acc8, acc16 = [], []
    for t in range(trials):
        cfg8 = machine.MachineConfig(cycle_budget=255)
        acc8.append(runner.eval_stochastic(
            prep, lin[8], cfg8, seed=runner.point_seed(SEED, 6, 8, t)).accuracy)
        cfg16 = machine.MachineConfig(cycle_budget=4096)
        acc16.append(runner.eval_stochastic(
            prep, lin[16], cfg16, seed=runner.point_seed(SEED, 6, 16, t)).accuracy)
    gap8 = log_acc - float(np.mean(acc8))
    gap16 = log_acc - float(np.mean(acc16))
    ok = gap8 >= 0.03 and gap16 <= 0.02
    note(6, ok, f"log {log_acc:.3f}; 8-bit@255 trails by {100 * gap8:.2f}pt (>= 3), "
                f"16-bit@4096 trails by {100 * gap16:.2f}pt (<= 2)")


def test_criterion_07_power_conscious_economy(gesture, gesture_sweep):
    prep, log_img, lin8 = gesture
    _, conv, pc = gesture_sweep
    table = energy.example_cost_table()
    report = energy.crossover(log_img, lin8, table, [*conv.values(), *pc.values()])
    energy_at = {(p.strategy, p.budget): p.energy_j for p in report.points}
    ok = True
    parts = []
    for b in BUDGET_GRID:
        cycles = pc[b].mean_cycles
        e_pc = energy_at[("power_conscious", b)]
        e_conv = energy_at[("conventional", b)]
        ok = ok and cycles < b and e_pc <= e_conv
        parts.append(f"@{b}: {cycles:.1f} cyc, {e_pc / e_conv:.2f}x")
    note(7, ok, "power_conscious mean cycles < budget and energy <= conventional "
                "at every budget (" + "; ".join(parts) + ")")


def test_criterion_08_bit_error_robustness(gesture, sleep):
    bers = (0.0, 1e-4, 1e-2)
    gprep, glog, glin8 = gesture
    sprep, slog, slin = sleep
    runs = {
        "gesture": runner.sweep_ber(
            gprep, glog, glin8,
            machine.MachineConfig(cycle_budget=100),
            bers=bers, trials=50, seed=SEED),
        "sleep": runner.sweep_ber(
            sprep, slog, slin[16],
            machine.MachineConfig(cycle_budget=4096),
            bers=bers, trials=50, seed=SEED),
    }
    ok = True
    parts = []
    for name, pts in runs.items():
        acc = {(p.machine, p.ber): p.mean_acc for p in pts}
        for mac in ("logarithmic", "stochastic"):
            flat = abs(acc[(mac, 1e-4)] - acc[(mac, 0.0)])
            ok = ok and flat <= 0.01
        log_drop = acc[("logarithmic", 0.0)] - acc[("logarithmic", 1e-2)]
        sto_drop = acc[("stochastic", 0.0)] - acc[("stochastic", 1e-2)]
        ok = ok and sto_drop < log_drop
        parts.append(f"{name}: drops@1e-2 log {100 * log_drop:.1f}pt "
                     f"vs stoch {100 * sto_drop:.1f}pt")
    note(8, ok, "acc shift at ber=1e-4 <= 1pt on both machines/tasks; "
                + "; ".join(parts))


def test_criterion_09_energy_structure_via_cli(tmp_path):
    out = tmp_path / "run"
    run_cli(["gen", "--task", "gesture_like", "--seed", SEED, "--out", out], tmp_path)
    run_cli(["train", "--data", out / "train.csv", "--bins", 64,
             "--out", out / "model.json"], tmp_path)
    run_cli(["energy", "--model", out / "model.json", "--data", out / "test.csv",
             "--grid", "10,40,160,640", "--trials", 2, "--seed", SEED,
             "--out", out], tmp_path)
    rows = []
    crossover = None
    for ln in (out / "energy.csv").read_text().splitlines():
        if ln.startswith("# crossover_budget="):
            val = ln.split("=")[1]
            crossover = None if val == "none" else int(val)
        elif not ln.startswith("#"):
            rows.append(ln.split(","))
    header, rows = rows[0], rows[1:]
    by = {}
    for r in rows:
        d = dict(zip(header, r))
        by.setdefault(d["strategy"], {})[int(d["budget"])] = float(d["energy_j"])
    conv = by["conventional"]
    slopes = [(conv[40] - conv[10]) / 30, (conv[160] - conv[40]) / 120,
              (conv[640] - conv[160]) / 480]
    affine = all(math.isclose(s, slopes[0], rel_tol=1e-9) for s in slopes)
    single_log = len(by.get("logarithmic", {})) == 1
    ok = affine and single_log and crossover is not None
    note(9, ok, f"conventional energy affine (slope {slopes[0]:.3e} J/cycle), "
                f"one logarithmic point, finite crossover at budget {crossover}")


def test_criterion_10_end_to_end_determinism(tmp_path):
    def pipeline(name, threads):
        out = tmp_path / name
        run_cli(["gen", "--task", "gesture_like", "--seed", 11, "--out", out],
                tmp_path, threads)
        run_cli(["train", "--data", out / "train.csv", "--bins", 64,
                 "--out", out / "model.json"], tmp_path, threads)
        run_cli(["compile", "--model", out / "model.json", "--mode", "logarithmic",
                 "--out", out / "log.img"], tmp_path, threads)
        run_cli(["compile", "--model", out / "model.json", "--mode", "stochastic",
                 "--out", out / "lin.img"], tmp_path, threads)
        run_cli(["sweep", "--kind", "cycles", "--model", out / "model.json",
                 "--data", out / "test.csv", "--grid", "10,50", "--trials", 3,
                 "--seed", SEED, "--out", out], tmp_path, threads)
        run_cli(["energy", "--model", out / "model.json", "--data", out / "test.csv",
                 "--grid", "10,50", "--trials", 2, "--seed", SEED, "--out", out],
                tmp_path, threads)
        run_cli(["report", "--run", out, "--out", out], tmp_path, threads)
        return out

    a = pipeline("a", "1")
    b = pipeline("b", "1")
    c = pipeline("c", "2")
    names = ["train.csv", "test.csv", "model.json", "log.img", "lin.img",
             "sweep_cycles.csv", "energy.csv", "report.csv"]
    same_rerun = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    same_workers = all((a / n).read_bytes() == (c / n).read_bytes() for n in names)
    note(10, same_rerun and same_workers,
         f"{len(names)} pipeline artifacts byte-identical across reruns "
         f"(rerun: {same_rerun}) and worker counts 1 vs 2 ({same_workers})")
