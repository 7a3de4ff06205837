import pickle
import subprocess
import sys

import numpy as np
import pytest

from bayesim import energy, machine, runner, stochastic, tasks
from bayesim.errors import ConfigError
from child_env import child_env


def test_point_seed_stable_and_distinct():
    assert runner.point_seed(1, 2, 3) == runner.point_seed(1, 2, 3)
    assert runner.point_seed(1, 2, 3) != runner.point_seed(1, 2, 4)
    assert runner.point_seed(0) != runner.point_seed(0, 0)
    assert 0 <= runner.point_seed(7, 7) < 2 ** 64


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("BAYESIM_THREADS", "3")
    assert runner.worker_count() == 3
    monkeypatch.setenv("BAYESIM_THREADS", "0")
    with pytest.raises(ConfigError):
        runner.worker_count()
    monkeypatch.setenv("BAYESIM_THREADS", "many")
    with pytest.raises(ConfigError):
        runner.worker_count()


def test_trial_std_conventions():
    assert runner.trial_std([0.5]) == 0.0
    assert runner.trial_std([1.0, 3.0]) == pytest.approx(np.std([1, 3], ddof=1))


def test_prepare_and_eval_paths(monkeypatch):
    monkeypatch.setenv("BAYESIM_THREADS", "1")
    spec = tasks.gesture_like_spec(seed=8, train_size=60, test_size=20)
    prep = runner.prepare(spec)
    assert prep.test_obs.shape == (80, 6)
    log_img, lin = runner.images_for_model(prep, widths=(8, 16))
    assert log_img.kind == "log" and lin[8].kind == "linear"
    assert lin[16].width == 16
    acc = runner.eval_log(prep, log_img)
    assert 0.0 <= acc <= 1.0
    cfg = machine.MachineConfig(cycle_budget=16)
    ev = runner.eval_stochastic(prep, lin[8], cfg, seed=runner.point_seed(1))
    assert 0.0 <= ev.accuracy <= 1.0
    assert 1.0 <= ev.mean_cycles <= 16.0
    assert runner.eval_oracle(prep) >= acc - 0.05  # float oracle at least as good


def test_sweep_points_worker_invariant(monkeypatch):
    spec = tasks.gesture_like_spec(seed=8, train_size=60, test_size=20)
    prep = runner.prepare(spec)
    log_img, lin = runner.images_for_model(prep)
    cfg = machine.MachineConfig(8, "power_conscious")
    got = []
    for workers in ("1", "2"):
        monkeypatch.setenv("BAYESIM_THREADS", workers)
        pts = runner.sweep_cycles(prep, lin[8], budgets=[4, 8], trials=2, seed=5)
        ber = runner.sweep_ber(prep, log_img, lin[8], cfg, bers=(0.0, 0.05), trials=2, seed=5)
        got.append((pts, ber))
    assert got[0] == got[1]  # the plan is pickled to the two workers


@pytest.mark.parametrize("make", [tasks.gesture_like_spec, tasks.sleep_like_spec])
@pytest.mark.parametrize("strategy", stochastic.STRATEGIES)
def test_trials_point_draws_its_trials_in_turn_from_one_stream(make, strategy):
    prep = runner.prepare(make(seed=8, train_size=400, test_size=20))
    _, lin = runner.images_for_model(prep)
    cfg, parts = machine.MachineConfig(8, strategy), (5, 1, 8, 0, 1)
    rng = np.random.default_rng(runner.point_seed(*parts))
    evals = [runner.eval_stochastic(prep, lin[8], cfg, rng) for _ in range(3)]
    accs = [e.accuracy for e in evals]
    assert runner.trials_point(prep, lin[8], cfg, 3, parts) == runner.CyclesPoint(
        8, strategy, 8, float(np.mean(accs)), runner.trial_std(accs), 3,
        float(np.mean([e.mean_cycles for e in evals])))


def test_power_conscious_trials_are_rows_of_one_uniform_block(monkeypatch):
    prep = runner.prepare(tasks.gesture_like_spec(seed=8, train_size=60, test_size=20))
    _, lin = runner.images_for_model(prep)
    parts, trials, budget = (5, 1, 8, 1, 0), 4, 8
    passes, inner = [], runner.eval_stochastic

    def recorded(*args):
        passes.append(inner(*args))
        return passes[-1]

    monkeypatch.setattr(runner, "eval_stochastic", recorded)
    runner.trials_point(prep, lin[8], machine.MachineConfig(budget, "power_conscious"),
                        trials, parts)
    # trial t decides row t of one (trials, N, 3) block of the point's stream
    plan, n = runner.split_plan(prep, lin[8]), len(prep.test_labels)
    block = np.random.default_rng(runner.point_seed(*parts)).random((trials, n, 3))
    want = []
    for t in range(trials):
        _, winner, cycles = stochastic.decide(plan, block[t], budget)
        want.append((runner.accuracy(winner, prep.test_labels), int(cycles.sum()) / n))
    assert [(e.accuracy, e.mean_cycles) for e in passes] == want
    assert len(set(want)) > 1  # the trials read on, they do not replay one draw


def test_each_sweep_point_seeds_once(monkeypatch):
    monkeypatch.setenv("BAYESIM_THREADS", "1")
    prep = runner.prepare(tasks.gesture_like_spec(seed=8, train_size=60, test_size=20))
    log_img, lin = runner.images_for_model(prep)
    seeds = count_calls(monkeypatch, runner, "point_seed")
    runner.sweep_cycles(prep, lin[8], budgets=[4, 8], trials=3, seed=5)
    assert len(seeds) == 2 * 2  # one per (strategy, budget) point, not one per trial
    # every ber level draws the same runs, so two error-free levels agree
    cfg = machine.MachineConfig(8, "conventional")
    pts = runner.sweep_ber(prep, log_img, lin[8], cfg, bers=(0.0, 0.0), trials=3, seed=5)
    stoch = [p for p in pts if p.machine == "stochastic"]
    assert len(stoch) == 2 and stoch[0] == stoch[1] and stoch[0].std_acc > 0


def count_calls(monkeypatch, owner, name):
    calls, inner = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("strategies, law_calls", [(("conventional",), 0),
                                                    (stochastic.STRATEGIES, 1)])
def test_sweep_latches_once_and_builds_the_law_only_for_power_conscious(
        monkeypatch, strategies, law_calls):
    monkeypatch.setenv("BAYESIM_THREADS", "1")
    prep = runner.prepare(tasks.gesture_like_spec(seed=8, train_size=60, test_size=20))
    _, lin = runner.images_for_model(prep)
    laws = count_calls(monkeypatch, stochastic, "mask_law")
    latches = count_calls(monkeypatch, machine.MemoryImage, "latch")
    # trials_point given no plan (as `sim` calls it) builds one for its trials,
    # and a law only for a power-conscious run
    for strategy in strategies:
        runner.trials_point(prep, lin[8], machine.MachineConfig(4, strategy), 3, (5,))
    assert (len(latches), len(laws)) == (len(strategies), law_calls)
    # a sweep runs both strategies from one plan
    pts = runner.sweep_cycles(prep, lin[8], budgets=[4, 8], trials=3, seed=5)
    assert (len(latches), len(laws)) == (len(strategies) + 1, law_calls + 1)
    # without a plan every pass latches and every power-conscious one builds its own law
    monkeypatch.setattr(runner, "split_plan", lambda *args: None)
    assert runner.sweep_cycles(prep, lin[8], budgets=[4, 8], trials=3, seed=5) == pts
    assert (len(latches), len(laws)) == (len(strategies) + 1 + 2 * 2 * 3, law_calls + 1 + 2 * 3)


@pytest.mark.parametrize("strategies, law_calls", [(("conventional",), 0),
                                                    (stochastic.STRATEGIES, 1)])
def test_filter_sweep_builds_one_pair_law_only_for_power_conscious(
        monkeypatch, strategies, law_calls):
    monkeypatch.setenv("BAYESIM_THREADS", "1")
    prep = runner.prepare(tasks.sleep_like_spec(seed=8, train_size=400, test_size=30))
    _, lin = runner.images_for_model(prep)
    laws = count_calls(monkeypatch, stochastic, "mask_law")
    for strategy in strategies:
        runner.trials_point(prep, lin[8], machine.MachineConfig(4, strategy), 3, (5,))
    # one law over every (step, previous winner or unknown state) pair
    pair_law = [30 * (lin[8].rows + 1)]
    assert [codes.shape[0] for codes, *_ in laws] == pair_law * law_calls
    pts = runner.sweep_cycles(prep, lin[8], budgets=[4, 8], trials=3, seed=5)
    assert [codes.shape[0] for codes, *_ in laws] == pair_law * (law_calls + 1)
    # without a plan every power-conscious pass builds its own pair law
    monkeypatch.setattr(runner, "split_plan", lambda *args: None)
    assert runner.sweep_cycles(prep, lin[8], budgets=[4, 8], trials=3, seed=5) == pts
    assert len(laws) == law_calls + 1 + 2 * 3


def test_sweep_plan_pickles_with_its_law(monkeypatch):
    prep = runner.prepare(tasks.gesture_like_spec(seed=8, train_size=60, test_size=20))
    _, lin = runner.images_for_model(prep)
    plan = runner.split_plan(prep, lin[8])
    cum = plan.cum_law
    laws = count_calls(monkeypatch, stochastic, "mask_law")
    # a pool pickles a grid point's image and plan together, so the copy
    # still belongs to the copied image
    image, copy = pickle.loads(pickle.dumps((lin[8], plan)))
    assert copy.cum_law.tobytes() == cum.tobytes() and laws == []
    assert copy.codes.tobytes() == plan.codes.tobytes() and copy.image is image


def test_cli_import_leaves_process_pool_out():
    # the pool is imported only when a map runs on more than one worker
    probe = "import sys, bayesim.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("make", [tasks.gesture_like_spec, tasks.sleep_like_spec])
def test_empty_test_split_is_refused(make):
    prep = runner.prepare(make(seed=8, train_size=400, test_size=20))
    # refused by name where the split is made, before anything is latched or sampled
    with pytest.raises(ConfigError, match="the test split is empty"):
        runner.Prepared(prep.model, prep.test_obs[:0], prep.test_labels[:0])


def test_energy_report_prices_each_point_on_its_own_image(monkeypatch):
    # the log machine reads 8-bit codes whatever width the linear image has
    monkeypatch.setenv("BAYESIM_THREADS", "1")
    prep = runner.prepare(tasks.gesture_like_spec(seed=8, train_size=60, test_size=20))
    log_img, lin = runner.images_for_model(prep, widths=(16,))
    table = energy.example_cost_table()
    pts = runner.sweep_cycles(prep, lin[16], [4], 1, 5)
    rep = energy.crossover(log_img, lin[16], table, pts)
    by = {p.strategy: p.energy_j for p in rep.points}
    rows, cols = log_img.rows, log_img.columns
    assert by["logarithmic"] == energy.energy_of(
        energy.count_events("logarithmic", rows, cols, 8), table)
    assert by["conventional"] == energy.energy_of(
        energy.count_events("stochastic", rows, cols, 16, cycles=4), table)
    # a power-conscious point at its own measured mean cycles
    assert by["power_conscious"] == energy.energy_of(
        energy.count_events("stochastic", rows, cols, 16, cycles=pts[1].mean_cycles), table)
