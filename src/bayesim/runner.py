"""Shared drivers: dataset -> model -> images -> accuracy sweeps.

Everything here is deterministic given the base seed.  A sweep point's
trials draw in turn from one stream seeded by the base seed plus the point's
grid coordinates, so a sweep gives identical numbers whether it runs serially
or on a worker pool, and regardless of completion order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import machine, modelkit, stochastic, tasks
from .errors import ConfigError


def point_seed(*parts) -> int:
    """Stable 64-bit seed from integer grid coordinates.

    The arity is folded in because SeedSequence ignores trailing zero
    entropy words, which would alias (s, 0) with (s,).
    """
    seq = np.random.SeedSequence([len(parts)] + [int(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])


def worker_count() -> int:
    """Worker cap from BAYESIM_THREADS (default: number of CPUs)."""
    raw = os.environ.get("BAYESIM_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ConfigError(f"BAYESIM_THREADS must be an integer, got {raw!r}")
        if n < 1:
            raise ConfigError("BAYESIM_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _pmap(fn, items):
    """Order-preserving ``fn(*item)`` over grid points, parallel when allowed."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(*it) for it in items]
    # imported here: the process pool costs a serial run about 1 MB of RSS
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*items)))


# ---- task preparation ----

@dataclass
class Prepared:
    """A trained task: model plus binned test observations."""

    model: modelkit.BayesModel
    test_obs: np.ndarray  # (steps, features) bin addresses
    test_labels: np.ndarray

    def __post_init__(self):
        if not len(self.test_labels):
            raise ConfigError("the test split is empty: nothing to evaluate")

    @property
    def filtered(self) -> bool:
        """Filter models run through machine.run_filter."""
        return self.model.transition is not None


def config_from_image(image: machine.MemoryImage, **overrides) -> machine.MachineConfig:
    """``MachineConfig(**overrides)``: the image holds the geometry, so it
    adds nothing.  Kept for the benchmark harness, its last caller."""
    return machine.MachineConfig(**overrides)


def prepare(spec: tasks.SyntheticTaskSpec) -> Prepared:
    train, test = tasks.generate(spec)
    filtered = spec.kind == "sleep_like"
    model = modelkit.train_model(
        train.features,
        train.labels,
        spec.classes,
        8 if filtered else 64,  # bins per feature
        kind="lognormal" if filtered else "gaussian",
        with_transitions=filtered,
    )
    return Prepared(model, modelkit.bin_observations(model, test.features), test.labels)


def images_for_model(prep: Prepared, widths=(8,)):
    """Compile the log image and one linear image per requested width."""
    log_image = modelkit.compile_model(prep.model, "logarithmic")
    linear = {w: modelkit.compile_model(prep.model, "stochastic", w) for w in widths}
    return log_image, linear


# ---- single-machine evaluation ----

def accuracy(winners, labels) -> float:
    hits = np.asarray(winners) == np.asarray(labels)
    return float(np.count_nonzero(hits)) / hits.size


def eval_log(prep: Prepared, image: machine.MemoryImage) -> float:
    """Deterministic logarithmic-machine accuracy on the test split."""
    if prep.filtered:
        res = machine.run_filter(image, prep.test_obs)
    else:
        res = machine.infer_logarithmic(image, prep.test_obs)
    return accuracy(res.winner, prep.test_labels)


@dataclass
class StochasticEval:
    accuracy: float
    mean_cycles: float


def split_plan(prep: Prepared, image: machine.MemoryImage):
    """The test split latched once on ``image``: a naive model's `stochastic.plan`,
    or a filter model's `machine.filter_plan` of every (step, previous winner) pair."""
    if prep.filtered:
        return machine.filter_plan(image, prep.test_obs)
    return stochastic.plan(image, prep.test_obs)


def eval_stochastic(prep: Prepared, image: machine.MemoryImage,
                    config: machine.MachineConfig, seed, plan=None) -> StochasticEval:
    """One stochastic pass over the test split, drawn from ``seed`` (an int, or a
    numpy Generator read on from where it stands): one batched call for naive
    models, the filter for filter models, each from the `split_plan` ``plan`` if given."""
    if prep.filtered:
        res = machine.run_filter(image, prep.test_obs, config=config, seed=seed, plan=plan)
    else:
        res = machine.infer_stochastic(image, plan or prep.test_obs, config, seed=seed)
    n = len(prep.test_labels)
    return StochasticEval(accuracy(res.winner, prep.test_labels), int(res.cycles.sum()) / n)


def eval_oracle(prep: Prepared) -> float:
    """Exact float-model accuracy, the reference ceiling for both machines."""
    if prep.filtered:
        winners = modelkit.oracle_filter(prep.model, prep.test_obs)
    else:
        winners = modelkit.oracle_infer(prep.model, prep.test_obs).winner
    return accuracy(winners, prep.test_labels)


# ---- sweeps ----

@dataclass
class CyclesPoint:
    width: int
    strategy: str
    budget: int
    mean_acc: float
    std_acc: float
    trials: int
    mean_cycles: float


def trial_std(xs) -> float:
    """Error-bar convention: one sample standard deviation across trials."""
    return float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0


def trials_point(prep: Prepared, image: machine.MemoryImage, cfg: machine.MachineConfig,
                 trials: int, seed_parts, plan=None) -> CyclesPoint:
    """Mean and spread of ``trials`` stochastic passes from one `split_plan`,
    drawn in turn from one stream seeded by ``point_seed(*seed_parts)``."""
    plan = plan or split_plan(prep, image)
    rng = np.random.default_rng(point_seed(*seed_parts))
    evals = [eval_stochastic(prep, image, cfg, rng, plan) for _ in range(trials)]
    accs = [e.accuracy for e in evals]
    return CyclesPoint(image.width, cfg.strategy, cfg.cycle_budget,
                       float(np.mean(accs)), trial_std(accs), trials,
                       float(np.mean([e.mean_cycles for e in evals])))


def sweep_cycles(prep: Prepared, image: machine.MemoryImage, budgets, trials: int,
                 seed: int) -> list:
    """Accuracy vs cycle budget per strategy on one linear image, from one `split_plan`."""
    plan = split_plan(prep, image)
    grid = []
    for s_ix, strat in enumerate(stochastic.STRATEGIES):
        for b_ix, b in enumerate(budgets):
            cfg = machine.MachineConfig(int(b), strat)
            grid.append((prep, image, cfg, trials, (seed, 1, image.width, s_ix, b_ix),
                         plan))
    return _pmap(trials_point, grid)


@dataclass
class BerPoint:
    machine: str  # "logarithmic" or "stochastic"
    ber: float
    mean_acc: float
    std_acc: float
    trials: int


def _ber_point(prep, image, cfg, ber, trials, seed, m_ix, b_ix):
    faults = np.random.default_rng(point_seed(seed, 2, m_ix, b_ix))
    # runs are keyed by machine only and every pass draws a fixed amount, so all
    # ber levels draw the same runs (common random numbers) and differ by corruption
    runs = None if cfg is None else np.random.default_rng(point_seed(seed, 3, m_ix))
    accs = []
    for _ in range(trials):
        corrupted = machine.inject_errors(image, ber, seed=faults)
        accs.append(eval_log(prep, corrupted) if cfg is None
                    else eval_stochastic(prep, corrupted, cfg, runs).accuracy)
    return BerPoint("logarithmic" if cfg is None else "stochastic",
                    ber, float(np.mean(accs)), trial_std(accs), trials)


def sweep_ber(prep: Prepared, log_image: machine.MemoryImage,
              lin_image: machine.MemoryImage, stoch_config: machine.MachineConfig,
              bers, trials: int, seed: int) -> list:
    """Accuracy vs memory bit-error rate for both machines.

    Every trial freezes one random flip pattern (severity ber) into a copy
    of the image and scores the whole test split against it.
    """
    grid = []
    for b_ix, ber in enumerate(bers):
        grid.append((prep, log_image, None, float(ber), trials, seed, 0, b_ix))
    for b_ix, ber in enumerate(bers):
        grid.append((prep, lin_image, stoch_config, float(ber), trials, seed, 1, b_ix))
    return _pmap(_ber_point, grid)


def sweep_bits(prep: Prepared, linear_images: dict, budgets, trials: int, seed: int) -> list:
    """Cycle sweeps for each linear code width, concatenated."""
    out = []
    for w in sorted(linear_images):
        out.extend(sweep_cycles(prep, linear_images[w], budgets, trials, seed))
    return out

