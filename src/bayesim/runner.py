"""Shared drivers: dataset -> model -> images -> accuracy/energy sweeps.

Everything here is deterministic given the base seed.  Per-point seeds are
derived from the base seed plus the grid coordinates of the point, so a
sweep gives identical numbers whether it runs serially or on a worker
pool, and regardless of completion order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import energy, machine, modelkit, stochastic, tasks
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

    @property
    def filtered(self) -> bool:
        """Filter models run through machine.run_filter, step by step."""
        return self.model.transition is not None


def config_for_model(model: modelkit.BayesModel, mode: str, width: int = 8,
                     prior_values: int | None = None, **overrides) -> machine.MachineConfig:
    """Machine geometry implied by a model: one column per feature, plus a
    leading transition column (padded to a power of two, so 4 classes get
    the 8-value column of the fabricated part) for filter models."""
    if model.transition is None:
        if prior_values is not None:
            raise ConfigError("--prior-values applies to filter models only")
        values = model.bins
    else:
        v0 = prior_values
        if v0 is None:
            v0 = 1
            while v0 < model.classes + 1:
                v0 *= 2
        values = (v0,) + model.bins
    return machine.MachineConfig(
        rows=model.classes, columns=len(values), values_per_column=values,
        mode=mode, likelihood_width=width, **overrides,
    )


def config_from_image(image: machine.MemoryImage, **overrides) -> machine.MachineConfig:
    mode = "logarithmic" if image.kind == "log" else "stochastic"
    return machine.MachineConfig(
        rows=image.rows, columns=image.columns, values_per_column=image.values_per_column,
        mode=mode, likelihood_width=image.width, **overrides,
    )


def default_bins(kind: str) -> int:
    return 8 if kind == "sleep_like" else 64


def prepare(spec: tasks.SyntheticTaskSpec, bins: int | None = None,
            alpha: float = 1.0) -> Prepared:
    train, test = tasks.generate(spec)
    filtered = spec.kind == "sleep_like"
    model = modelkit.train_model(
        train.features,
        train.labels,
        spec.classes,
        default_bins(spec.kind) if bins is None else bins,
        kind="lognormal" if filtered else "gaussian",
        with_transitions=filtered,
        alpha=alpha,
    )
    return Prepared(model, modelkit.bin_observations(model, test.features), test.labels)


def images_for_model(prep: Prepared, widths=(8,), prior_values: int | None = None):
    """Compile the log image and one linear image per requested width."""
    log_image = modelkit.compile_model(
        prep.model, config_for_model(prep.model, "logarithmic", prior_values=prior_values))
    linear = {
        w: modelkit.compile_model(
            prep.model, config_for_model(prep.model, "stochastic", width=w,
                                         prior_values=prior_values))
        for w in widths
    }
    return log_image, linear


# ---- single-machine evaluation ----

def accuracy(winners, labels) -> float:
    winners = np.asarray(winners)
    return float(np.mean(winners == np.asarray(labels)))


def eval_log(prep: Prepared, image: machine.MemoryImage) -> float:
    """Deterministic logarithmic-machine accuracy on the test split."""
    if prep.filtered:
        res = machine.run_filter(image, prep.test_obs, unknown_row=prep.model.classes,
                                 config=config_from_image(image))
    else:
        res = machine.infer_logarithmic(image, prep.test_obs)
    return accuracy(res.winner, prep.test_labels)


@dataclass
class StochasticEval:
    accuracy: float
    mean_cycles: float


def split_plan(prep: Prepared, image: machine.MemoryImage, rng_mode: str):
    """A naive model's test split latched once on ``image``; None for filter models."""
    return None if prep.filtered else stochastic.plan(image, prep.test_obs, rng_mode)


def eval_stochastic(prep: Prepared, image: machine.MemoryImage,
                    config: machine.MachineConfig, seed: int, plan=None) -> StochasticEval:
    """One stochastic pass over the test split with a fresh seeded stream:
    one batched call for naive models, from ``plan`` when given, the filter
    for filter models."""
    if prep.filtered:
        res = machine.run_filter(image, prep.test_obs, unknown_row=prep.model.classes,
                                 config=config, seed=seed)
    else:
        res = machine.infer_stochastic(image, plan or prep.test_obs, config, seed=seed)
    return StochasticEval(accuracy(res.winner, prep.test_labels),
                          res.cycles_used / len(prep.test_labels))


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
    """Mean and spread of ``trials`` stochastic passes from one `split_plan`;
    trial t runs on ``point_seed(*seed_parts, t)``."""
    plan = plan or split_plan(prep, image, cfg.rng_mode)
    evals = [eval_stochastic(prep, image, cfg, point_seed(*seed_parts, t), plan)
             for t in range(trials)]
    accs = [e.accuracy for e in evals]
    return CyclesPoint(cfg.likelihood_width, cfg.strategy, cfg.cycle_budget,
                       float(np.mean(accs)), trial_std(accs), trials,
                       float(np.mean([e.mean_cycles for e in evals])))


def sweep_cycles(prep: Prepared, image: machine.MemoryImage, budgets, trials: int,
                 seed: int, strategies=("conventional", "power_conscious")) -> list:
    """Accuracy vs cycle budget per strategy on one linear image, from one `split_plan`."""
    base = config_from_image(image)
    plan = split_plan(prep, image, base.rng_mode)
    grid = []
    for s_ix, strat in enumerate(strategies):
        for b_ix, b in enumerate(budgets):
            cfg = replace(base, strategy=strat, cycle_budget=int(b))
            grid.append((prep, image, cfg, trials, (seed, 1, cfg.likelihood_width, s_ix, b_ix),
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
    accs = []
    for t in range(trials):
        corrupted = machine.inject_errors(image, ber, seed=point_seed(seed, 2, m_ix, b_ix, t))
        if cfg is None:
            accs.append(eval_log(prep, corrupted))
        else:
            # run seed is shared across ber levels (common random numbers),
            # so accuracy differences isolate the corruption effect
            accs.append(eval_stochastic(prep, corrupted, cfg,
                                        point_seed(seed, 3, m_ix, t)).accuracy)
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


def energy_report(prep: Prepared, log_image: machine.MemoryImage,
                  lin_image: machine.MemoryImage, budgets, trials: int, seed: int,
                  table: energy.CostTable) -> energy.CrossoverReport:
    """Measured accuracy + modeled energy per budget, plus the crossover."""
    points = sweep_cycles(prep, lin_image, budgets, trials, seed)
    accs = {(p.strategy, p.budget): p.mean_acc for p in points}
    pc_cycles = {p.budget: p.mean_cycles for p in points if p.strategy == "power_conscious"}
    cfg = config_from_image(lin_image)
    return energy.crossover(cfg, table, budgets, pc_mean_cycles=pc_cycles,
                            accuracies=accs, log_accuracy=eval_log(prep, log_image))
