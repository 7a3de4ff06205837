"""Batched inference equals one presentation at a time.

`infer_logarithmic` and the oracles score a whole batch in one call; these
properties pin them to per-vector calls and `oracle_filter` to a per-step
float reference.  The logarithmic filter is pinned to the brute-force
filter of test_machine on random images, and a filter's result to its
per-step calls.  The stochastic sampler draws a whole batch at once:
properties pin its counters, stop cycles, winners and totals, and
chi-square tests on one batch of identical presentations pin its winner
split, stop-cycle law and tie-breaks to their exact laws.  Conventional
runs, and power-conscious runs above the law's row cap, equal a
cycle-by-cycle reference draw for draw; power-conscious runs sampled from
the mask law are compared with that reference by chi-square tests.  A
call from a `stochastic.plan` equals the call that latches for itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesim import energy, machine, modelkit, stochastic
from bayesim.errors import ConfigError
from bayesim.machine import MachineConfig, MemoryImage
from bayesim.modelkit import BayesModel
from test_machine import filter_oracle
from test_stochastic import enum_first_fire_winner

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def log_images(draw, rows=None, sizes=None):
    """A random 8-bit log image; sums of codes up to 255 saturate often."""
    if rows is None:
        rows = draw(st.integers(1, 5))
    if sizes is None:
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    blocks = [np.array(draw(st.lists(st.lists(st.integers(0, 255), min_size=v, max_size=v),
                                      min_size=rows, max_size=rows)))
              for v in sizes]
    return MemoryImage(blocks, 8, "log")


@st.composite
def address_batches(draw, sizes, n_min=1):
    n = draw(st.integers(n_min, 12))
    return np.array([[draw(st.integers(0, v - 1)) for v in sizes] for _ in range(n)],
                    dtype=np.int64).reshape(n, len(sizes))


@SETTINGS
@given(st.data())
def test_batched_log_inference_equals_per_vector(data):
    img = data.draw(log_images())
    obs = data.draw(address_batches(img.values_per_column))
    batch = machine.infer_logarithmic(img, obs)
    one = [machine.infer_logarithmic(img, o) for o in obs]
    assert np.array_equal(batch.scores, np.array([r.scores for r in one]))
    assert batch.winner.tolist() == [r.winner for r in one]
    assert all(isinstance(r.winner, int) for r in one)


@SETTINGS
@given(st.data())
def test_log_filter_equals_brute_force(data):
    rows = data.draw(st.integers(1, 4))
    v0 = data.draw(st.integers(rows + 1, rows + 4))  # V0 > rows+1 included
    feat_sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    sizes = [v0] + feat_sizes
    img = data.draw(log_images(rows, sizes))
    feats = data.draw(address_batches(feat_sizes))
    unknown = data.draw(st.integers(0, v0 - 1))
    cfg = MachineConfig(rows=rows, columns=len(sizes), values_per_column=sizes)
    res = machine.run_filter(img, feats, unknown_row=unknown, config=cfg)
    winners = filter_oracle(img.blocks, feats, unknown)
    assert res.winner.tolist() == winners
    prev = [unknown] + winners[:-1]
    for scores, p, step in zip(res.scores, prev, feats):
        assert np.array_equal(scores, machine.infer_logarithmic(img, [p, *step]).scores)


@st.composite
def models(draw, with_transitions=False):
    classes = draw(st.integers(1, 10))  # above 8, numpy sums pairwise
    bins = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    prob = st.one_of(st.floats(1e-6, 1.0), st.sampled_from([1e-200, 1e-160, 1.0]))
    like = [np.array(draw(st.lists(st.lists(prob, min_size=b, max_size=b),
                                   min_size=classes, max_size=classes)))
            for b in bins]
    transition = None
    if with_transitions:
        t = np.array(draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=classes,
                                            max_size=classes),
                                   min_size=classes, max_size=classes)))
        transition = t / t.sum(axis=1, keepdims=True)
    return BayesModel(classes, len(bins), tuple(bins), like, np.full(classes, 1.0 / classes),
                      transition, [np.arange(b + 1, dtype=float) for b in bins])


@SETTINGS
@given(st.data())
def test_batched_oracle_is_bit_equal_to_per_vector(data):
    m = data.draw(models())
    obs = data.draw(address_batches(m.bins))
    batch = modelkit.oracle_infer(m, obs)
    one = [modelkit.oracle_infer(m, o) for o in obs]
    assert np.array_equal(batch.posterior, np.array([r.posterior for r in one]))
    assert batch.winner.tolist() == [r.winner for r in one]
    assert batch.degenerate.tolist() == [r.degenerate for r in one]


def oracle_filter_reference(model, obs_seq):
    """Per-step float filter: weights times each likelihood, normalized,
    argmax; the winner's transition row weights the next step."""
    winners = []
    weights = np.full(model.classes, 1.0 / model.classes)
    for obs in obs_seq:
        post = weights.copy()
        for c in range(model.features):
            post *= model.likelihood[c][:, obs[c]]
        s = post.sum()
        winner = int(np.argmax(post / s)) if s > 0 else 0
        winners.append(winner)
        weights = model.transition[winner]
    return winners


@SETTINGS
@given(st.data())
def test_oracle_filter_equals_per_step_reference(data):
    m = data.draw(models(with_transitions=True))
    obs = data.draw(address_batches(m.bins))
    assert modelkit.oracle_filter(m, obs) == oracle_filter_reference(m, obs)


@SETTINGS
@given(st.data())
def test_batch_latch_with_one_bad_row_raises(data):
    img = data.draw(log_images())
    sizes = img.values_per_column
    obs = data.draw(address_batches(sizes))
    n = data.draw(st.integers(0, len(obs) - 1))
    c = data.draw(st.integers(0, len(sizes) - 1))
    obs[n, c] = data.draw(st.one_of(st.integers(-2**40, -1), st.integers(sizes[c], 2**40)))
    with pytest.raises(ConfigError, match=f"column {c}"):
        img.latch(obs)
    with pytest.raises(ConfigError, match=f"column {c}"):
        machine.infer_logarithmic(img, obs)


# ---- stochastic sampler ----

@st.composite
def linear_images(draw, rows=None, sizes=None):
    """A random linear image; codes lean to 0, half and top so rows both
    fire and stay quiet."""
    width = draw(st.sampled_from([8, 16]))
    top = (1 << width) - 1
    if rows is None:
        rows = draw(st.integers(1, 4))
    if sizes is None:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    code = st.one_of(st.integers(0, top), st.sampled_from([0, top // 2, top]))
    blocks = [np.array(draw(st.lists(st.lists(code, min_size=v, max_size=v),
                                      min_size=rows, max_size=rows)))
              for v in sizes]
    return MemoryImage(blocks, width, "linear")


@st.composite
def sampler_runs(draw, strategies=stochastic.STRATEGIES, rows=None):
    img = draw(linear_images(rows))
    obs = draw(address_batches(img.values_per_column))
    opts = dict(budget=draw(st.integers(1, 40)),
                strategy=draw(st.sampled_from(strategies)),
                rng_mode=draw(st.sampled_from(stochastic.RNG_MODES)),
                seed=draw(st.integers(0, 2**32)))
    return img, obs, opts


def cycle_reference(img, obs, budget, strategy, rng_mode, seed):
    """The cycle kernel one presentation and one cycle at a time, on the
    same stream: one block of bit draws in presentation, cycle, [row,]
    column order, then one tie-break uniform per presentation."""
    rng = np.random.default_rng(seed)
    codes = img.latch(obs).tolist()
    n, rows, cols = len(codes), img.rows, img.columns
    shape = (n, budget, cols) if rng_mode == "column_shared" else (n, budget, rows, cols)
    draws = rng.integers(0, 1 << img.width, size=shape,
                         dtype=np.uint8 if img.width == 8 else np.uint16).tolist()
    ties = rng.random(n).tolist()
    out = []
    for i in range(n):
        counters, cycles, fired = [0] * rows, budget, []
        for t in range(budget):
            d = draws[i][t]
            if rng_mode == "column_shared":
                d = [d] * rows  # every row of a column sees its one draw
            fired = [all(d[r][c] < codes[i][r][c] for c in range(cols)) for r in range(rows)]
            counters = [k + f for k, f in zip(counters, fired)]
            if strategy == "power_conscious" and any(fired):
                cycles = t + 1
                break
        stopped = strategy == "power_conscious" and any(fired)
        if strategy == "conventional":
            cand = [r for r in range(rows) if counters[r] == max(counters)]
        else:
            cand = [r for r in range(rows) if fired[r]] if stopped else list(range(rows))
        pick = min(int(ties[i] * len(cand)), len(cand) - 1)
        out.append((counters, cycles, cand[pick], stopped))
    return out


def assert_equals_cycle_reference(img, obs, opts):
    res = stochastic.run_stochastic(img, obs, **opts)
    # the docstring's rule: power-conscious stopped early iff any score fired
    stopped = res.scores.any(axis=1) & (opts["strategy"] == "power_conscious")
    got = list(zip(res.scores.tolist(), res.cycles.tolist(), res.winner.tolist(),
                   stopped.tolist()))
    assert got == cycle_reference(img, obs, **opts)


@SETTINGS
@given(sampler_runs(strategies=("conventional",)))
def test_sampler_equals_cycle_reference(run):
    assert_equals_cycle_reference(*run)


@SETTINGS
@given(sampler_runs(strategies=("power_conscious",), rows=stochastic.LAW_MAX_ROWS + 1))
def test_power_conscious_above_row_cap_equals_cycle_reference(run):
    assert_equals_cycle_reference(*run)


@SETTINGS
@given(sampler_runs())
def test_batch_of_one_is_the_single_vector_call(run):
    img, obs, opts = run
    one = stochastic.run_stochastic(img, obs[0], **opts)
    batch = stochastic.run_stochastic(img, obs[:1], **opts)
    assert np.array_equal(batch.scores, one.scores[np.newaxis])
    assert (batch.cycles.tolist(), batch.winner.tolist()) == ([one.cycles], [one.winner])
    assert batch.event_counts == one.event_counts
    assert isinstance(one.winner, int) and isinstance(one.cycles, int)


@SETTINGS
@given(sampler_runs())
def test_sampler_counters_cycles_and_winners(run):
    img, obs, opts = run
    res = stochastic.run_stochastic(img, obs, **opts)
    n, budget = len(obs), opts["budget"]
    assert res.scores.shape == (n, img.rows)
    assert np.all((res.cycles >= 1) & (res.cycles <= budget))
    assert np.all((res.scores >= 0) & (res.scores <= res.cycles[:, np.newaxis]))
    won = res.scores[np.arange(n), res.winner]
    if opts["strategy"] == "conventional":
        assert np.array_equal(won, res.scores.max(axis=1))
        assert np.all(res.cycles == budget)
    else:
        # the winner fired at its stop cycle, or nothing fired in the budget
        stopped = res.scores.any(axis=1)
        assert np.all(won[stopped] == 1)
        assert np.all(res.cycles[~stopped] == budget)


def assert_same_result(a, b):
    assert type(a.winner) is type(b.winner) and type(a.cycles) is type(b.cycles)
    assert np.array_equal(a.scores, b.scores) and np.array_equal(a.winner, b.winner)
    assert np.array_equal(a.cycles, b.cycles) and a.event_counts == b.event_counts


@SETTINGS
@given(st.one_of(sampler_runs(), sampler_runs(rows=stochastic.LAW_MAX_ROWS + 1)), st.booleans())
def test_plan_call_equals_plain_call(run, single):
    img, obs, opts = run
    obs = obs[0] if single else obs
    plan = stochastic.plan(img, obs, opts["rng_mode"])
    # conventional first: the plan's law is built by the first power-conscious
    # call and reused by the second
    for strategy in ("conventional", "power_conscious", "power_conscious"):
        opts["strategy"] = strategy
        assert_same_result(stochastic.run_stochastic(img, plan, **opts),
                           stochastic.run_stochastic(img, obs, **opts))


def test_plan_for_another_mode_or_image_is_refused():
    codes = np.array([[10, 200], [128, 255]])
    img = MemoryImage([codes], 8, "linear")
    plan = stochastic.plan(img, [[0], [1]], "column_shared")
    # a plan belongs to the image object it latched: an equal copy, or one
    # with the same geometry and width, may hold other codes
    others = [(img, "per_cell"), (MemoryImage([codes], 16, "linear"), "column_shared"),
              (MemoryImage([np.vstack([codes, codes])], 8, "linear"), "column_shared"),
              (machine.inject_errors(img, 0.0), "column_shared")]
    for other, rng_mode in others:
        for strategy in stochastic.STRATEGIES:
            with pytest.raises(ConfigError, match="plan was not built"):
                stochastic.run_stochastic(other, plan, 8, strategy, rng_mode)
    cfg = MachineConfig(rows=2, columns=1, values_per_column=(2,), mode="stochastic",
                        rng_mode="per_cell")
    with pytest.raises(ConfigError, match="plan was not built"):
        machine.infer_stochastic(img, plan, cfg)
    log_cfg = MachineConfig(rows=2, columns=1, values_per_column=(2,))
    with pytest.raises(ConfigError):
        machine.infer_stochastic(MemoryImage([codes], 8, "log"), [0], log_cfg)
    with pytest.raises(ConfigError):
        stochastic.plan(img, [[0], [1]], "row_shared")
    with pytest.raises(ConfigError):
        stochastic.plan(MemoryImage([codes], 8, "log"), [[0]])
    with pytest.raises(ConfigError):
        stochastic.plan(img, [[2]])


def event_fields(counts):
    return np.array([getattr(counts, f) for f in energy.EVENT_KINDS])


@SETTINGS
@given(sampler_runs())
def test_batch_totals_equal_per_presentation_totals(run):
    img, obs, opts = run
    cfg = MachineConfig(rows=img.rows, columns=img.columns,
                        values_per_column=img.values_per_column, mode="stochastic",
                        likelihood_width=img.width, cycle_budget=opts["budget"],
                        strategy=opts["strategy"], rng_mode=opts["rng_mode"])
    res = machine.infer_stochastic(img, obs, cfg, seed=opts["seed"])
    ref = stochastic.run_stochastic(img, obs, **opts)
    assert np.array_equal(res.winner, ref.winner) and np.array_equal(res.scores, ref.scores)
    assert np.array_equal(res.cycles, ref.cycles)
    assert res.cycles_used == int(ref.cycles.sum())
    each = sum(event_fields(energy.count_events("stochastic", img.rows, img.columns, img.width,
                                                cycles=int(c), rng_mode=opts["rng_mode"]))
               for c in ref.cycles)
    assert np.array_equal(event_fields(res.event_counts), each)


@SETTINGS
@given(st.data())
def test_log_batch_totals_equal_per_presentation_totals(data):
    img = data.draw(log_images())
    obs = data.draw(address_batches(img.values_per_column))
    res = machine.infer_logarithmic(img, obs)
    one = [machine.infer_logarithmic(img, o) for o in obs]
    assert res.cycles_used == sum(r.cycles_used for r in one) == len(obs)
    assert np.array_equal(event_fields(res.event_counts),
                          sum(event_fields(r.event_counts) for r in one))


@st.composite
def filter_runs(draw):
    """A random filter machine of either mode, its steps and its options."""
    mode = draw(st.sampled_from(machine.MODES))
    rows = draw(st.integers(1, 4))
    v0 = draw(st.integers(rows + 1, rows + 3))
    feat_sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    sizes = [v0] + feat_sizes
    images = log_images if mode == "logarithmic" else linear_images
    img = draw(images(rows, sizes))
    cfg = MachineConfig(rows=rows, columns=len(sizes), values_per_column=sizes, mode=mode,
                        likelihood_width=img.width,
                        cycle_budget=draw(st.integers(1, 40)),
                        strategy=draw(st.sampled_from(stochastic.STRATEGIES)),
                        rng_mode=draw(st.sampled_from(stochastic.RNG_MODES)))
    feats = draw(address_batches(feat_sizes))
    return img, cfg, feats, draw(st.integers(0, v0 - 1)), draw(st.integers(0, 2**32))


@SETTINGS
@given(filter_runs())
def test_filter_totals_equal_per_step_totals(run):
    img, cfg, feats, unknown, seed = run
    res = machine.run_filter(img, feats, unknown_row=unknown, config=cfg, seed=seed)
    # the same steps one call at a time, on the same stream
    rng, prev, steps = np.random.default_rng(seed), unknown, []
    for step in feats:
        if cfg.mode == "logarithmic":
            steps.append(machine.infer_logarithmic(img, [prev, *step]))
        else:
            steps.append(machine.infer_stochastic(img, [prev, *step], cfg, seed=rng))
        prev = steps[-1].winner
    assert res.scores.shape == (len(feats), img.rows)
    assert res.winner.shape == res.cycles.shape == (len(feats),)
    assert np.array_equal(res.scores, [r.scores for r in steps])
    assert res.winner.tolist() == [r.winner for r in steps]
    assert res.cycles.tolist() == [r.cycles for r in steps]
    assert res.cycles_used == sum(r.cycles_used for r in steps)
    assert np.array_equal(event_fields(res.event_counts),
                          sum(event_fields(r.event_counts) for r in steps))


@pytest.mark.parametrize("mode,kind", [("logarithmic", "log"), ("stochastic", "linear")])
def test_empty_filter_sequence_is_refused(mode, kind):
    img = MemoryImage([np.zeros((2, 3), dtype=np.uint16), np.zeros((2, 2), dtype=np.uint16)],
                      8, kind)
    cfg = MachineConfig(rows=2, columns=2, values_per_column=(3, 2), mode=mode)
    with pytest.raises(ConfigError, match="steps >= 1"):
        machine.run_filter(img, np.zeros((0, 1), dtype=np.int64), unknown_row=2, config=cfg)


# upper 0.1% points of the chi-square law by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322,
            8: 26.124, 9: 27.877}
TRIALS = 20_000


def chi_square(observed, expected) -> float:
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    assert abs(observed.sum() - expected.sum()) < 1e-6 * expected.sum()
    return float(((observed - expected) ** 2 / expected).sum())


def two_sample_chi_square(a, b) -> tuple[float, int]:
    """Homogeneity statistic of two equal-sized samples binned alike, and
    its degrees of freedom; bins empty in both carry nothing."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.sum() == b.sum()
    seen = a + b > 0
    return float(((a - b)[seen] ** 2 / (a + b)[seen]).sum()), int(seen.sum()) - 1


def same_presentation(img, n=TRIALS):
    return np.zeros((n, img.columns), dtype=np.int64)


def lin(columns, width=8):
    return MemoryImage([np.asarray(c) for c in columns], width, "linear")


def test_power_conscious_winner_split_chi_square():
    # per-cell fires at P = 0.5 and 0.25; quiet to the budget with P = 0.375**64
    img = lin([[[128], [64]]])
    res = stochastic.run_stochastic(img, same_presentation(img), budget=64,
                                    strategy="power_conscious", rng_mode="per_cell", seed=101)
    assert res.scores.any(axis=1).all()  # every presentation stopped early
    p0 = enum_first_fire_winner(0.5, 0.25)
    wins = np.bincount(res.winner, minlength=2)
    assert chi_square(wins, [p0 * TRIALS, (1 - p0) * TRIALS]) < CHI2_999[1]


@pytest.mark.parametrize("rng_mode,columns,q", [
    # one shared draw per column: some row fires iff the draw is below the top code
    ("column_shared", [[[64], [32]]], 64 / 256),
    # independent cells: row r fires with the product of its codes
    ("per_cell", [[[128], [64]], [[128], [192]]], 1 - (1 - 0.25) * (1 - 0.1875)),
])
def test_stop_cycle_follows_truncated_geometric_law(rng_mode, columns, q):
    img = lin(columns)
    budget = 6
    res = stochastic.run_stochastic(img, same_presentation(img), budget=budget,
                                    strategy="power_conscious", rng_mode=rng_mode, seed=202)
    # bins: stopped at cycle 1..budget, then quiet for the whole budget
    stopped = res.scores.any(axis=1)
    observed = np.bincount(res.cycles[stopped] - 1, minlength=budget).tolist()
    observed.append(int((~stopped).sum()))
    law = [(1 - q) ** (t - 1) * q for t in range(1, budget + 1)] + [(1 - q) ** budget]
    assert np.all(res.cycles[~stopped] == budget)
    assert chi_square(observed, np.array(law) * TRIALS) < CHI2_999[budget]


@pytest.mark.parametrize("strategy,code", [
    ("conventional", 150),  # equal rows, one shared draw: every counter ties
    ("power_conscious", 0),  # nothing fires: the fallback ties every row
])
def test_random_ties_are_uniform(strategy, code):
    rows = 4
    img = lin([np.full((rows, 1), code), np.full((rows, 1), 200)])
    res = stochastic.run_stochastic(img, same_presentation(img), budget=16,
                                    strategy=strategy, seed=303)
    assert (res.scores == res.scores[:, :1]).all()
    wins = np.bincount(res.winner, minlength=rows)
    assert chi_square(wins, np.full(rows, TRIALS / rows)) < CHI2_999[rows - 1]


# (rng mode, width, columns): two or three rows whose masks all occur;
# the last fires nested row sets only, which a product of row rates misses
LAW_IMAGES = [
    ("column_shared", 8, [[[128], [64]], [[100], [200]]]),
    ("per_cell", 8, [[[128], [64]], [[128], [192]]]),
    ("per_cell", 16, [[[32768], [16384]], [[40000], [52000]]]),
    ("column_shared", 16, [[[30000], [20000], [10000]]]),
]


def reference_runs(img, budget, rng_mode, seed):
    """cycle_reference on TRIALS identical power-conscious presentations, as
    (scores, cycles, winner) arrays."""
    ref = cycle_reference(img, same_presentation(img), budget, "power_conscious", rng_mode, seed)
    scores, cycles, winner, _ = zip(*ref)
    return np.array(scores), np.array(cycles), np.array(winner)


@pytest.mark.parametrize("rng_mode,width,columns", LAW_IMAGES)
def test_power_conscious_stop_and_mask_match_cycle_reference(rng_mode, width, columns):
    img, budget = lin(columns, width), 4
    res = stochastic.run_stochastic(img, same_presentation(img), budget=budget,
                                    strategy="power_conscious", rng_mode=rng_mode, seed=404)
    ref = reference_runs(img, budget, rng_mode, seed=505)

    def joint(scores, cycles):
        # bins: stop cycle 1, 2 or later, times the fired mask; then no fire
        mask = scores @ (1 << np.arange(img.rows))
        key = np.where(mask > 0, ((np.minimum(cycles, 3) - 1) << img.rows) + mask,
                       3 << img.rows)
        return np.bincount(key, minlength=(3 << img.rows) + 1)

    assert np.all(res.cycles[~res.scores.any(axis=1)] == budget)
    stat, df = two_sample_chi_square(joint(res.scores, res.cycles), joint(*ref[:2]))
    assert stat < CHI2_999[df]


@pytest.mark.parametrize("rng_mode,columns", [
    ("column_shared", [[[200], [200], [100]]]),  # rows 0 and 1 always fire together
    ("per_cell", [[[128], [128], [64]], [[160], [160], [255]]]),
])
def test_power_conscious_winner_split_matches_cycle_reference(rng_mode, columns):
    img = lin(columns)
    res = stochastic.run_stochastic(img, same_presentation(img), budget=8,
                                    strategy="power_conscious", rng_mode=rng_mode, seed=606)
    ref_winner = reference_runs(img, 8, rng_mode, seed=707)[2]
    stat, df = two_sample_chi_square(np.bincount(res.winner, minlength=img.rows),
                                     np.bincount(ref_winner, minlength=img.rows))
    assert stat < CHI2_999[df]
