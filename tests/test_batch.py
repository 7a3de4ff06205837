"""Batched inference equals one presentation at a time.

`infer_logarithmic` and the oracles score a whole batch in one call; these
properties pin them to calls on one batch row at a time, and
`oracle_filter` to a per-step float reference.  The logarithmic filter is
pinned to the brute-force filter of test_machine on random images, its
saturation to fixed images whose step sums pass TOP and to a stepwise
clamp-then-argmin reference on random images whose sums straddle TOP, the
seed-7 sleep filter to an all-pairs reference, and a filter's result to
its per-step calls.  The stochastic sampler draws a whole batch at once:
properties pin its counters, stop cycles, winners and totals, and
chi-square tests on one batch of identical presentations pin its winner
split, stop-cycle law and tie-breaks to their exact laws.  Conventional
runs equal a cycle-by-cycle reference draw for draw; power-conscious runs,
sampled from the mask law, are compared with that reference by chi-square
tests, and with a per-presentation reference of the law sampler bit for
bit, up to `LAW_MAX_ROWS` rows.  A conventional filter, drawn from its pair
law, equals a per-pair multinomial reference bit for bit and is compared with the
cycle-by-cycle reference by chi-square tests; built over parts of at most
`stochastic.LAW_MAX` entries, that law gives the filter of the whole law byte
for byte, and a power-conscious batch's the batch of its whole law.  A call
from a `stochastic.plan`, or a filter from a `machine.filter_plan`, equals the
call that latches for itself.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesim import energy, logprob, machine, modelkit, runner, stochastic, tasks
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
    one = [machine.infer_logarithmic(img, obs[i:i + 1]) for i in range(len(obs))]
    assert np.array_equal(batch.scores, np.concatenate([r.scores for r in one]))
    assert batch.winner.tolist() == np.concatenate([r.winner for r in one]).tolist()


@SETTINGS
@given(st.data())
def test_log_filter_equals_brute_force(data):
    rows = data.draw(st.integers(1, 4))
    v0 = data.draw(st.integers(rows + 1, rows + 4))  # V0 > rows+1 included
    feat_sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    sizes = [v0] + feat_sizes
    img = data.draw(log_images(rows, sizes))
    feats = data.draw(address_batches(feat_sizes))
    res = machine.run_filter(img, feats)
    winners = filter_oracle(img.blocks, feats, rows)  # the unknown state is address rows
    assert res.winner.tolist() == winners
    prev = [rows] + winners[:-1]
    for scores, p, step in zip(res.scores, prev, feats):
        assert np.array_equal(scores, machine.infer_logarithmic(img, [[p, *step]]).scores[0])


def test_log_filter_saturates_before_its_argmin():
    # every row's step sum exceeds TOP: every score is TOP and every winner is
    # row 0, though row 1 has the lowest raw sum
    trans = np.full((3, 4), 200)
    img = MemoryImage([trans, np.array([[100, 180], [60, 90], [80, 70]])], 8, "log")
    res, top = machine.run_filter(img, [[0], [1], [1], [0]]), logprob.TOP
    assert res.scores.tolist() == [[top] * 3] * 4
    assert res.winner.tolist() == [0] * 4
    # rows 0 and 1 exceed TOP with raw sums 400 and 300, row 2 sums to TOP or
    # TOP - 1: only a clamp before the argmin gives row 0, not row 2 (or 1)
    trans[2] = 55
    img = MemoryImage([trans, np.array([[200, 200], [100, 100], [200, 199]])], 8, "log")
    res = machine.run_filter(img, [[0], [1], [0]])
    assert res.scores.tolist() == [[top] * 3, [top, top, top - 1], [top] * 3]
    assert res.winner.tolist() == [0, 2, 0]


@st.composite
def saturating_log_filters(draw):
    """A log filter whose raw step sums straddle TOP: a transition code and a
    feature code near TOP / 2 sum to TOP - 3 .. TOP + 3, a code of TOP
    saturates its row, and a second feature column of 0s and 1s moves sums
    by one and makes ties at the raw minimum."""
    rows = draw(st.integers(1, 4))
    near = st.sampled_from([0, 126, 127, 128, 129, logprob.TOP])
    v0, v1, v2 = rows + 1, draw(st.integers(1, 3)), draw(st.integers(1, 2))
    blocks = [np.array(draw(st.lists(st.lists(codes, min_size=v, max_size=v),
                                     min_size=rows, max_size=rows)))
              for v, codes in ((v0, near), (v1, near), (v2, st.integers(0, 1)))]
    feats = draw(address_batches((v1, v2)))
    return MemoryImage(blocks, 8, "log"), feats


@SETTINGS
@given(saturating_log_filters())
def test_log_filter_equals_stepwise_clamp_then_argmin(run):
    img, feats = run
    res = machine.run_filter(img, feats)
    winners = filter_oracle(img.blocks, feats, img.rows)  # clamps each step, then argmin
    table = np.column_stack([[img.rows, *winners[:-1]], feats])
    scores = np.minimum(img.latch(table).sum(axis=-1, dtype=np.int64), logprob.TOP)
    assert res.scores.dtype == res.winner.dtype == np.int64
    assert np.array_equal(res.scores, scores)
    assert res.winner.tolist() == winners


def all_pairs_log_filter(img, feats):
    """Every (step, previous winner) pair at once: ``min(F[:, None] + G[None],
    TOP)`` with F the steps' feature sums and G the transition codes, its
    argmin per pair, then `machine.walk` from the unknown state."""
    rows = img.rows
    table = np.column_stack([np.full(len(feats), rows), feats])
    f = img.latch(table)[..., 1:].sum(axis=-1, dtype=np.int64)
    g = img.blocks[0][:, :rows + 1].T.astype(np.int64)
    pairs = np.minimum(f[:, None] + g[None], logprob.TOP)
    winner = np.array(machine.walk(pairs.argmin(axis=-1), rows), dtype=np.int64)
    prev = np.concatenate(([rows], winner[:-1]))
    return pairs[np.arange(len(feats)), prev], winner


@pytest.mark.parametrize("steps", [1, 2000])
@settings(max_examples=20, deadline=None)
@given(rows=st.integers(5, 16), v1=st.integers(2, 4), v2=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_wide_long_log_filter_equals_references(steps, rows, v1, v2, seed):
    # 5..16 rows, above LAW_MAX_ROWS too; codes of 127 + 128 sum to TOP exactly
    # and equal codes tie; address 0 of column 1 saturates every row
    rng = np.random.default_rng(seed)
    codes = [0, 1, 127, 128, logprob.TOP]
    blocks = [rng.choice(codes, size=(rows, v)) for v in (rows + 1, v1, v2)]
    blocks[1][:, 0] = logprob.TOP
    img = MemoryImage(blocks, 8, "log")
    feats = rng.integers(0, (v1, v2), size=(steps, 2))
    res = machine.run_filter(img, feats)
    scores, winner = all_pairs_log_filter(img, feats)
    assert res.scores.dtype == res.winner.dtype == np.int64
    assert np.array_equal(res.scores, scores)
    assert np.array_equal(res.winner, winner)
    assert res.winner.tolist() == filter_oracle(img.blocks, feats, rows)


def test_sleep_log_filter_equals_all_pairs_reference():
    prep = runner.prepare(tasks.sleep_like_spec(seed=7))
    log_img = modelkit.compile_model(prep.model, "logarithmic")
    for img in (log_img, *(machine.inject_errors(log_img, ber, seed=7) for ber in (1e-2, 0.3))):
        res = machine.run_filter(img, prep.test_obs)
        scores, winner = all_pairs_log_filter(img, prep.test_obs)
        assert np.array_equal(res.scores, scores)
        assert np.array_equal(res.winner, winner)


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
    return BayesModel(classes, len(bins), tuple(bins), like, transition,
                      [np.arange(b + 1, dtype=float) for b in bins])


@SETTINGS
@given(st.data())
def test_batched_oracle_is_bit_equal_to_per_vector(data):
    m = data.draw(models())
    obs = data.draw(address_batches(m.bins))
    batch = modelkit.oracle_infer(m, obs)
    one = [modelkit.oracle_infer(m, obs[i:i + 1]) for i in range(len(obs))]
    assert np.array_equal(batch.posterior, np.concatenate([r.posterior for r in one]))
    assert batch.winner.tolist() == np.concatenate([r.winner for r in one]).tolist()
    assert batch.degenerate.tolist() == np.concatenate([r.degenerate for r in one]).tolist()


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
                seed=draw(st.integers(0, 2**32)))
    return img, obs, opts


def cycle_reference(img, obs, budget, strategy, seed):
    """The cycle kernel one presentation and one cycle at a time, on the
    same stream: one block of bit draws in presentation, cycle, column
    order, then one tie-break uniform per presentation."""
    rng = np.random.default_rng(seed)
    codes = img.latch(obs).tolist()
    n, rows, cols = len(codes), img.rows, img.columns
    draws = rng.integers(0, 1 << img.width, size=(n, budget, cols),
                         dtype=np.uint8 if img.width == 8 else np.uint16).tolist()
    ties = rng.random(n).tolist()
    out = []
    for i in range(n):
        counters, cycles, fired = [0] * rows, budget, []
        for t in range(budget):
            d = draws[i][t]  # every row of a column sees its one draw
            fired = [all(d[c] < codes[i][r][c] for c in range(cols)) for r in range(rows)]
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


def power_conscious_reference(img, obs, budget, strategy="power_conscious", seed=0,
                              triples=None):
    """The law sampler one presentation at a time: one (stop, mask, tie)
    uniform triple each (``triples``, else drawn from ``seed``), the stop
    cycle from the log1p ratio, the mask as the count of cumulative-law
    entries at or below its target, and a pick among the fired rows (all
    rows when the run stays quiet)."""
    if triples is None:
        triples = np.random.default_rng(seed).random((len(obs), 3))
    out = []
    for (stop_u, mask_u, tie), codes in zip(triples, img.latch(obs)):
        cum = np.cumsum(stochastic.mask_law(codes[np.newaxis], img.width)[0, 1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            stop = np.floor(np.log1p(-stop_u) / np.log1p(-min(cum[-1], 1.0))) + 1
        mask = 1 + sum(int(c <= mask_u * cum[-1]) for c in cum)
        fired = [(mask >> r) & 1 for r in range(img.rows)]
        if stop <= budget:
            counters, cycles = fired, int(stop)
            cand = [r for r in range(img.rows) if fired[r]]
        else:
            counters, cycles, cand = [0] * img.rows, budget, list(range(img.rows))
        out.append((counters, cycles, cand[min(int(tie * len(cand)), len(cand) - 1)]))
    return out


@SETTINGS
@given(st.one_of(sampler_runs(strategies=("power_conscious",)),
                 sampler_runs(strategies=("power_conscious",), rows=stochastic.LAW_MAX_ROWS)))
def test_power_conscious_kernel_equals_per_presentation_reference(run):
    img, obs, opts = run
    res = stochastic.run_stochastic(img, obs, **opts)
    got = list(zip(res.scores.tolist(), res.cycles.tolist(), res.winner.tolist()))
    assert got == power_conscious_reference(img, obs, **opts)


EDGE_UNIFORMS = (0.0, 1.0 - 2.0**-53)  # the ends of rng.random's [0, 1)


def test_largest_uniform_picks_below_k():
    # a tie pick is int(u * k) with u < 1, so it needs no clamp at k - 1: the
    # largest uniform, 1 - 2**-53, truncates to k - 1 for every k up to 2**24
    for start in range(1, 1 << 24, 1 << 20):
        k = np.arange(start, start + (1 << 20), dtype=np.int64)
        assert np.array_equal((EDGE_UNIFORMS[1] * k).astype(np.int64), k - 1)


@SETTINGS
@given(st.data())
def test_decide_on_quiet_runs_and_edge_uniforms_equals_reference(data):
    """`decide` raises no warning and is byte-equal to the per-presentation
    reference on plans that mix q = 0 runs (value 0 of column 0 holds code 0
    in every row) with ordinary ones, on uniform rows at both ends of [0, 1),
    and at budget 1 and 2**53, the largest a float64 stop cycle counts exactly."""
    img = data.draw(linear_images())
    blocks = [b.copy() for b in img.blocks]
    blocks[0][:, 0] = 0
    img = MemoryImage(blocks, img.width, "linear")
    obs = data.draw(address_batches(img.values_per_column, n_min=2))
    obs[::2, 0] = 0
    uniform = st.one_of(st.sampled_from(EDGE_UNIFORMS), st.floats(0.0, 1.0, exclude_max=True))
    rows = st.one_of(st.sampled_from([EDGE_UNIFORMS[:1] * 3, EDGE_UNIFORMS[1:] * 3]),
                     st.tuples(uniform, uniform, uniform))
    triples = np.array(data.draw(st.lists(rows, min_size=len(obs), max_size=len(obs))))
    budget = data.draw(st.sampled_from([1, 2**53]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counters, winner, cycles = stochastic.decide(stochastic.plan(img, obs), triples, budget)
    want = power_conscious_reference(img, obs, budget, triples=triples)
    for a, b in zip((counters, cycles, winner), zip(*want)):
        assert a.dtype == np.int64 and a.tobytes() == np.array(b, dtype=np.int64).tobytes()
    labels = np.array(data.draw(st.lists(st.integers(0, img.rows - 1), min_size=len(obs),
                                         max_size=len(obs))))
    acc = runner.accuracy(winner, labels)
    assert type(acc) is float and acc == float(np.mean(winner == labels))


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
@given(st.one_of(sampler_runs(), sampler_runs(rows=stochastic.LAW_MAX_ROWS)), st.booleans())
def test_plan_call_equals_plain_call(run, single):
    img, obs, opts = run
    obs = obs[:1] if single else obs
    plan = stochastic.plan(img, obs)
    # conventional first: the plan's law is built by the first power-conscious
    # call and reused by the second
    for strategy in ("conventional", "power_conscious", "power_conscious"):
        opts["strategy"] = strategy
        assert_same_result(stochastic.run_stochastic(img, plan, **opts),
                           stochastic.run_stochastic(img, obs, **opts))


def test_plan_for_another_mode_or_image_is_refused():
    codes = np.array([[10, 200], [128, 255]])
    img = MemoryImage([codes], 8, "linear")
    plan = stochastic.plan(img, [[0], [1]])
    # a plan belongs to the image object it latched: an equal copy, or one
    # with the same geometry and width, may hold other codes
    others = [MemoryImage([codes], 16, "linear"),
              MemoryImage([np.vstack([codes, codes])], 8, "linear"),
              machine.inject_errors(img, 0.0)]
    for strategy in stochastic.STRATEGIES:
        for other in others:
            with pytest.raises(ConfigError, match="plan was not built"):
                stochastic.run_stochastic(other, plan, 8, strategy)
        with pytest.raises(ConfigError, match="plan was not built"):
            machine.infer_stochastic(others[-1], plan, MachineConfig(8, strategy))
        # the sampler has one RNG model: every row of a column sees its draw
        with pytest.raises(ConfigError, match="rng mode"):
            stochastic.run_stochastic(img, plan, 8, strategy, "per_cell")
    log = MemoryImage([codes], 8, "log")
    with pytest.raises(ConfigError, match="linear-code image"):
        machine.infer_stochastic(log, [[0]], MachineConfig())
    # a log image latches a plan (a log filter steps on one), but no stochastic run reads it
    with pytest.raises(ConfigError, match="linear-code image"):
        stochastic.run_stochastic(log, stochastic.plan(log, [[0]]), 8)
    with pytest.raises(ConfigError):
        stochastic.plan(img, [[2]])


def event_fields(counts):
    return np.array([getattr(counts, f) for f in energy.EVENT_KINDS])


@SETTINGS
@given(sampler_runs())
def test_batch_totals_equal_per_presentation_totals(run):
    img, obs, opts = run
    cfg = MachineConfig(cycle_budget=opts["budget"], strategy=opts["strategy"])
    res = machine.infer_stochastic(img, obs, cfg, seed=opts["seed"])
    ref = stochastic.run_stochastic(img, obs, **opts)
    assert np.array_equal(res.winner, ref.winner) and np.array_equal(res.scores, ref.scores)
    assert np.array_equal(res.cycles, ref.cycles)
    assert res.cycles_used == int(ref.cycles.sum())
    each = sum(event_fields(energy.count_events("stochastic", img.rows, img.columns, img.width,
                                                cycles=int(c)))
               for c in ref.cycles)
    assert np.array_equal(event_fields(res.event_counts), each)


@SETTINGS
@given(st.data())
def test_log_batch_totals_equal_per_presentation_totals(data):
    img = data.draw(log_images())
    obs = data.draw(address_batches(img.values_per_column))
    res = machine.infer_logarithmic(img, obs)
    one = [machine.infer_logarithmic(img, [o]) for o in obs]
    assert res.cycles_used == sum(r.cycles_used for r in one) == len(obs)
    assert np.array_equal(event_fields(res.event_counts),
                          sum(event_fields(r.event_counts) for r in one))


@st.composite
def filter_runs(draw, modes=machine.MODES, rows=None):
    """A random filter machine of either mode, its steps and its options."""
    mode = draw(st.sampled_from(modes))
    if rows is None:
        rows = draw(st.integers(1, 4))
    v0 = draw(st.integers(rows + 1, rows + 3))
    feat_sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    sizes = [v0] + feat_sizes
    images = log_images if mode == "logarithmic" else linear_images
    img = draw(images(rows, sizes))
    cfg = MachineConfig(cycle_budget=draw(st.integers(1, 40)),
                        strategy=draw(st.sampled_from(stochastic.STRATEGIES)))
    feats = draw(address_batches(feat_sizes))
    return img, cfg, feats, draw(st.integers(0, 2**32))


@SETTINGS
@given(st.one_of(filter_runs(), filter_runs(modes=("stochastic",), rows=stochastic.LAW_MAX_ROWS)))
def test_filter_totals_equal_per_step_totals(run):
    img, cfg, feats, seed = run
    res = machine.run_filter(img, feats, config=cfg, seed=seed)
    # a conventional linear run is drawn from its pair law, not from the
    # per-step stream: its steps follow its own winners, and only what the
    # stream cannot move compares
    law = img.kind == "linear" and cfg.strategy == "conventional"
    # the same steps one call at a time, on the same stream, from the unknown state
    rng, prev, steps = np.random.default_rng(seed), img.rows, []
    for t, step in enumerate(feats):
        if img.kind == "log":
            steps.append(machine.infer_logarithmic(img, [[prev, *step]]))
        else:
            steps.append(machine.infer_stochastic(img, [[prev, *step]], cfg, seed=rng))
        prev = res.winner[t] if law else steps[-1].winner[0]
    assert res.scores.shape == (len(feats), img.rows)
    assert res.winner.shape == res.cycles.shape == (len(feats),)
    if law:
        won = res.scores[np.arange(len(feats)), res.winner]
        assert np.array_equal(won, res.scores.max(axis=1))
        assert np.all((res.scores >= 0) & (res.scores <= cfg.cycle_budget))
    else:
        assert np.array_equal(res.scores, np.concatenate([r.scores for r in steps]))
        assert res.winner.tolist() == np.concatenate([r.winner for r in steps]).tolist()
    assert res.cycles.tolist() == np.concatenate([r.cycles for r in steps]).tolist()
    assert res.cycles_used == sum(r.cycles_used for r in steps)
    assert np.array_equal(event_fields(res.event_counts),
                          sum(event_fields(r.event_counts) for r in steps))


@SETTINGS
@given(filter_runs(modes=("logarithmic",), rows=stochastic.LAW_MAX_ROWS + 1))
def test_filter_above_row_cap_steps(run):
    # above the row cap only a log image can be built, and its filter steps
    # one call at a time: each step is the log call on the winner before it
    img, cfg, feats, seed = run
    res = machine.run_filter(img, machine.filter_plan(img, feats), config=cfg, seed=seed)
    prev = img.rows
    for t, step in enumerate(feats):
        one = machine.infer_logarithmic(img, [[prev, *step]])
        assert (res.winner[t], res.cycles[t]) == (one.winner[0], one.cycles[0])
        assert np.array_equal(res.scores[t], one.scores[0])
        prev = one.winner[0]
    with pytest.raises(ConfigError, match="LAW_MAX_ROWS"):
        MemoryImage([np.zeros((img.rows, 3), dtype=np.uint16)], 8, "linear")


def conventional_filter_reference(img, feats, budget, seed):
    """A conventional linear filter one pair at a time: one tie
    uniform per step, then one draw that seeds the multinomials, one
    multinomial(budget, law) per (step, column-0 address) pair in step-major
    order from that pair's own mask law, the tie pick among its highest
    counters, and a walk from the unknown state.  Returns (counters, winner)
    per step."""
    rng = np.random.default_rng(seed)
    ties = rng.random(len(feats)).tolist()
    counts = np.random.default_rng(rng.integers(1 << 64, dtype=np.uint64))
    rows = img.rows
    bits = [[(m >> r) & 1 for r in range(rows)] for m in range(1 << rows)]
    table = []
    for tie, step in zip(ties, feats):
        row = []
        for v in range(rows + 1):
            cum = np.cumsum(stochastic.mask_law(img.latch([[v, *step]]), img.width)[0, 1:])
            law = np.concatenate(([1 - cum[-1]], np.diff(cum, prepend=0.0)))
            fired = counts.multinomial(budget, law).tolist()
            counters = [sum(k * b[r] for k, b in zip(fired, bits)) for r in range(rows)]
            cand = [r for r in range(rows) if counters[r] == max(counters)]
            row.append((counters, cand[int(tie * len(cand))]))
        table.append(row)
    out, prev = [], rows
    for row in table:
        out.append(row[prev])
        prev = out[-1][1]
    return out


@SETTINGS
@given(filter_runs(modes=("stochastic",)), st.sampled_from([None, 1 << 12, 1 << 40]))
def test_conventional_filter_equals_per_pair_reference(run, budget):
    img, cfg, feats, seed = run
    cfg = MachineConfig(budget or cfg.cycle_budget, "conventional")
    res = machine.run_filter(img, feats, cfg, seed)
    counters, winner = zip(*conventional_filter_reference(img, feats, cfg.cycle_budget, seed))
    for got, want in ((res.scores, counters), (res.winner, winner),
                      (res.cycles, [cfg.cycle_budget] * len(feats))):
        assert got.dtype == np.int64 and got.tobytes() == np.array(want, np.int64).tobytes()


@SETTINGS
@given(filter_runs())
def test_filter_plan_call_equals_plain_call(run):
    img, cfg, feats, seed = run
    plan = machine.filter_plan(img, feats)
    # the pair law is built by the first linear call and reused by the others
    for strategy in ("conventional", "power_conscious", "power_conscious"):
        c = MachineConfig(cfg.cycle_budget, strategy)
        assert_same_result(machine.run_filter(img, plan, c, seed),
                           machine.run_filter(img, feats, c, seed))
    if img.kind == "log":  # a log filter steps on its plan; no stochastic run reads it
        with pytest.raises(ConfigError, match="linear-code image"):
            stochastic.run_stochastic(img, plan, cfg.cycle_budget, cfg.strategy)
        with pytest.raises(ConfigError, match="linear-code image"):
            machine.infer_stochastic(img, plan, cfg)
    else:  # a filter plan's steps stand for its pairs: no batch run reads them
        with pytest.raises(ConfigError, match="a filter plan is not a batch plan"):
            stochastic.run_stochastic(img, plan, cfg.cycle_budget, cfg.strategy)


def assert_same_bytes(a, b):
    for x, y in ((a.scores, b.scores), (a.winner, b.winner), (a.cycles, b.cycles)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert a.event_counts == b.event_counts


def count_laws(monkeypatch):
    """The (pairs, R, C) shape of every mask law built from now on."""
    inner, laws = stochastic.mask_law, []

    def counted(codes, *rest):
        laws.append(codes.shape)
        return inner(codes, *rest)

    monkeypatch.setattr(stochastic, "mask_law", counted)
    return laws


def test_filter_plan_bounds_its_pair_law(monkeypatch):
    rng = np.random.default_rng(9)
    img = lin([rng.integers(0, 256, (2, 4)), rng.integers(0, 256, (2, 3))])
    feats = rng.integers(0, 3, (10, 1))
    entries = len(feats) * 3 * 4  # (steps, rows + 1 addresses, 2**rows masks)
    laws = count_laws(monkeypatch)
    for strategy in stochastic.STRATEGIES:
        cfg = MachineConfig(20, strategy)
        monkeypatch.setattr(stochastic, "LAW_MAX", entries)
        plan, laws[:] = machine.filter_plan(img, feats), []
        whole = machine.run_filter(img, plan, cfg, seed=4)
        assert laws == [(30, 2, 2)] and "cum_law" in vars(plan)  # one law, kept by the plan
        # below the whole law, each part's law covers at most the cap and the plan keeps none
        monkeypatch.setattr(stochastic, "LAW_MAX", entries - 1)
        plan, laws[:] = machine.filter_plan(img, feats), []
        assert_same_bytes(machine.run_filter(img, plan, cfg, seed=4), whole)
        assert laws == [(27, 2, 2), (3, 2, 2)] and "cum_law" not in vars(plan)


def refuse_sample(*args):
    raise AssertionError("a filter reached the cycle kernel")


@SETTINGS
@given(filter_runs(modes=("stochastic",)), st.data())
def test_filter_parts_equal_one_law(run, data):
    img, cfg, feats, seed = run
    cap = data.draw(st.integers(1, 4 * (img.rows + 1) << img.rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "sample", refuse_sample)
        whole = machine.run_filter(img, feats, cfg, seed)
        patch.setattr(stochastic, "LAW_MAX", cap)
        assert_same_bytes(machine.run_filter(img, feats, cfg, seed), whole)


@SETTINGS
@given(st.data())
def test_batch_parts_equal_one_law(data):
    rows = data.draw(st.integers(1, stochastic.LAW_MAX_ROWS))
    img, obs, opts = data.draw(sampler_runs(("power_conscious",), rows))
    cap = data.draw(st.integers(1, 4 * len(obs) << rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochastic, "KERNEL_MAX_DRAWS", -1)  # a cycle-kernel run raises
        whole = stochastic.run_stochastic(img, obs, **opts)
        patch.setattr(stochastic, "LAW_MAX", cap)
        laws, run = count_laws(patch), stochastic.plan(img, obs)
        assert_same_bytes(stochastic.run_stochastic(img, run, **opts), whole)
    # consecutive parts, each of at most the cap's entries, or of one presentation;
    # only a plan that is one part keeps its law
    size = max(1, cap >> rows)
    assert [n for n, *_ in laws] == [min(size, len(obs) - i) for i in range(0, len(obs), size)]
    assert all(n << rows <= cap for n, *_ in laws if n > 1)
    assert ("cum_law" in vars(run)) == (size >= len(obs))


def test_batch_law_peak_does_not_grow_with_presentations(monkeypatch):
    # 12 rows: a whole law would take 32 KiB a presentation; in parts of 64
    # presentations (2 MiB a law) only the results grow with N
    monkeypatch.setattr(stochastic, "LAW_MAX", 1 << 18)
    img = lin([np.random.default_rng(c).integers(0, 256, (12, 8)) for c in range(4)])
    peaks = []
    for n in (256, 4096):
        run = stochastic.plan(img, np.random.default_rng(n).integers(0, 8, (n, 4)))
        tracemalloc.start()
        try:
            stochastic.run_stochastic(img, run, 50, "power_conscious", seed=n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_sleep_filter_above_one_law_runs_in_parts(monkeypatch):
    prep = runner.prepare(tasks.sleep_like_spec(seed=7))
    _, linear = runner.images_for_model(prep, widths=(16,))
    img, feats = linear[16], np.tile(prep.test_obs, (90, 1))  # 54,000 steps
    laws, masks = count_laws(monkeypatch), 1 << img.rows
    monkeypatch.setattr(stochastic, "sample", refuse_sample)
    for strategy in stochastic.STRATEGIES:
        cfg, laws[:] = MachineConfig(16, strategy), []
        res = machine.run_filter(img, machine.filter_plan(img, feats), cfg, seed=7)
        assert len(laws) == 2 and all(n * masks <= stochastic.LAW_MAX for n, *_ in laws)
        with monkeypatch.context() as one:
            one.setattr(stochastic, "LAW_MAX", len(feats) * (img.rows + 1) * masks)
            laws[:] = []
            assert_same_bytes(machine.run_filter(img, feats, cfg, seed=7), res)
            assert laws == [(len(feats) * (img.rows + 1), img.rows, img.columns)]


def pair_codes(plan):
    """The (steps * (rows + 1), R, C) codes of every (step, column-0 address)
    pair of a filter plan, materialised: each step repeated per address
    0..rows, with that address's codes written into column 0."""
    img, rows = plan.image, plan.image.rows
    pairs = np.repeat(plan.codes, rows + 1, axis=0)
    pairs.reshape(len(plan.codes), rows + 1, rows, img.columns)[..., 0] = \
        img.blocks[0][:, :rows + 1].T
    return pairs


def assert_factored_filter_equals_pairs(img, feats):
    """A filter plan's pair law, or its log steps, equal those of the
    materialised pair codes bit for bit."""
    plan = machine.filter_plan(img, feats)
    pairs = pair_codes(plan)
    if img.kind == "linear":
        law = stochastic.mask_law(pairs, img.width)
        assert plan.cum_law.tobytes() == np.cumsum(law[:, 1:], axis=1).tobytes()
    else:
        res = machine.run_filter(img, plan)
        prev = np.concatenate(([img.rows], res.winner[:-1]))
        step = pairs[np.arange(len(feats)) * (img.rows + 1) + prev]
        scores, winner = machine._log_scores(step.sum(axis=-1, dtype=np.int64))
        assert np.array_equal(res.scores, scores) and np.array_equal(res.winner, winner)


@SETTINGS
@given(st.data())
def test_factored_filter_plan_equals_its_pair_codes(data):
    rows = data.draw(st.integers(1, 5))
    feat_sizes = data.draw(st.lists(st.integers(1, 4), min_size=0, max_size=3))
    sizes = [data.draw(st.integers(rows + 1, rows + 3))] + feat_sizes
    feats = data.draw(address_batches(feat_sizes))  # no features: column 0 alone
    lin_img = data.draw(linear_images(rows, sizes))
    log_img = machine.inject_errors(data.draw(log_images(rows, sizes)), 1e-2,
                                    seed=data.draw(st.integers(0, 2**32)))
    for img in (lin_img, log_img):
        assert_factored_filter_equals_pairs(img, feats)


def test_factored_sleep_filter_equals_its_pair_codes():
    prep = runner.prepare(tasks.sleep_like_spec(seed=7))
    log_img, linear = runner.images_for_model(prep, widths=(8, 16))
    for img in (*linear.values(), log_img, machine.inject_errors(log_img, 1e-2, seed=7)):
        assert_factored_filter_equals_pairs(img, prep.test_obs)


def test_filter_plan_for_another_image_or_sequence_is_refused():
    feats = [[0], [1], [1]]
    for kind in machine.KINDS:
        img = MemoryImage([[[10, 200, 30], [128, 255, 40]], [[5, 6], [7, 8]]], 8, kind)
        plan = machine.filter_plan(img, feats)
        # an equal image object is another one: a plan is refused by identity
        other = machine.inject_errors(img, 0.0)
        for strategy in stochastic.STRATEGIES:
            with pytest.raises(ConfigError, match="plan was not built"):
                machine.run_filter(other, plan, MachineConfig(8, strategy))


def test_filter_plan_peaks_below_its_pair_codes():
    # the sleep geometry: each step is latched once, and no (step, address)
    # pair is materialised, so the latch peaks below the bytes of the
    # (steps * (rows + 1), R, C) pair codes
    rng = np.random.default_rng(5)
    blocks = [rng.integers(0, 256, (4, 8)) for _ in range(4)]
    feats = rng.integers(0, 8, (20_000, 3))
    for kind in machine.KINDS:
        img = MemoryImage(blocks, 8, kind)
        tracemalloc.start()
        try:
            plan = machine.filter_plan(img, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.codes.shape == (20_000, 4, 4)
        assert peak < 20_000 * 5 * plan.codes[0].nbytes


def test_a_batch_plan_is_not_a_filter_plan():
    for kind in machine.KINDS:
        img = MemoryImage([[[10, 200, 30], [128, 255, 40]], [[5, 6], [7, 8]]], 8, kind)
        batch = stochastic.plan(img, [[0, 0], [2, 1], [1, 1]])
        for strategy in stochastic.STRATEGIES:
            with pytest.raises(ConfigError, match="a batch plan is not a filter plan"):
                machine.run_filter(img, batch, MachineConfig(8, strategy))


@pytest.mark.parametrize("mode,kind", [("logarithmic", "log"), ("stochastic", "linear")])
def test_empty_filter_sequence_is_refused(mode, kind):
    img = MemoryImage([np.zeros((2, 3), dtype=np.uint16), np.zeros((2, 2), dtype=np.uint16)],
                      8, kind)
    assert img.mode == mode
    with pytest.raises(ConfigError, match="steps >= 1"):
        machine.run_filter(img, np.zeros((0, 1), dtype=np.int64))


# upper 0.1% points of the chi-square law by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322,
            8: 26.124, 9: 27.877, 10: 29.588, 11: 31.264}
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
    # one shared draw fires row 0 with P = 0.5 and both rows with P = 0.25;
    # quiet to the budget with P = 0.5**64
    img = lin([[[128], [64]]])
    res = stochastic.run_stochastic(img, same_presentation(img), budget=64,
                                    strategy="power_conscious", seed=101)
    assert res.scores.any(axis=1).all()  # every presentation stopped early
    p0 = enum_first_fire_winner(128, 64)
    wins = np.bincount(res.winner, minlength=2)
    assert chi_square(wins, [p0 * TRIALS, (1 - p0) * TRIALS]) < CHI2_999[1]


@pytest.mark.parametrize("columns,q", [
    # one shared draw per column: some row fires iff the draw is below the top code
    pytest.param([[[64], [32]]], 64 / 256, id="column_shared-columns0-0.25"),
    # row 0 fires on draws below (128, 128), row 1 below (64, 192): row 1
    # adds d0 < 64 with 128 <= d1 < 192
    pytest.param([[[128], [64]], [[128], [192]]], 0.5 * 0.5 + 0.25 * 0.25,
                 id="column_shared-columns1-0.3125"),
])
def test_stop_cycle_follows_truncated_geometric_law(columns, q):
    img = lin(columns)
    budget = 6
    res = stochastic.run_stochastic(img, same_presentation(img), budget=budget,
                                    strategy="power_conscious", seed=202)
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


# (width, columns): two or three rows whose masks all occur, over one to
# three columns; the last fires nested row sets only, which a product of
# row rates misses.  Ids name the RNG model.
LAW_IMAGES = [
    pytest.param(8, [[[128], [64]], [[100], [200]]], id="column_shared-8-columns0"),
    pytest.param(8, [[[200], [100]], [[100], [200]], [[250], [250]]],
                 id="column_shared-8-columns1"),
    pytest.param(16, [[[32768], [16384]], [[40000], [52000]]], id="column_shared-16-columns2"),
    pytest.param(16, [[[30000], [20000], [10000]]], id="column_shared-16-columns3"),
]


def reference_runs(img, budget, seed):
    """cycle_reference on TRIALS identical power-conscious presentations, as
    (scores, cycles, winner) arrays."""
    ref = cycle_reference(img, same_presentation(img), budget, "power_conscious", seed)
    scores, cycles, winner, _ = zip(*ref)
    return np.array(scores), np.array(cycles), np.array(winner)


@pytest.mark.parametrize("width,columns", LAW_IMAGES)
def test_power_conscious_stop_and_mask_match_cycle_reference(width, columns):
    img, budget = lin(columns, width), 4
    res = stochastic.run_stochastic(img, same_presentation(img), budget=budget,
                                    strategy="power_conscious", seed=404)
    ref = reference_runs(img, budget, seed=505)

    def joint(scores, cycles):
        # bins: stop cycle 1, 2 or later, times the fired mask; then no fire
        mask = scores @ (1 << np.arange(img.rows))
        key = np.where(mask > 0, ((np.minimum(cycles, 3) - 1) << img.rows) + mask,
                       3 << img.rows)
        return np.bincount(key, minlength=(3 << img.rows) + 1)

    assert np.all(res.cycles[~res.scores.any(axis=1)] == budget)
    stat, df = two_sample_chi_square(joint(res.scores, res.cycles), joint(*ref[:2]))
    assert stat < CHI2_999[df]


@pytest.mark.parametrize("columns", [
    # rows 0 and 1 always fire together
    pytest.param([[[200], [200], [100]]], id="column_shared-columns0"),
    # each row fires alone on some draw pair, and rows 0 and 1 together
    pytest.param([[[200], [128], [64]], [[64], [160], [255]]], id="column_shared-columns1"),
])
def test_power_conscious_winner_split_matches_cycle_reference(columns):
    img = lin(columns)
    res = stochastic.run_stochastic(img, same_presentation(img), budget=8,
                                    strategy="power_conscious", seed=606)
    ref_winner = reference_runs(img, 8, seed=707)[2]
    stat, df = two_sample_chi_square(np.bincount(res.winner, minlength=img.rows),
                                     np.bincount(ref_winner, minlength=img.rows))
    assert stat < CHI2_999[df]


def test_conventional_filter_matches_cycle_reference():
    # two rows; column 0 is addressed by the previous winner (2 at step 0, the
    # unknown state) and every step sees feature value 0, so a step's law
    # depends on its previous winner alone
    img = lin([[[128, 64, 100], [64, 160, 100]], [[200], [150]]])
    budget, rows = 2, img.rows
    res = machine.run_filter(img, same_presentation(img)[:, 1:],
                             MachineConfig(budget, "conventional"), seed=808)
    assert np.all(res.cycles == budget)
    prev = np.concatenate(([rows], res.winner[:-1]))

    def joint(scores, winner):
        # bins: both counters, times the winner
        key = (scores @ ((budget + 1) ** np.arange(rows)[::-1])) * rows + winner
        return np.bincount(key, minlength=(budget + 1) ** rows * rows)

    for v in range(rows):  # the unknown state leads step 0 only
        at = prev == v
        assert at.sum() > TRIALS // 4
        ref = cycle_reference(img, np.tile([v, 0], (int(at.sum()), 1)), budget,
                              "conventional", seed=909 + v)
        scores, _, winner, _ = zip(*ref)
        stat, df = two_sample_chi_square(joint(res.scores[at], res.winner[at]),
                                         joint(np.array(scores), np.array(winner)))
        assert stat < CHI2_999[df]
