"""Batched inference equals one presentation at a time.

`infer_logarithmic` and the oracles score a whole batch in one call; these
properties pin them to per-vector calls and `oracle_filter` to a per-step
float reference.  The logarithmic filter is pinned to the brute-force
filter of test_machine on random images.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesim import machine, modelkit
from bayesim.errors import ConfigError
from bayesim.machine import MachineConfig, MemoryImage
from bayesim.modelkit import BayesModel
from test_machine import filter_oracle

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
    results = machine.run_filter(img, feats, unknown_row=unknown, config=cfg)
    winners = filter_oracle(img.blocks, feats, unknown)
    assert [r.winner for r in results] == winners
    prev = [unknown] + winners[:-1]
    for r, p, step in zip(results, prev, feats):
        assert np.array_equal(r.scores, machine.infer_logarithmic(img, [p, *step]).scores)


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
