import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesim import logprob, machine, modelkit, stochastic
from bayesim.errors import ConfigError, FormatError, TrainingError
from bayesim.modelkit import BayesModel


def toy_model(likelihood, transition=None):
    """2-feature model with the given (classes, 2) column tables."""
    tables = [np.asarray(t, dtype=float) for t in likelihood]
    classes = tables[0].shape[0]
    return BayesModel(
        classes=classes,
        features=len(tables),
        bins=tuple(t.shape[1] for t in tables),
        likelihood=tables,
        transition=transition,
        bin_edges=[np.arange(t.shape[1] + 1, dtype=float) for t in tables],
    )


def one_class_model(x, bins, **kw):
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    m = modelkit.train_model(x, np.zeros(len(x), dtype=int), classes=1, bins=bins, **kw)
    return m.likelihood[0][0], m.bin_edges[0]


# ---- the moment fit: a feature's grid is its mean +- 4 sample stds ----

def test_fit_gaussian_sample_convention():
    _, edges = one_class_model([0.0, 2.0], 2)
    # (n-1) normalization: the std is sqrt(2), not 1
    r = 4 * math.sqrt(2.0)
    assert list(edges) == pytest.approx([1.0 - r, 1.0, 1.0 + r])


def test_fit_lognormal_logs_the_data():
    _, edges = one_class_model([1.0, math.e ** 2], 2, kind="lognormal")
    # logs 0 and 2: mean 1, std sqrt(2), and the edges back in the raw domain
    r = 4 * math.sqrt(2.0)
    assert np.log(edges) == pytest.approx([1.0 - r, 1.0, 1.0 + r])


def test_fit_constant_data_floored():
    # zero range: the std is floored at 1e-6 of max(|mean|, 1)
    _, edges = one_class_model([1.0, 1.0, 1.0, 1.0], 2)
    assert list(edges) == pytest.approx([1.0 - 4e-6, 1.0, 1.0 + 4e-6], rel=1e-12)


def test_fit_errors():
    with pytest.raises(TrainingError, match="class 0 has 1 samples"):
        one_class_model([1.0], 2)
    with pytest.raises(TrainingError, match="strictly positive"):
        one_class_model([1.0, -2.0], 2, kind="lognormal")


# ---- train_model's grid, density, floor and edges ----


def test_train_model_symmetric_two_bins():
    a = 1 / math.sqrt(2)  # two samples with mean 0 and sample std 1
    like, edges = one_class_model([-a, a], 2)
    assert like[0] == pytest.approx(like[1])
    assert list(edges) == pytest.approx([-4.0, 0.0, 4.0])


def test_train_model_density_ratio():
    x = np.random.default_rng(3).normal(size=200)
    like, edges = one_class_model(x, 64)
    z = (0.5 * (edges[:-1] + edges[1:]) - x.mean()) / x.std(ddof=1)
    # scaling cancels in the ratio, so it must match the closed form
    want = math.exp(-0.5 * (z[0] ** 2 - z[32] ** 2))
    assert like[0] / like[32] == pytest.approx(want, rel=1e-12)


def test_train_model_floor_applies():
    # class 0 sits far from class 1, so its density on class 1's bins falls
    # below the smallest decodable probability; the floor must hold it there
    rng = np.random.default_rng(4)
    X = np.concatenate([rng.normal(0.0, 1.0, 100), rng.normal(60.0, 1.0, 100)])[:, None]
    m = modelkit.train_model(X, np.repeat([0, 1], 100), classes=2, bins=64)
    like, floor = m.likelihood[0], logprob.MIN_PROB
    assert like[0].min() == floor and like[1].min() == floor
    assert np.all(like >= floor) and like.max() == 1.0


def test_train_model_lognormal_edges_in_raw_domain():
    a = 1 / math.sqrt(2)  # logs with mean 0 and sample std 1
    like, edges = one_class_model([math.exp(-a), math.exp(a)], 8, kind="lognormal")
    assert np.all(edges > 0)
    assert edges[0] == pytest.approx(math.exp(-4.0))
    assert like.max() == pytest.approx(1.0)


def test_bin_index_clamps_tails():
    edges = np.array([0.0, 1.0, 2.0, 3.0])
    assert list(modelkit.bin_index(edges, [-5.0, 0.5, 1.0, 2.9, 99.0])) == [0, 0, 1, 2, 2]


# ---- transitions ----

def test_estimate_transitions_formula():
    t = modelkit.estimate_transitions([0, 0, 1], classes=4, alpha=1.0)
    assert t[0, 0] == pytest.approx((1 + 1) / (2 + 4))  # = 1/3
    assert t[0, 1] == pytest.approx(1 / 3)
    assert t[0, 2] == pytest.approx(1 / 6)
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)


def test_estimate_transitions_alpha_zero_fallback():
    t = modelkit.estimate_transitions([0, 0, 0], classes=3, alpha=0.0)
    assert t[0, 0] == 1.0
    assert np.allclose(t[1], 1 / 3)  # unobserved row falls back to uniform
    assert np.allclose(t[2], 1 / 3)


def test_estimate_transitions_lln():
    rng = np.random.default_rng(6)
    seq = rng.integers(0, 3, size=30_000)
    t = modelkit.estimate_transitions(seq, classes=3, alpha=1.0)
    n_per = 10_000
    bound = 3 * np.sqrt((1 / 3) * (2 / 3) / n_per)
    assert np.all(np.abs(t - 1 / 3) <= bound)


def test_estimate_transitions_errors():
    with pytest.raises(TrainingError):
        modelkit.estimate_transitions([], classes=2)
    with pytest.raises(TrainingError):
        modelkit.estimate_transitions([0, 5], classes=2)


def test_model_rejects_non_finite_tables():
    like = [np.array([[0.9, 0.2], [0.3, 0.8]])]
    trans = np.array([[0.7, 0.3], [0.4, 0.6]])
    toy_model(like, transition=trans)  # the clean model is accepted
    nan_like = [np.array([[0.9, np.nan], [0.3, 0.8]])]
    with pytest.raises(ConfigError):
        toy_model(nan_like)
    doc = json.loads(modelkit.model_to_json(toy_model(like)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="prior"):
            modelkit.model_from_json(json.dumps({**doc, "prior": [bad, 1.0]}))
        t = trans.copy()
        t[0, 0] = bad
        with pytest.raises(ConfigError):
            toy_model(like, transition=t)
        m = toy_model(like)
        edges = m.bin_edges[0].copy()
        edges[-1] = bad
        with pytest.raises(ConfigError):
            BayesModel(m.classes, m.features, m.bins, m.likelihood, None, [edges])


# ---- training ----

def test_train_model_shared_edges_and_column_peak():
    rng = np.random.default_rng(9)
    x0 = rng.normal(0.0, 1.0, size=200)
    x1 = rng.normal(5.0, 1.0, size=200)
    X = np.column_stack([np.concatenate([x0, x1]), rng.normal(size=400)])
    y = np.array([0] * 200 + [1] * 200)
    m = modelkit.train_model(X, y, classes=2, bins=16)
    assert m.bins == (16, 16)
    for table in m.likelihood:
        assert table.max() == pytest.approx(1.0)  # column-peak rescale
        assert np.all(table > 0) and np.all(table <= 1)
    # both classes address one shared grid per feature
    assert len(m.bin_edges[0]) == 17


def test_train_model_with_transitions():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(60, 1)) + np.repeat([0.0, 4.0], 30)[:, None]
    y = np.repeat([0, 1], 30)
    m = modelkit.train_model(X, y, classes=2, bins=8, with_transitions=True)
    assert m.transition is not None
    assert np.allclose(m.transition.sum(axis=1), 1.0)


def test_train_model_label_checks():
    X = np.zeros((4, 1))
    with pytest.raises(TrainingError):
        modelkit.train_model(X, [0, 0, 1, 2], classes=2, bins=4)
    with pytest.raises(TrainingError):
        modelkit.train_model(X, [0, 0, 0, 1], classes=2, bins=4)  # class 1 has 1 sample


@pytest.mark.parametrize("labels", [[0.9, 0.2, 1.7, 1.0], [0, 0, 1, float("nan")],
                                    ["0", "0", "1", "1"]])
def test_non_integer_labels_are_refused(labels):
    # a cast to int64 would train [0.9, 0.2, 1.7, 1.0] as [0, 0, 1, 1]
    X = np.arange(8.0).reshape(4, 2)
    with pytest.raises(TrainingError):
        modelkit.train_model(X, labels, classes=2, bins=4)
    with pytest.raises(TrainingError):
        modelkit.estimate_transitions(labels, classes=2)


def test_integral_float_labels_train_as_ints():
    X = np.random.default_rng(12).normal(size=(6, 2))
    ints = modelkit.train_model(X, [0, 1, 0, 1, 1, 0], classes=2, bins=4, with_transitions=True)
    floats = modelkit.train_model(X, [0.0, 1.0, 0.0, 1.0, 1.0, 0.0], classes=2, bins=4,
                                  with_transitions=True)
    assert modelkit.model_to_json(floats) == modelkit.model_to_json(ints)


def test_class_count_error_names_the_class():
    X = np.zeros((5, 2))
    with pytest.raises(TrainingError, match="class 1 has 1 samples, need >= 2"):
        modelkit.train_model(X, [0, 0, 1, 2, 2], classes=3, bins=4)


def test_train_model_refuses_bins_below_one():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 2))
    y = np.repeat([0, 1], 10)
    for bins in (0, -3, (4, 0)):
        with pytest.raises(ConfigError, match="bins must be >= 1"):
            modelkit.train_model(X, y, classes=2, bins=bins)


# ---- compilation ----

def test_compile_code_examples():
    like = [np.array([[0.5, 1.0], [1.0, 0.5]])] * 2
    m = toy_model(like)
    img = modelkit.compile_model(m, "logarithmic")
    assert img.kind == "log"
    assert img.blocks[0][0, 0] == 8  # encode(0.5)
    assert img.blocks[0][0, 1] == 0
    img = modelkit.compile_model(m, "stochastic")
    assert img.kind == "linear"
    assert img.blocks[0][0, 0] == 128
    assert img.blocks[0][0, 1] == 255
    with pytest.raises(ConfigError, match="unknown mode"):
        modelkit.compile_model(m, "analog")


def test_compile_filter_prior_column():
    like = [np.full((4, 2), 1.0)]
    trans = np.full((4, 4), 0.25)
    m = toy_model(like, transition=trans)
    img = modelkit.compile_model(m, "logarithmic")
    assert img.values_per_column == (8, 2)  # 4 classes + unknown, padded to 8
    # unknown-state entry: encode(1/4) = 16
    assert np.all(img.blocks[0][:, 4] == 16)
    # uniform transitions also encode to 16
    assert np.all(img.blocks[0][:, :4] == 16)
    # undriven addresses park at p=0, the top code
    assert np.all(img.blocks[0][:, 5:] == 255)


def test_filter_winners_do_not_depend_on_column0_padding():
    # column 0 needs only rows + 1 addresses; a hand-built image holding
    # rows + 3 there (7 for 4 classes, against the compiled 8) runs the same
    rng = np.random.default_rng(17)
    like = [np.maximum(rng.uniform(size=(4, b)), 1e-3) for b in (5, 3)]
    m = toy_model(like, transition=rng.dirichlet(np.ones(4), size=4))
    steps = np.stack([rng.integers(0, b, 40) for b in (5, 3)], axis=1)
    for mode, width in (("logarithmic", 8), ("stochastic", 8), ("stochastic", 16)):
        img = modelkit.compile_model(m, mode, width)
        assert img.values_per_column[0] == 8
        col0 = img.blocks[0][:, : m.classes + 3]
        narrow = machine.MemoryImage([col0, *img.blocks[1:]], img.width, img.kind)
        configs = [machine.MachineConfig(16, s) for s in stochastic.STRATEGIES]
        for cfg in configs if mode == "stochastic" else [machine.MachineConfig()]:
            a = machine.run_filter(img, steps, cfg, seed=5)
            b = machine.run_filter(narrow, steps, cfg, seed=5)
            assert a.winner.tolist() == b.winner.tolist()
            assert np.array_equal(a.scores, b.scores) and np.array_equal(a.cycles, b.cycles)


def test_compile_decode_round_trip_bound():
    rng = np.random.default_rng(13)
    like = [np.maximum(rng.uniform(size=(3, 5)), 1e-3) for _ in range(2)]
    like = [t / t.max() for t in like]
    m = toy_model(like)
    img = modelkit.compile_model(m, "logarithmic")
    step = 2.0 ** (1 / 16)  # half of one 1/8 quantization step
    for c in range(2):
        decoded = logprob.decode_array(img.blocks[c])
        ratio = decoded / m.likelihood[c]
        assert np.all(ratio <= step + 1e-12)
        assert np.all(ratio >= 1 / step - 1e-12)


# ---- oracles ----

def test_oracle_infer_normalizes():
    like = [np.array([[0.4], [0.2]]), np.array([[0.5], [0.5]])]
    m = toy_model(like)
    res = modelkit.oracle_infer(m, [[0, 0]])
    assert res.posterior[0] == pytest.approx([2 / 3, 1 / 3])
    assert res.winner[0] == 0
    assert not res.degenerate[0]


def test_oracle_infer_single_class():
    m = toy_model([np.array([[0.7]]), np.array([[0.9]])])
    res = modelkit.oracle_infer(m, [[0, 0]])
    assert res.posterior[0] == pytest.approx([1.0])
    assert res.winner[0] == 0


def test_oracle_infer_underflow_degenerate():
    tiny = 1e-200
    m = toy_model([np.array([[tiny], [tiny]])] * 2)
    res = modelkit.oracle_infer(m, [[0, 0]])
    assert res.degenerate[0]
    assert res.posterior[0] == pytest.approx([0.5, 0.5])
    assert res.winner[0] == 0


def test_oracle_infer_scale_invariance():
    rng = np.random.default_rng(21)
    like = [np.maximum(rng.uniform(size=(4, 3)), 1e-6) for _ in range(3)]
    m1 = toy_model(like)
    scaled = [t.copy() for t in like]
    scaled[1] = scaled[1] * 0.125  # one column rescaled
    m2 = toy_model(scaled)
    for obs in [(0, 0, 0), (1, 2, 0), (2, 1, 2)]:
        assert modelkit.oracle_infer(m1, [obs]).winner == modelkit.oracle_infer(m2, [obs]).winner


def test_oracle_infer_brute_force_agreement():
    rng = np.random.default_rng(33)
    for _ in range(200):
        like = [np.maximum(rng.uniform(size=(4, 4)), 1e-6) for _ in range(4)]
        m = toy_model(like)
        obs = rng.integers(0, 4, size=4)
        res = modelkit.oracle_infer(m, [obs])
        products = [
            np.prod([like[c][r, obs[c]] for c in range(4)]) for r in range(4)
        ]
        assert res.winner[0] == int(np.argmax(products))


def test_oracle_filter_sticky_constant():
    like = [np.full((2, 3), 0.5)]  # non-informative
    trans = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = toy_model(like, transition=trans)
    winners = modelkit.oracle_filter(m, [[0], [1], [2], [0]])
    assert winners == [0, 0, 0, 0]


def test_oracle_filter_identity_decouples():
    like = [np.array([[1.0, 0.1], [0.1, 1.0]])]
    trans = np.array([[0.6, 0.4], [0.4, 0.6]])
    m = toy_model(like, transition=trans)
    obs = [[0], [1], [1], [0]]
    # 10:1 observations override the 1.5:1 stickiness every step
    assert modelkit.oracle_filter(m, obs) == [0, 1, 1, 0]


def test_oracle_filter_three_step_enumeration():
    like = [np.array([[0.9, 0.2], [0.3, 0.8]])]
    trans = np.array([[0.7, 0.3], [0.4, 0.6]])
    m = toy_model(like, transition=trans)
    obs = [[0], [1], [1]]
    # hand recursion: step0 uniform*(0.9,0.3) -> 0; step1 (0.7,0.3)*(0.2,0.8)
    # = (0.14,0.24) -> 1; step2 (0.4,0.6)*(0.2,0.8) = (0.08,0.48) -> 1
    winners = modelkit.oracle_filter(m, obs)
    assert winners == [0, 1, 1]


# ---- persistence ----

def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    like = [np.maximum(rng.uniform(size=(3, 4)), 1e-6) for _ in range(2)]
    trans = modelkit.estimate_transitions(rng.integers(0, 3, size=50), 3)
    m = toy_model(like, transition=trans)
    path = tmp_path / "m.json"
    modelkit.save_model(path, m)
    back = modelkit.load_model(path)
    assert back.classes == m.classes and back.bins == m.bins
    for a, b in zip(back.likelihood, m.likelihood):
        assert np.array_equal(a, b)
    assert np.array_equal(back.transition, m.transition)
    for a, b in zip(back.bin_edges, m.bin_edges):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("prior", [[0.97, 0.01, 0.01], [0.0] * 3, [-1.0] * 3, [1.0] * 2,
                                   [[1.0] * 3], "uniform"])
def test_model_json_refuses_a_prior_no_machine_holds(prior):
    # the only prior a compiled image can hold is the uniform one
    rng = np.random.default_rng(41)
    m = toy_model([np.maximum(rng.uniform(size=(3, 4)), 1e-6) for _ in range(2)])
    doc = json.loads(modelkit.model_to_json(m))
    assert doc["prior"] == [1 / 3] * 3
    modelkit.model_from_json(json.dumps({**doc, "prior": [1, 1, 1]}))
    with pytest.raises(ConfigError if prior != "uniform" else FormatError):
        modelkit.model_from_json(json.dumps({**doc, "prior": prior}))


@pytest.mark.parametrize("field,value", [("classes", 3.0), ("classes", True),
                                         ("features", 2.0), ("features", False),
                                         ("bins", [4, 4.5]), ("bins", [4, True])])
def test_model_json_refuses_non_integral_counts(field, value):
    rng = np.random.default_rng(41)
    m = toy_model([np.maximum(rng.uniform(size=(3, 4)), 1e-6) for _ in range(2)])
    doc = json.loads(modelkit.model_to_json(m))
    # a float or bool count would otherwise pass every shape check (3.0 == 3),
    # and a bin count of 4.5 would be read as 4
    bad = value[-1] if field == "bins" else value
    with pytest.raises(ConfigError, match=f"{field} must be an integer, got {bad!r}"):
        modelkit.model_from_json(json.dumps({**doc, field: value}))


def test_model_validation():
    with pytest.raises(ConfigError):
        toy_model([np.array([[0.0], [0.5]])])  # zero likelihood
    with pytest.raises(ConfigError):
        toy_model([np.array([[1.1], [0.5]])])  # above one
    with pytest.raises(ConfigError):
        toy_model([np.full((2, 2), 0.5)], transition=np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_model_value_errors_name_the_feature():
    tables = [np.full((2, 2), 0.5), np.full((2, 3), 0.5)]
    edges = [np.arange(3.0), np.arange(4.0)]

    def model(tables=tables, edges=edges):
        return BayesModel(2, 2, (2, 3), tables, None, edges)
    model()  # feature 1's first edge lies below feature 0's last one: allowed
    with pytest.raises(ConfigError, match="feature 1: likelihoods"):
        model(tables=[tables[0], np.array([[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]])])
    for bad in ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, np.inf], [0.0, 1.0, 1.0, 3.0]):
        with pytest.raises(ConfigError, match="feature 1: edges"):
            model(edges=[edges[0], np.array(bad)])
    with pytest.raises(ConfigError, match="feature 0: edges"):
        model(edges=[np.array([0.0, np.nan, 2.0]), edges[1]])


# ---- machine agreement ----

def test_machine_matches_oracle_under_margin():
    rng = np.random.default_rng(55)
    agree = checked = 0
    for _ in range(300):
        like = [2.0 ** rng.uniform(-10, 0, size=(4, 1)) for _ in range(4)]
        like = [t / t.max() for t in like]
        m = BayesModel(4, 4, (1,) * 4, like, None, [np.array([0.0, 1.0])] * 4)
        img = modelkit.compile_model(m, "logarithmic")
        res = modelkit.oracle_infer(m, [[0, 0, 0, 0]])
        top2 = np.sort(res.posterior[0])[-2:]
        margin = math.log2(top2[1] / top2[0]) if top2[0] > 0 else math.inf
        if margin > (4 + 1) / 8:
            checked += 1
            got = machine.infer_logarithmic(img, [[0, 0, 0, 0]]).winner[0]
            agree += got == res.winner[0]
    assert checked > 100  # the margin filter must leave real coverage
    assert agree == checked


# ---- whole-array training and compiling against scalar references ----
# train_model fits every (class, feature) in a few array passes,
# estimate_transitions counts with one bincount and compile_model encodes one
# concatenated table.  Each must give the bytes of the per-(class, feature)
# loop, the np.add.at count and the per-block encode kept here.

BIT_IDENTITY = settings(max_examples=60, deadline=None)


def scalar_fit(kind, samples, scale_floor=None):
    x = np.asarray(samples, dtype=float).ravel()
    if kind == "lognormal":
        x = np.log(x)
    loc, scale = float(x.mean()), float(x.std(ddof=1))
    if scale_floor is None:
        span = float(x.max() - x.min())
        scale_floor = 1e-6 * span if span > 0 else 1e-6 * max(abs(loc), 1.0)
    return loc, max(scale, float(scale_floor))


def scalar_train(X, y, classes, bins, kind, span=4.0, floor=logprob.MIN_PROB):
    """One scalar fit per feature and per (class, feature); returns the
    likelihood tables and raw-domain bin edges."""
    tables, edges = [], []
    for c in range(X.shape[1]):
        col = X[:, c]
        work = np.log(col) if kind == "lognormal" else col
        extent = float(work.max() - work.min())
        scale_floor = 1e-6 * extent if extent > 0 else None
        loc, scale = scalar_fit(kind, col, scale_floor)
        grid = np.linspace(loc - span * scale, loc + span * scale, bins[c] + 1)
        centers = 0.5 * (grid[:-1] + grid[1:])
        dens, log_dens = np.empty((classes, bins[c])), np.empty((classes, bins[c]))
        for r in range(classes):
            loc_r, scale_r = scalar_fit(kind, col[y == r], scale_floor)
            z = (centers - loc_r) / scale_r
            dens[r] = np.exp(-0.5 * z * z) / (scale_r * math.sqrt(2.0 * math.pi))
            log_dens[r] = -0.5 * z ** 2 - math.log(scale_r)
        if dens.max() == 0:  # every density underflows: rescale in the log domain
            dens = np.exp(log_dens - log_dens.max())
        else:
            dens = dens / dens.max()
        tables.append(np.maximum(dens, floor))
        edges.append(np.exp(grid) if kind == "lognormal" else grid)
    return tables, edges


@st.composite
def training_sets(draw):
    """Features of 1-4 columns, each spread, constant, or constant within
    class 0 only; classes of 2-30 samples; one bin count per feature."""
    kind = draw(st.sampled_from(modelkit.KINDS))
    classes = draw(st.integers(1, 4))
    features = draw(st.integers(1, 4))
    counts = draw(st.lists(st.one_of(st.just(2), st.integers(2, 30)),
                           min_size=classes, max_size=classes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    y = rng.permutation(np.repeat(np.arange(classes), counts))
    cols = []
    for _ in range(features):
        shape = draw(st.sampled_from(("spread", "constant", "class_0_constant")))
        if shape == "constant":
            col = np.full(len(y), rng.normal(scale=5.0))
        else:
            col = rng.normal(rng.normal(size=classes)[y], rng.uniform(0.1, 3.0, classes)[y])
            if shape == "class_0_constant":
                col[y == 0] = col[np.argmax(y == 0)]
        cols.append(np.exp(col) if kind == "lognormal" else col)
    bins = tuple(draw(st.lists(st.integers(1, 20), min_size=features, max_size=features)))
    return np.column_stack(cols), y, classes, bins, kind


@BIT_IDENTITY
@given(training_sets())
def test_train_model_equals_scalar_fits(case):
    X, y, classes, bins, kind = case
    tables, edges = scalar_train(X, y, classes, bins, kind)
    model = modelkit.train_model(X, y, classes, bins, kind=kind)
    for c in range(X.shape[1]):
        assert model.likelihood[c].tobytes() == tables[c].tobytes()
        assert model.bin_edges[c].tobytes() == edges[c].tobytes()


@pytest.mark.parametrize("bins", [1, 4, 16, 64])
def test_feature_whose_densities_all_underflow_trains(bins):
    # constant within each class at two values: each class scale is floored
    # at 1e-6 of the range, so every density underflows at every bin centre
    X, y = np.array([[0.1], [0.64], [0.64], [0.1]]), [1, 0, 0, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = modelkit.train_model(X, y, 2, bins)
    table = model.likelihood[0]
    assert table.max() == 1.0 and table.min() > 0
    assert table.tobytes() == scalar_train(X, np.array(y), 2, (bins,), "gaussian")[0][0].tobytes()
    if bins > 1:  # each class peaks at the bin that holds its own value
        assert modelkit.oracle_infer(model, modelkit.bin_observations(model, X)).winner.tolist() == y


def scalar_transitions(labels, classes, alpha):
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.zeros((classes, classes))
    np.add.at(counts, (labels[:-1], labels[1:]), 1.0)
    denom = counts.sum(axis=1, keepdims=True) + alpha * classes
    unseen = denom == 0
    return np.where(unseen, 1.0 / classes, (counts + alpha) / np.where(unseen, 1.0, denom))


@BIT_IDENTITY
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=80),
    st.sampled_from((0.0, 0.25, 1.0)))))
def test_transitions_equal_add_at_counts(case):
    classes, labels, alpha = case  # alpha = 0 leaves unseen rows uniform
    got = modelkit.estimate_transitions(labels, classes, alpha)
    assert got.tobytes() == scalar_transitions(labels, classes, alpha).tobytes()


@st.composite
def compile_cases(draw):
    """A model with transitions or not, tables that reach 1, values near the
    smallest codes, and bin counts that differ by feature."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    classes = draw(st.integers(1, 5))
    bins = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    tables = [np.clip(2.0 ** rng.uniform(-40, 0, (classes, b)), 1e-12, 1.0) for b in bins]
    tables[0][0, 0] = 1.0
    transition = None
    if draw(st.booleans()):
        transition = rng.dirichlet(np.ones(classes), size=classes)
    return BayesModel(classes, len(bins), bins, tables, transition,
                      [np.arange(b + 1.0) for b in bins])


@BIT_IDENTITY
@given(compile_cases())
def test_compile_equals_per_block_encode(model):
    for mode, width, encode in (("logarithmic", 8, lambda p, _: logprob.encode_array(p)),
                                ("stochastic", 8, stochastic.quantize_linear_array),
                                ("stochastic", 16, stochastic.quantize_linear_array)):
        image = modelkit.compile_model(model, mode, width)
        blocks = list(model.likelihood)
        if model.transition is not None:
            # column 0: the smallest power of two above classes
            v0 = image.values_per_column[0]
            assert v0 & (v0 - 1) == 0 and v0 // 2 < model.classes + 1 <= v0
            col0 = np.zeros((model.classes, v0))
            col0[:, : model.classes] = model.transition.T
            col0[:, model.classes] = 1.0 / model.classes
            blocks.insert(0, col0)
        assert len(image.blocks) == len(blocks)
        for got, block in zip(image.blocks, blocks):
            want = encode(block, width)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
