import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayesim import modelkit, tasks
from bayesim.errors import DomainError, FormatError, ValidationError


# ---- spectral features ----

def test_psd_pure_sine_on_bin():
    fs, n = 100.0, 500
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 10.0 * t)  # bin 50 exactly
    assert tasks.psd_at(x, fs, 10.0) == pytest.approx(0.25, rel=1e-9)


def test_psd_zero_signal():
    assert tasks.psd_at(np.zeros(64), 100.0, 1.5) == 0.0


def test_psd_nearest_bin_rounds_up():
    # 1.5 Hz at fs=100, N=500: resolution 0.2 Hz, k = round(7.5) = 8 (1.6 Hz)
    fs, n = 100.0, 500
    t = np.arange(n) / fs
    on_bin8 = np.sin(2 * np.pi * 1.6 * t)
    assert tasks.psd_at(on_bin8, fs, 1.5) == pytest.approx(0.25, rel=1e-9)
    on_bin7 = np.sin(2 * np.pi * 1.4 * t)  # orthogonal bin leaks nothing
    assert tasks.psd_at(on_bin7, fs, 1.5) == pytest.approx(0.0, abs=1e-12)


def test_psd_matches_direct_dft():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(16, 400))
        x = rng.normal(size=n)
        fs = 64.0
        f0 = float(rng.uniform(1.0, 31.0))
        k = int(math.floor(n * f0 / fs + 0.5))
        want = np.abs(np.fft.fft(x)[k]) ** 2 / n ** 2
        assert tasks.psd_at(x, fs, f0) == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_psd_domain_checks():
    with pytest.raises(DomainError):
        tasks.psd_at([1.0], 100.0, 1.5)
    with pytest.raises(DomainError):
        tasks.psd_at(np.ones(16), 100.0, 50.0)  # at Nyquist
    with pytest.raises(DomainError):
        tasks.psd_at(np.ones(16), 100.0, 0.0)


def test_signal_power_examples():
    assert tasks.signal_power([1, -1, 1, -1]) == 1.0
    assert tasks.signal_power(np.zeros(8)) == 0.0
    assert tasks.signal_power([3.0, 4.0]) == 12.5
    with pytest.raises(DomainError):
        tasks.signal_power([])


def test_sleep_features_composition():
    rng = np.random.default_rng(8)
    eeg, emg = rng.normal(size=500), rng.normal(size=200)
    f = tasks.sleep_features(eeg, emg, fs=100.0)
    assert f.shape == (3,)
    assert f[0] == tasks.psd_at(eeg, 100.0, 1.5)
    assert f[1] == tasks.psd_at(eeg, 100.0, 9.35)
    assert f[2] == tasks.signal_power(emg)


# ---- gesture features ----

def test_gesture_feature_order_and_values():
    accel = np.array([[1.0, 0.0, 0.0],
                      [2.0, 0.0, 0.0],
                      [4.0, 0.0, 0.0]])
    f = tasks.gesture_features(accel, dt=1.0)
    assert len(f) == len(tasks.GESTURE_FEATURE_NAMES) == 10
    names = list(tasks.GESTURE_FEATURE_NAMES)
    assert f[names.index("mean_ax")] == pytest.approx(7 / 3)
    assert f[names.index("max_ax")] == 4.0
    assert f[names.index("mean_mag")] == pytest.approx(7 / 3)
    assert f[names.index("var_mag")] == pytest.approx(14 / 9)  # population variance
    assert f[names.index("mean_jerk")] == pytest.approx(1.5)
    assert f[names.index("max_jerk")] == pytest.approx(2.0)


def test_gesture_constant_accel_zero_jerk():
    accel = np.tile([0.5, -1.0, 2.0], (6, 1))
    f = tasks.gesture_features(accel, dt=0.01)
    names = list(tasks.GESTURE_FEATURE_NAMES)
    assert f[names.index("mean_jerk")] == 0.0
    assert f[names.index("max_jerk")] == 0.0
    assert f[names.index("var_mag")] == pytest.approx(0.0)


def test_gesture_axis_maxima_componentwise():
    accel = np.array([[3.0, -1.0, 0.0],
                      [1.0, 5.0, -2.0]])
    f = tasks.gesture_features(accel, dt=1.0)
    assert list(f[3:6]) == [3.0, 5.0, 0.0]


def test_gesture_jerk_scales_with_dt():
    accel = np.array([[1.0, 0, 0], [2.0, 0, 0]])
    slow = tasks.gesture_features(accel, dt=1.0)
    fast = tasks.gesture_features(accel, dt=0.5)
    names = list(tasks.GESTURE_FEATURE_NAMES)
    assert fast[names.index("max_jerk")] == 2 * slow[names.index("max_jerk")]


def test_gesture_input_checks():
    with pytest.raises(DomainError):
        tasks.gesture_features(np.zeros((1, 3)), dt=1.0)
    with pytest.raises(DomainError):
        tasks.gesture_features(np.zeros((4, 2)), dt=1.0)
    with pytest.raises(DomainError):
        tasks.gesture_features(np.zeros((4, 3)), dt=0.0)


# ---- feature selection ----

def test_select_features_finds_the_separator():
    rng = np.random.default_rng(5)
    n = 120
    y = np.repeat([0, 1], n // 2)
    X = rng.normal(size=(n, 4))
    X[:, 2] = y * 6.0 + rng.normal(scale=0.3, size=n)  # clean separator
    picks = tasks.select_features(X, y, classes=2, budget=2, bins=16)
    assert picks[0] == 2


def test_select_features_tie_prefers_lower_index():
    rng = np.random.default_rng(6)
    n = 80
    y = np.repeat([0, 1], n // 2)
    sep = y * 5.0 + rng.normal(scale=0.2, size=n)
    X = np.column_stack([sep, sep.copy(), rng.normal(size=n)])
    picks = tasks.select_features(X, y, classes=2, budget=1, bins=16)
    assert picks == [0]


def test_select_features_total_on_noise():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 5))
    y = rng.integers(0, 2, size=60)
    picks = tasks.select_features(X, y, classes=2, budget=3, bins=8)
    assert len(picks) == 3
    assert len(set(picks)) == 3


# ---- synthetic generation ----

def test_spec_validation():
    with pytest.raises(DomainError):
        tasks.SyntheticTaskSpec("sleep_like", 2, 1, ((0.0,), (1.0,)),
                                ((1.0,), (1.0,)), None, 10, 10)
    with pytest.raises(DomainError):
        tasks.gesture_like_spec(train_size=0)
    with pytest.raises(DomainError):
        tasks.SyntheticTaskSpec("gesture_like", 2, 1, ((0.0,), (1.0,)),
                                ((1.0,), (0.0,)), None, 10, 10)

    def sleep(transition):
        return tasks.SyntheticTaskSpec("sleep_like", 2, 1, ((0.0,), (1.0,)),
                                       ((1.0,), (1.0,)), transition, 10, 10)
    # rows are held to Generator.choice's tolerance, sqrt(float64 eps)
    for bad in (((0.5, 0.5 + 5e-6), (0.5, 0.5)), ((1.5, -0.5), (0.5, 0.5))):
        with pytest.raises(DomainError):
            sleep(bad)
    tasks.generate(sleep(((0.5, 0.5 + 1e-12), (0.5, 0.5))))


def iid_reference(rng, spec, per_class):
    """The per-class draw loop that _gen_iid's one normal call replaced."""
    loc, sc = np.asarray(spec.locations), np.asarray(spec.scales)
    feats = np.concatenate([rng.normal(loc[r], sc[r], size=(per_class, spec.features))
                            for r in range(spec.classes)])
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), per_class)
    order = rng.permutation(len(labels))
    return feats[order], labels[order]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 40), st.integers(0, 2**32))
def test_iid_generator_equals_per_class_draws(classes, features, per_class, seed):
    params = np.random.default_rng(seed).uniform(0.1, 3.0, size=(2, classes, features))
    spec = tasks.SyntheticTaskSpec("gesture_like", classes, features, params[0], params[1],
                                   None, per_class, 1, seed)
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = tasks._gen_iid(new, spec, per_class)
    feats, labels = iid_reference(ref, spec, per_class)
    assert got.features.tobytes() == feats.tobytes()
    assert got.labels.tobytes() == labels.tobytes()
    assert new.random() == ref.random()  # both leave the stream at the same place


def test_generate_deterministic():
    spec = tasks.sleep_like_spec(seed=42, train_size=50, test_size=20)
    a_train, a_test = tasks.generate(spec)
    b_train, b_test = tasks.generate(spec)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_train.labels, b_train.labels)
    assert np.array_equal(a_test.features, b_test.features)
    assert len(a_train) == 50 and len(a_test) == 20


def test_generate_absorbing_chain():
    spec = dataclasses.replace(tasks.sleep_like_spec(seed=3, train_size=40, test_size=10),
                               transition=tuple(map(tuple, np.eye(4).tolist())))
    train, test = tasks.generate(spec)
    assert len(set(train.labels.tolist())) == 1
    assert len(set(test.labels.tolist())) == 1


def test_generate_chance_level_when_emissions_identical():
    flat = tuple(map(tuple, np.zeros((4, 6)).tolist()))
    ones = tuple(map(tuple, np.ones((4, 6)).tolist()))
    spec = tasks.SyntheticTaskSpec("gesture_like", 4, 6, flat, ones, None,
                                   train_size=200, test_size=200, seed=11)
    train, test = tasks.generate(spec)
    m = modelkit.train_model(train.features, train.labels, 4, bins=16)
    obs = modelkit.bin_observations(m, test.features)
    acc = np.mean([modelkit.oracle_infer(m, [o]).winner[0] == t
                   for o, t in zip(obs, test.labels)])
    # chance is 1/4; binomial 3 sigma on 800 test points
    assert abs(acc - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / 800)


def test_generate_empirical_transition_matches_spec():
    spec = tasks.sleep_like_spec(seed=19, train_size=100_000, test_size=1)
    train, _ = tasks.generate(spec)
    got = modelkit.estimate_transitions(train.labels, 4, alpha=0.0)
    want = np.asarray(spec.transition)
    counts = np.bincount(train.labels[:-1], minlength=4)
    for i in range(4):
        bound = 3 * np.sqrt(want[i] * (1 - want[i]) / counts[i])
        assert np.all(np.abs(got[i] - want[i]) <= bound)


def chain_reference(rng, spec, steps):
    """The per-step chain sampler: a uniform first state, one
    ``rng.choice`` per later step, then the lognormal emissions."""
    tr = np.asarray(spec.transition)
    loc = np.asarray(spec.locations)
    sc = np.asarray(spec.scales)
    labels = np.empty(steps, dtype=np.int64)
    labels[0] = rng.integers(spec.classes)
    for t in range(1, steps):
        labels[t] = rng.choice(spec.classes, p=tr[labels[t - 1]])
    return np.exp(rng.normal(loc[labels], sc[labels])), labels


def pinned_generator(seed, index, value):
    """A PCG64 generator whose raw output ``index`` (from 0) is the float64
    uniform ``value``: the state that step reaches gets a zero high word,
    so its XSL-RR output is the low word, and the generator is stepped back
    to ``index`` steps before it."""
    bits = np.random.PCG64(seed)
    state = bits.state
    state["state"]["state"] = int(value * 2**53) << 11
    bits.state = state
    bits.advance(2**128 - index - 1)
    return np.random.Generator(bits)


def exact_uniforms(tr):
    """0, the largest uniform below 1, and every cumulative row sum, raw or
    normalised, that a float64 uniform can equal exactly."""
    cdf = np.cumsum(tr, axis=1)
    vals = {0.0, 1 - 2**-53, *cdf.ravel().tolist(), *(cdf / cdf[:, -1:]).ravel().tolist()}
    return sorted(v for v in vals if 0 <= v < 1 and float(int(v * 2**53)) == v * 2**53)


def chain_spec(tr, train_size, test_size, seed):
    classes = len(tr)
    loc = np.arange(classes * 2, dtype=float).reshape(classes, 2)
    return tasks.SyntheticTaskSpec("sleep_like", classes, 2, loc, np.ones((classes, 2)),
                                   tr, train_size, test_size, seed)


@st.composite
def chain_cases(draw):
    """A sleep-like spec over a random stochastic matrix (zero entries and
    absorbing rows included), and either no pin or one raw output of the
    stream pinned to a uniform that equals a cdf entry."""
    classes = draw(st.integers(1, 6))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    rows = []
    for _ in range(classes):
        if draw(st.booleans()):
            row = np.zeros(classes)
            row[draw(st.integers(0, classes - 1))] = 1.0
        else:
            row = np.array(draw(st.lists(weight, min_size=classes, max_size=classes)
                                .filter(lambda w: sum(w) > 0)))
        rows.append(row / row.sum())
    spec = chain_spec(np.array(rows), draw(st.integers(1, 300)), draw(st.integers(1, 30)),
                      draw(st.integers(0, 2**32)))
    pin = draw(st.none() | st.tuples(st.integers(0, spec.train_size + spec.test_size),
                                     st.sampled_from(exact_uniforms(rows))))
    return spec, pin


@settings(max_examples=100, deadline=None)
@given(chain_cases())
# raw output 1 is the first uniform (the first state takes output 0); u = 0.5
# on the cdf entry 0.5 picks state 1
@example((chain_spec([[0.5, 0.5], [0.5, 0.5]], 5, 3, 7), (1, 0.5)))
# these rows sum to 1 - 2**-53; u = 0.7 picks state 0 under the normalised cdf
@example((chain_spec([[0.7, 0.2, 0.1]] * 3, 5, 3, 7), (1, 0.7)))
def test_chain_generator_equals_per_step_reference(case):
    spec, pin = case

    def stream():
        return np.random.default_rng(spec.seed) if pin is None else pinned_generator(spec.seed, *pin)
    sizes = (spec.train_size, spec.test_size)
    new, ref = stream(), stream()
    got = [tasks._gen_chain(new, spec, n) for n in sizes]
    want = [chain_reference(ref, spec, n) for n in sizes]
    assert new.random() == ref.random()  # both leave the stream at the same place
    if pin is None:
        got, want = got + list(tasks.generate(spec)), want * 2
    for ds, (feats, labels) in zip(got, want):
        assert np.array_equal(ds.labels, labels) and np.array_equal(ds.features, feats)


def test_gesture_labels_balanced_and_shuffled():
    spec = tasks.gesture_like_spec(seed=2, train_size=40, test_size=10)
    train, test = tasks.generate(spec)
    assert len(train) == 160 and len(test) == 40  # per-class sizing
    assert np.bincount(train.labels).tolist() == [40] * 4
    assert not np.array_equal(train.labels, np.sort(train.labels))


# ---- files ----

def test_task_spec_round_trip(tmp_path):
    spec = tasks.sleep_like_spec(seed=77, train_size=30, test_size=10)
    path = tmp_path / "spec.json"
    tasks.save_task_spec(path, spec)
    assert tasks.load_task_spec(path) == spec


@pytest.mark.parametrize("field", ["seed", "train_size", "test_size", "classes", "features"])
def test_task_spec_integer_fields_checked(field, tmp_path):
    path = tmp_path / "spec.json"
    tasks.save_task_spec(path, tasks.gesture_like_spec(seed=5, train_size=8, test_size=4))
    doc = json.loads(path.read_text())
    for value in ("abc", "3", 2.5, 3.0, True, None, [3]):
        path.write_text(json.dumps({**doc, field: value}))
        with pytest.raises(ValidationError):
            tasks.load_task_spec(path)


def test_task_spec_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        tasks.gesture_like_spec(seed=-1)
    spec = tasks.gesture_like_spec(seed=np.int64(4))
    assert type(spec.seed) is int and spec == tasks.gesture_like_spec(seed=4)


def test_task_spec_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json\n")
    with pytest.raises(FormatError):
        tasks.load_task_spec(path)
    path.write_text('{"version": 99}\n')
    with pytest.raises(FormatError):
        tasks.load_task_spec(path)


def test_dataset_round_trip_exact(tmp_path):
    spec = tasks.gesture_like_spec(seed=4, train_size=10, test_size=5)
    train, _ = tasks.generate(spec)
    feats = np.column_stack([train.features, np.full(len(train), np.pi)])
    ds = tasks.Dataset(feats, train.labels)
    path = tmp_path / "d.csv"
    tasks.save_dataset(path, ds)
    assert path.read_text().startswith(
        f"# bayesim-dataset version=1 kind=features fs=0.0 dt=0.0 columns={feats.shape[1]}\n")
    back = tasks.load_dataset(path)
    assert np.array_equal(back.features, ds.features)  # repr round trip
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_header_errors_are_line_anchored(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0\n0,1.0\n")
    with pytest.raises(FormatError, match=":1:"):
        tasks.load_dataset(path)
    path.write_text("# bayesim-dataset version=1 kind=features columns=2\n0,1.0\n")
    with pytest.raises(FormatError, match=":2:"):
        tasks.load_dataset(path)
    path.write_text("# bayesim-dataset version=1 kind=features columns=1\n0,oops\n")
    with pytest.raises(FormatError, match=":2:"):
        tasks.load_dataset(path)


def test_sleep_signal_rows_reduce_to_features(tmp_path):
    rng = np.random.default_rng(30)
    fs, ne, nm = 100.0, 400, 80
    eeg, emg = rng.normal(size=ne), rng.normal(size=nm)
    row = [1] + [repr(float(v)) for v in np.concatenate([eeg, emg])]
    path = tmp_path / "sleep.csv"
    path.write_text(
        f"# bayesim-dataset version=1 kind=sleep_signal fs={fs!r} eeg_len={ne} emg_len={nm}\n"
        + ",".join(map(str, row)) + "\n"
    )
    ds = tasks.load_dataset(path)
    assert ds.labels.tolist() == [1]
    assert np.allclose(ds.features[0], tasks.sleep_features(eeg, emg, fs))


def test_gesture_signal_rows_reduce_to_features(tmp_path):
    rng = np.random.default_rng(31)
    accel = rng.normal(size=(20, 3))
    row = [2] + [repr(float(v)) for v in accel.ravel()]
    path = tmp_path / "gest.csv"
    path.write_text(
        "# bayesim-dataset version=1 kind=gesture_signal dt=0.02\n"
        + ",".join(map(str, row)) + "\n"
    )
    ds = tasks.load_dataset(path)
    assert ds.labels.tolist() == [2]
    assert np.allclose(ds.features[0], tasks.gesture_features(accel, 0.02))
    bad = tmp_path / "bad.csv"
    bad.write_text("# bayesim-dataset version=1 kind=gesture_signal dt=0.02\n0,1.0,2.0\n")
    with pytest.raises(FormatError, match="triples"):
        tasks.load_dataset(bad)
