"""Feature extraction, synthetic task generators, and their file formats.

Two task families mirror the hardware experiments: a sequential
"sleep_like" task (hidden Markov states, lognormal band-power features,
solved with the recursive filter) and an i.i.d. "gesture_like" task
(class-conditional gaussian features, solved with plain naive Bayes).
Raw-signal CSV rows can be reduced to those features here: single-bin
spectral power from one DFT bin for EEG bands, mean square
power for EMG, and simple time-domain statistics for accelerometer
traces.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (DomainError, FormatError, check_int, parse_header, read_text, read_versioned,
                     write_json)
from .machine import walk

_DATASET_VERSION = 1
SPLIT_MAX = 1 << 22  # feature values of one generated split: rows * features
_SPEC_VERSION = 1

SLEEP_FEATURE_NAMES = ("eeg_delta_1p5hz", "eeg_alpha_9p35hz", "emg_power")
GESTURE_FEATURE_NAMES = (
    "mean_ax", "mean_ay", "mean_az",
    "max_ax", "max_ay", "max_az",
    "var_mag", "mean_mag", "mean_jerk", "max_jerk",
)


# ---- signal statistics ----

def psd_at(signal, fs: float, f0: float) -> float:
    """Normalized single-bin spectral power |X_k|^2 / N^2 at the DFT bin
    nearest f0 (rectangular window), X_k computed directly as one dot product.

    A unit-amplitude sine sitting exactly on a bin yields 0.25.
    """
    x = np.asarray(signal, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise DomainError("need at least 2 samples")
    if fs <= 0:
        raise DomainError("sample rate must be positive")
    if not 0.0 < f0 < fs / 2.0:
        raise DomainError(f"target frequency {f0} outside (0, fs/2)")
    k = int(math.floor(n * f0 / fs + 0.5))
    xk = x @ np.exp(-2j * math.pi / n * (k * np.arange(n) % n))  # k * t mod n: exact phases
    return (xk.real * xk.real + xk.imag * xk.imag) / (n * n)


def signal_power(signal) -> float:
    """Mean squared sample value."""
    x = np.asarray(signal, dtype=float).ravel()
    if x.size == 0:
        raise DomainError("empty signal")
    return float(np.mean(x * x))


def sleep_features(eeg, emg, fs: float) -> np.ndarray:
    """One epoch of raw EEG/EMG -> (delta power, alpha power, EMG power)."""
    return np.array([
        psd_at(eeg, fs, 1.5),
        psd_at(eeg, fs, 9.35),
        signal_power(emg),
    ])


def gesture_features(accel, dt: float) -> np.ndarray:
    """One 3-axis accelerometer trace -> the ten gesture statistics.

    Order follows GESTURE_FEATURE_NAMES: per-axis means, per-axis maxima,
    variance and mean of the magnitude, then mean and max jerk, where jerk
    is the absolute finite difference of the magnitude over dt.
    """
    a = np.asarray(accel, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3 or a.shape[0] < 2:
        raise DomainError("accel trace must be (samples >= 2, 3 axes)")
    if dt <= 0:
        raise DomainError("dt must be positive")
    mag = np.linalg.norm(a, axis=1)
    jerk = np.abs(np.diff(mag)) / dt
    return np.concatenate([
        a.mean(axis=0),
        a.max(axis=0),
        [mag.var(), mag.mean(), jerk.mean(), jerk.max()],
    ])


# ---- synthetic tasks ----

@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Everything needed to regenerate a synthetic dataset bit-for-bit.

    ``locations``/``scales`` are (classes, features) emission parameters;
    for sleep_like they live in the log domain (emissions are lognormal)
    and ``transition`` drives the hidden state chain.  ``train_size`` and
    ``test_size`` count chain steps for sleep_like and samples per class
    for gesture_like; a split of more than `SPLIT_MAX` feature values is
    refused.
    """

    kind: str
    classes: int
    features: int
    locations: tuple
    scales: tuple
    transition: tuple | None
    train_size: int
    test_size: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sleep_like", "gesture_like"):
            raise DomainError(f"unknown task kind {self.kind!r}")
        for name in ("classes", "features", "train_size", "test_size", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        loc = np.asarray(self.locations, dtype=float)
        sc = np.asarray(self.scales, dtype=float)
        if loc.shape != (self.classes, self.features) or sc.shape != loc.shape:
            raise DomainError("locations/scales must be (classes, features)")
        if not np.all(np.isfinite(loc)):
            raise DomainError("locations must be finite")
        if not np.all((sc > 0) & (sc < np.inf)):  # also refuses NaN
            raise DomainError("scales must be positive and finite")
        object.__setattr__(self, "locations", tuple(map(tuple, loc.tolist())))
        object.__setattr__(self, "scales", tuple(map(tuple, sc.tolist())))
        if self.kind == "sleep_like":
            if self.transition is None:
                raise DomainError("sleep_like needs a transition matrix")
            tr = np.asarray(self.transition, dtype=float)
            # Generator.choice's tolerance: the chain sampler trusts these rows
            if tr.shape != (self.classes, self.classes) or np.any(tr < 0) or not np.all(
                    np.abs(tr.sum(axis=1) - 1.0) <= np.sqrt(np.finfo(float).eps)):
                raise DomainError("transition rows must be distributions over classes")
            object.__setattr__(self, "transition", tuple(map(tuple, tr.tolist())))
        elif self.transition is not None:
            raise DomainError("gesture_like takes no transition matrix")
        if self.train_size < 1 or self.test_size < 1:
            raise DomainError("train_size and test_size must be >= 1")
        # feature values per unit of size: one row a step, or one row per class a sample
        per = self.features * (self.classes if self.kind == "gesture_like" else 1)
        for name, size in (("train_size", self.train_size), ("test_size", self.test_size)):
            if size * per > SPLIT_MAX:
                raise DomainError(f"{name} {size} generates {size * per} feature values, "
                                  f"more than {SPLIT_MAX}")


def _uniform_offdiag(classes: int, stay: float) -> np.ndarray:
    t = np.full((classes, classes), (1.0 - stay) / (classes - 1))
    np.fill_diagonal(t, stay)
    return t


def sleep_like_spec(seed: int = 0, train_size: int = 2000, test_size: int = 600) -> SyntheticTaskSpec:
    """Default 4-state sleep-like task: sticky chain, lognormal band powers."""
    pattern = np.array([
        [0.0, 0.0, 2.0],
        [0.0, 2.0, 0.0],
        [2.0, 0.0, 0.0],
        [2.0, 2.0, 2.0],
    ])
    sigma = 0.8
    return SyntheticTaskSpec(
        kind="sleep_like",
        classes=4,
        features=3,
        locations=tuple(map(tuple, (sigma * pattern).tolist())),
        scales=tuple(map(tuple, np.full((4, 3), sigma).tolist())),
        transition=tuple(map(tuple, _uniform_offdiag(4, 0.95).tolist())),
        train_size=train_size,
        test_size=test_size,
        seed=seed,
    )


def gesture_like_spec(seed: int = 0, train_size: int = 200, test_size: int = 50) -> SyntheticTaskSpec:
    """Default 4-class gesture-like task: six gaussian features per class."""
    pattern = np.array([
        [+1, +1, +1, +1, +1, +1],
        [+1, -1, +1, -1, +1, -1],
        [+1, +1, -1, -1, +1, +1],
        [+1, -1, -1, +1, +1, -1],
    ], dtype=float)
    return SyntheticTaskSpec(
        kind="gesture_like",
        classes=4,
        features=6,
        locations=tuple(map(tuple, pattern.tolist())),
        scales=tuple(map(tuple, np.ones((4, 6)).tolist())),
        transition=None,
        train_size=train_size,
        test_size=test_size,
        seed=seed,
    )


@dataclass
class Dataset:
    features: np.ndarray  # (samples, features) float
    labels: np.ndarray  # (samples,) int; sequential order matters for sleep_like

    def __len__(self):
        return len(self.labels)


def _gen_chain(rng: np.random.Generator, spec: SyntheticTaskSpec, steps: int) -> Dataset:
    # Per-step rng.choice's stream in blocks: the first state, one uniform per
    # later step, then the normals.  table[t][v] is the state after v at step t + 1.
    tr = np.asarray(spec.transition)
    loc = np.asarray(spec.locations)
    sc = np.asarray(spec.scales)
    first = rng.integers(spec.classes)
    u = rng.random(steps - 1)
    cdf = tr.cumsum(axis=1)
    table = np.stack([np.searchsorted(c / c[-1], u, side="right") for c in cdf], axis=1)
    labels = np.array([first, *walk(table, first)], dtype=np.int64)
    feats = np.exp(rng.normal(loc[labels], sc[labels]))
    return Dataset(feats, labels)


def _gen_iid(rng: np.random.Generator, spec: SyntheticTaskSpec, per_class: int) -> Dataset:
    loc = np.asarray(spec.locations)
    sc = np.asarray(spec.scales)
    # one call draws class by class, row-major, as per-class calls would
    feats = rng.normal(np.repeat(loc, per_class, axis=0), np.repeat(sc, per_class, axis=0))
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), per_class)
    order = rng.permutation(len(labels))
    return Dataset(feats[order], labels[order])


def generate(spec: SyntheticTaskSpec):
    """Deterministically generate (train, test) datasets for a task spec."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "sleep_like":
        return _gen_chain(rng, spec, spec.train_size), _gen_chain(rng, spec, spec.test_size)
    return _gen_iid(rng, spec, spec.train_size), _gen_iid(rng, spec, spec.test_size)


# ---- task spec and dataset files ----

def save_task_spec(path, spec: SyntheticTaskSpec) -> None:
    write_json(path, {"version": _SPEC_VERSION, **asdict(spec)})


def load_task_spec(path) -> SyntheticTaskSpec:
    """The spec in a `save_task_spec` file; a missing seed is 0."""
    names = [f.name for f in fields(SyntheticTaskSpec)]
    return read_versioned(read_text(path), path, _SPEC_VERSION, "task spec",
                          lambda doc: SyntheticTaskSpec(**{k: doc[k] for k in names if k in doc}))


def save_dataset(path, ds: Dataset, manifest: str | None = None) -> None:
    """Write a feature dataset CSV; floats keep full round-trip precision."""
    tail = "" if manifest is None else f" manifest={manifest}"
    with open(path, "w", newline="") as fh:
        fh.write(f"# bayesim-dataset version={_DATASET_VERSION} kind=features "
                 f"fs=0.0 dt=0.0 columns={ds.features.shape[1]}{tail}\n")
        w = csv.writer(fh)
        for row, label in zip(ds.features, ds.labels):
            w.writerow([int(label)] + [repr(float(v)) for v in row])


def _header_number(header: dict, key: str, path, conv):
    """A finite, non-negative number from the dataset header, read by ``conv``."""
    try:
        v = conv(header[key])
    except (KeyError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}:1: header needs a number {key}=, "
                          f"got {header.get(key)!r}") from exc
    if not (math.isfinite(v) and v >= 0):
        raise FormatError(f"{path}:1: header field {key}={v!r} out of range")
    return v


def load_dataset(path) -> Dataset:
    """Read a dataset CSV.  kind=features rows hold label + feature values;
    kind=sleep_signal rows hold label + eeg_len EEG + emg_len EMG samples;
    kind=gesture_signal rows hold label + interleaved x,y,z samples.  Raw
    signal rows are reduced to features on load.  Header fields, labels
    and the features of every row are checked here: malformed text, a
    negative label or a non-finite feature raises FormatError."""
    fh = io.StringIO(read_text(path), newline="")
    name, header = parse_header(fh.readline()) or (None, {})
    if name != "bayesim-dataset":
        raise FormatError(f"{path}:1: missing dataset header")
    if header.get("version") != str(_DATASET_VERSION):
        raise FormatError(f"{path}:1: unsupported dataset version {header.get('version')}")
    kind = header.get("kind", "features")
    if kind == "features":
        want = _header_number(header, "columns", path, int)
    elif kind == "sleep_signal":
        fs = _header_number(header, "fs", path, float)
        ne = _header_number(header, "eeg_len", path, int)
        want = ne + _header_number(header, "emg_len", path, int)
    elif kind == "gesture_signal":
        dt = _header_number(header, "dt", path, float)
    else:
        raise FormatError(f"{path}:1: unknown dataset kind {kind!r}")
    feats, labels = [], []
    try:
        rows = list(csv.reader(fh))
    except csv.Error as exc:
        raise FormatError(f"{path}: {exc}") from exc
    for ln, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            label = int(row[0])
            vals = np.array([float(v) for v in row[1:]])
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: {exc}") from exc
        if not 0 <= label < 2**63:
            raise FormatError(f"{path}:{ln}: label {label} is not a class index")
        if kind == "gesture_signal":
            if vals.size % 3:
                raise FormatError(f"{path}:{ln}: 3-axis samples must come in triples")
            row_feats = gesture_features(vals.reshape(-1, 3), dt)
        elif vals.size != want:
            raise FormatError(f"{path}:{ln}: expected {want} values, got {vals.size}")
        else:
            row_feats = vals if kind == "features" else sleep_features(vals[:ne], vals[ne:], fs)
        if not np.all(np.isfinite(row_feats)):
            raise FormatError(f"{path}:{ln}: non-finite feature value")
        feats.append(row_feats)
        labels.append(label)
    if not labels:
        raise FormatError(f"{path}: no data rows")
    return Dataset(np.vstack(feats), np.asarray(labels, dtype=np.int64))
