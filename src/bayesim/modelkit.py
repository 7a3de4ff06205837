"""Model training, compilation to memory images, and exact float oracles.

The model layer is deliberately plain: per (feature, class) a parametric
density (gaussian, or lognormal fitted in the log domain), a shared
per-feature binning grid, an optional class transition matrix, and the
resulting per-bin likelihood tables.  ``compile_model`` turns the tables
into integer code images; ``oracle_infer`` / ``oracle_filter`` compute the
same decisions in exact float arithmetic and serve as the reference the
machines are judged against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import logprob, stochastic
from .errors import (ConfigError, DomainError, TrainingError, check_int, json_text, read_text,
                     read_versioned, write_json)
from .machine import KINDS as CODE_KINDS, MODES, MemoryImage, check_addresses, walk

KINDS = ("gaussian", "lognormal")
SPAN = 4.0  # a feature's bin grid covers its pooled mean +- SPAN pooled stds
FLOOR = logprob.MIN_PROB  # smallest likelihood tabulated: the top log code
TABLE_MAX = 1 << 22  # entries of the (classes, total bins) density table train_model builds

_MODEL_VERSION = 1


def _fit_domain(kind: str, samples: np.ndarray) -> np.ndarray:
    if kind == "lognormal":
        if np.any(samples <= 0):
            raise TrainingError("lognormal fit needs strictly positive samples")
        return np.log(samples)
    return samples


def _moments(w: np.ndarray, extent: np.ndarray):
    """Moment fit of each row of ``w`` (rows, samples), in the fitting domain.

    Returns the sample means and the (n-1)-normalized sample stds, each
    floored at 1e-6 of ``extent`` or, where that is zero, at 1e-6 of
    max(|mean|, 1).  Rows must be C-contiguous:
    numpy sums a contiguous row pairwise, exactly as it sums a 1-d array.
    The steps are those of numpy's ``mean`` and ``std(ddof=1)``, with the
    mean computed once.
    """
    n = w.shape[1]
    loc = w.sum(axis=1) / n
    dev = w - loc[:, np.newaxis]
    dev *= dev
    floor = 1e-6 * np.where(extent > 0, extent, np.maximum(np.abs(loc), 1.0))
    return loc, np.maximum(np.sqrt(dev.sum(axis=1) / (n - 1)), floor)


def bin_index(edges: np.ndarray, values) -> np.ndarray:
    """Map raw values to bin addresses; the edge bins absorb the tails."""
    ix = np.searchsorted(edges, np.asarray(values, dtype=float), side="right") - 1
    return np.clip(ix, 0, len(edges) - 2).astype(np.int64)


def _class_labels(labels, classes: int) -> np.ndarray:
    """Labels as int64 class indices; labels outside [0, classes), and
    fractional or non-numeric ones, raise TrainingError."""
    y = np.asarray(labels)
    if y.dtype.kind not in "biuf":
        raise TrainingError(f"labels must be integers, got dtype {y.dtype}")
    if not np.all((y >= 0) & (y < classes)):  # also rejects NaN
        raise TrainingError(f"labels outside [0, {classes})")
    out = y.astype(np.int64)
    if np.any(out != y):
        raise TrainingError("labels must be integers")
    return out


def estimate_transitions(labels, classes: int, alpha: float = 1.0) -> np.ndarray:
    """Additively smoothed transition frequencies from a label sequence.

    Row i is p(next | current = i).  With alpha = 0, rows for states that
    never occur (or never lead anywhere) fall back to uniform.
    """
    if np.size(labels) == 0:
        raise TrainingError("empty label sequence")
    if not 0 <= alpha < math.inf:  # also refuses NaN
        raise DomainError(f"alpha must be finite and >= 0, got {alpha!r}")
    labels = _class_labels(labels, classes)
    pairs = labels[:-1] * classes + labels[1:]
    counts = np.bincount(pairs, minlength=classes * classes).reshape(classes, classes)
    denom = counts.sum(axis=1, keepdims=True) + alpha * classes
    unseen = denom == 0
    return np.where(unseen, 1.0 / classes, (counts + alpha) / np.where(unseen, 1.0, denom))


@dataclass
class BayesModel:
    """A trained model: per-feature bin grids and per-class likelihood tables.

    ``likelihood[c]`` is a (classes, bins[c]) table of probabilities in
    (0, 1]; ``bin_edges[c]`` has bins[c] + 1 raw-domain boundaries.
    ``transition`` is None for plain naive-Bayes models.  The prior is
    uniform (`_prior`): class weighting is the transition column's job in
    filter models, and the naive arrangement has no prior column.
    """

    classes: int
    features: int
    bins: tuple
    likelihood: list
    transition: np.ndarray | None
    bin_edges: list

    def __post_init__(self):
        self.classes = check_int("classes", self.classes, 1)
        self.features = check_int("features", self.features, 1)
        self.bins = tuple(check_int("bins", b, 1) for b in self.bins)
        if len(self.bins) != self.features or len(self.likelihood) != self.features:
            raise ConfigError("bins/likelihood must list one entry per feature")
        self.likelihood = [np.asarray(t, dtype=float) for t in self.likelihood]
        for c, t in enumerate(self.likelihood):
            if t.shape != (self.classes, self.bins[c]):
                raise ConfigError(f"feature {c}: table shape {t.shape} != "
                                  f"({self.classes}, {self.bins[c]})")
        table = np.concatenate(self.likelihood, axis=1)
        bad = ~np.all((table > 0) & (table <= 1), axis=0)  # also rejects NaN
        if bad.any():
            c = int(np.searchsorted(np.cumsum(self.bins), np.argmax(bad), side="right"))
            raise ConfigError(f"feature {c}: likelihoods must lie in (0, 1]")
        if self.transition is not None:
            self.transition = np.asarray(self.transition, dtype=float)
            if self.transition.shape != (self.classes, self.classes):
                raise ConfigError("transition must be (classes, classes)")
            t = self.transition
            # row sums within np.allclose's default tolerance of 1
            if (not np.all(np.isfinite(t) & (t >= 0))
                    or not np.all(np.abs(t.sum(axis=1) - 1.0) <= 1e-8 + 1e-5)):
                raise ConfigError("transition rows must be distributions")
        self.bin_edges = [np.asarray(e, dtype=float) for e in self.bin_edges]

        def edge_error(c):
            return ConfigError(f"feature {c}: edges must be {self.bins[c] + 1} "
                               "finite, strictly increasing values")
        for c, e in enumerate(self.bin_edges):
            if e.shape != (self.bins[c] + 1,):
                raise edge_error(c)
        edges = np.concatenate(self.bin_edges)
        ends = np.cumsum(np.add(self.bins, 1))
        bad = ~np.isfinite(edges)
        rising = np.diff(edges) > 0
        rising[ends[:-1] - 1] = True  # a feature's last edge and the next one's first
        bad[:-1] |= ~rising
        if bad.any():
            raise edge_error(int(np.searchsorted(ends, np.argmax(bad), side="right")))


def train_model(
    features,
    labels,
    classes: int,
    bins,
    kind: str = "gaussian",
    with_transitions: bool = False,
    alpha: float = 1.0,
) -> BayesModel:
    """Fit one distribution per (feature, class) and tabulate likelihoods.

    The bin grid of a feature is shared by all classes (the machine
    addresses every class block with the same bin index), so it comes from
    a pooled fit over the whole feature column.  Each class table is that
    class's density on the shared grid; a whole column is then rescaled by
    its single largest value, which keeps every entry in (0, 1] without
    disturbing the posterior ordering.  Tables of more than `TABLE_MAX`
    entries in all are refused before any is built.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or np.ndim(labels) != 1 or X.shape[0] != len(labels):
        raise TrainingError("features must be (samples, columns) matching labels")
    if classes < 1:
        raise TrainingError("need at least one class")
    if kind not in KINDS:
        raise DomainError(f"unknown distribution kind {kind!r}")
    y = _class_labels(labels, classes)
    cols = X.shape[1]
    if cols < 1:
        raise TrainingError("need at least one feature")
    bins = tuple(check_int("bins", b, 1) for b in ((bins,) * cols if np.isscalar(bins) else bins))
    if len(bins) != cols:
        raise TrainingError("bins must be one size or one per feature")
    # with more than samples // 2 classes one is short: count no class past that
    counts = np.bincount(y[y <= len(y) // 2], minlength=min(classes, len(y) // 2 + 1))
    if counts.min() < 2:
        r = int(np.argmax(counts < 2))
        raise TrainingError(f"class {r} has {counts[r]} samples, need >= 2")
    if classes * sum(bins) > TABLE_MAX:
        raise TrainingError(f"{classes} classes over {sum(bins)} bins need a density table "
                            f"of {classes * sum(bins)} entries, more than {TABLE_MAX}")

    # (features, samples) in the fitting domain; the pooled fit floors every
    # scale, the class fits included, at 1e-6 of the feature's whole range
    work = _fit_domain(kind, np.ascontiguousarray(X.T))
    extent = work.max(axis=1) - work.min(axis=1)
    loc, scale = _moments(work, extent)
    # each class block is copied C-contiguous: numpy would sum the rows of
    # a strided block in another order
    cls_loc, cls_scale = map(np.array, zip(*(
        _moments(np.ascontiguousarray(work[:, y == r]), extent) for r in range(classes))))
    if not (np.all(scale > 0) and np.all(cls_scale > 0)):  # also rejects NaN
        raise DomainError("scale must be positive")

    # every feature's grid, back to back, with numpy.linspace's arithmetic
    nb = np.array(bins)
    of_bin = np.repeat(np.arange(cols), nb)
    of_edge = np.repeat(np.arange(cols), nb + 1)
    first_bin = np.cumsum(nb) - nb
    first_edge = first_bin + np.arange(cols)
    last_edge = first_edge + nb
    lo, hi = loc - SPAN * scale, loc + SPAN * scale
    edges = (np.arange(len(of_edge)) - first_edge[of_edge]) * ((hi - lo) / nb)[of_edge]
    edges += lo[of_edge]
    edges[last_edge] = hi
    centers = np.delete(0.5 * (edges[:-1] + edges[1:]), last_edge[:-1])
    s = cls_scale[:, of_bin]
    z = (centers - cls_loc[:, of_bin]) / s
    dens = np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
    peak = np.maximum.reduceat(dens.max(axis=0), first_bin)  # each feature's largest
    scaled = dens / np.where(peak > 0, peak, 1.0)[of_bin]
    for f in np.flatnonzero(peak == 0):  # every density underflows: rescale in logs
        log_dens = -0.5 * z[:, of_bin == f] ** 2 - np.log(s[:, of_bin == f])
        scaled[:, of_bin == f] = np.exp(log_dens - log_dens.max())
    tables = np.split(np.maximum(scaled, FLOOR), first_bin[1:], axis=1)
    edge_list = np.split(np.exp(edges) if kind == "lognormal" else edges, first_edge[1:])

    transition = estimate_transitions(y, classes, alpha) if with_transitions else None
    return BayesModel(
        classes=classes,
        features=cols,
        bins=bins,
        likelihood=tables,
        transition=transition,
        bin_edges=edge_list,
    )


def bin_observations(model: BayesModel, features) -> np.ndarray:
    """Raw feature rows (samples >= 1, features) -> their bin addresses, the
    same shape; any other shape raises ConfigError."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.features or not len(X):
        raise ConfigError(f"expected a (samples, {model.features}) feature table, "
                          f"got shape {X.shape}")
    return np.stack([bin_index(model.bin_edges[c], X[:, c]) for c in range(model.features)], axis=1)


def compile_model(model: BayesModel, mode: str, width: int = 8) -> MemoryImage:
    """Quantize the model's tables into the memory image of a ``mode``
    machine with ``width``-bit codes.

    The layout follows from the model: one row per class and one column
    per feature.  Filter models (a transition matrix is present) put the
    transition tables into a leading column 0: address v < classes holds
    p(class row | previous class v), address ``classes`` is the uniform
    unknown-state entry, and any remaining addresses are parked at
    probability zero since they are never driven.  Column 0 holds
    ``1 << classes.bit_length()`` addresses, the smallest power of two
    above ``classes`` (so 4 classes get the 8-value column of the
    fabricated part); naive models have no such column.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    prob_blocks = []
    if model.transition is not None:
        col0 = np.zeros((model.classes, 1 << model.classes.bit_length()), dtype=float)
        col0[:, : model.classes] = model.transition.T  # [row, prev] = p(row | prev)
        col0[:, model.classes] = 1.0 / model.classes
        prob_blocks.append(col0)
    prob_blocks.extend(model.likelihood)
    # one encode of the whole table; codes depend only on their own entry
    sizes = np.cumsum([b.shape[1] for b in prob_blocks])[:-1]
    table = np.concatenate(prob_blocks, axis=1)
    if mode == "logarithmic":
        codes = logprob.encode_array(table)
    else:
        codes = stochastic.quantize_linear_array(table, width)
    return MemoryImage(np.split(codes, sizes, axis=1), width, CODE_KINDS[MODES.index(mode)])


def check_layout(model: BayesModel, image: MemoryImage) -> None:
    """Refuse an image whose layout is not the one `compile_model` gives
    ``model``: a row per class and a column of bins[c] values per feature,
    after a leading transition column exactly for filter models."""
    filtered = model.transition is not None
    if image.rows != model.classes:
        raise ConfigError(f"image has {image.rows} rows, the model {model.classes} classes")
    if image.columns != model.features + filtered:
        kind = "filter" if filtered else "naive"
        raise ConfigError(f"image has {image.columns} columns, the {kind} model needs "
                          f"{model.features + filtered}")
    for c, (v, b) in enumerate(zip(image.values_per_column[filtered:], model.bins)):
        if v != b:
            raise ConfigError(f"column {c + filtered}: image holds {v} values, model feature "
                              f"{c} has {b} bins")


@dataclass
class OracleResult:
    """Posteriors of a batch of N observation vectors: ``posterior`` is
    (N, classes), ``winner`` and ``degenerate`` are (N,)."""

    posterior: np.ndarray
    winner: np.ndarray
    degenerate: np.ndarray  # all products were zero; posterior fell back to uniform


def _posterior(model: BayesModel, weights: np.ndarray, obs: np.ndarray) -> OracleResult:
    """Class weights times every feature's likelihood, in feature order,
    then normalized; ``weights`` (..., classes) broadcasts against the
    checked addresses ``obs`` (..., features)."""
    # C order: each batch row is then summed exactly as that row's batch of one
    post = np.array(np.broadcast_to(weights, obs.shape[:-1] + (model.classes,)), dtype=float,
                    order="C")
    for c, table in enumerate(model.likelihood):
        post *= table.T[obs[..., c]]
    s = post.sum(axis=-1, keepdims=True)
    degenerate = s[..., 0] == 0.0
    post = np.divide(post, s, out=np.full_like(post, 1.0 / model.classes),
                     where=~degenerate[..., np.newaxis])
    return OracleResult(post, np.argmax(post, axis=-1), degenerate)


def _prior(classes: int) -> np.ndarray:
    """Every model's prior: ``classes`` equal weights, normalized."""
    p = np.full(classes, 1.0 / classes)
    return p / p.sum()


def oracle_infer(model: BayesModel, obs) -> OracleResult:
    """Exact float posteriors over classes of a batch (N, features) of bin
    addresses; ties go to the lowest index."""
    return _posterior(model, _prior(model.classes), check_addresses(obs, model.bins))


def oracle_filter(model: BayesModel, obs_seq) -> list:
    """Exact counterpart of the machine filter, with the same hard-decision
    feedback: step t weights classes by transition[winner(t-1)], not by the
    full posterior.  Step 0 uses uniform weights (unknown state).  Every
    step is scored under every previous winner and the unknown state in
    one batch, then `machine.walk` follows the winners.  Returns the
    winner sequence."""
    if model.transition is None:
        raise ConfigError("filter needs a model with transitions")
    obs = check_addresses(obs_seq, model.bins)
    n = model.classes
    weights = np.vstack([model.transition, np.full(n, 1.0 / n)])  # previous winner, or unknown
    steps = np.broadcast_to(obs[:, np.newaxis, :], (obs.shape[0], n + 1, model.features))
    return walk(_posterior(model, weights, steps).winner, start=n)


def _model_doc(model: BayesModel) -> dict:
    return {"version": _MODEL_VERSION, "prior": _prior(model.classes), **asdict(model)}


def model_to_json(model: BayesModel) -> str:
    return json_text(_model_doc(model))


def _model_from_doc(doc: dict) -> BayesModel:
    model = BayesModel(**{f.name: doc[f.name] for f in fields(BayesModel)})
    p = np.asarray(doc["prior"], dtype=float)
    if p.shape != (model.classes,) or not (np.all(p == p[0]) and 0 < p[0] < np.inf):
        raise ConfigError(f"prior must be {model.classes} equal positive weights")
    return model


def model_from_json(text: str, source: str = "<model>") -> BayesModel:
    """The model in ``text``; its prior must be uniform, as a machine's is."""
    return read_versioned(text, source, _MODEL_VERSION, "model file", _model_from_doc)


def save_model(path, model: BayesModel) -> None:
    write_json(path, _model_doc(model))


def load_model(path) -> BayesModel:
    return model_from_json(read_text(path), source=str(path))
