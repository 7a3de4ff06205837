"""The Bayesian machine: likelihood memory plus winner-take-all inference.

A machine is a grid of likelihood blocks.  Column c holds one block per
row (class); the block is a table of V[c] stored codes addressed by the
observed value of input c.  One inference latches one code per (row,
column) pair and reduces each row to a score:

* logarithmic mode: scores are saturating sums of log codes, the lowest
  score (highest probability) wins, one pass, no randomness;
* stochastic mode: scores are fire counters driven by bitstream sampling
  (see :mod:`bayesim.stochastic`).

Every call takes a batch (N, C) of N >= 1 presentations, one address per
column.  `run_filter` chains inferences over a sequence: column 0 is a
transition column addressed by the previous winner (or address ``rows``, the
unknown state, at step 0), which is how the recursive filter feeds back hard
decisions.  Every call, on a batch or a filtered sequence, returns one
`InferenceResult` with one presentation per batch row or step.
"""

from __future__ import annotations

import operator
import struct
import zlib
from functools import cached_property, partial

import numpy as np

from . import energy, logprob, stochastic
from .errors import ConfigError, DomainError, FormatError
from .stochastic import InferenceResult, MachineConfig

MODES = ("logarithmic", "stochastic")
KINDS = ("log", "linear")  # code family stored in an image; a MODES[i] machine reads KINDS[i]

_MAGIC = b"BIMG"
_VERSION = 1


def _integer_array(values, what: str) -> np.ndarray:
    """``values`` as an integer array; bool, float, string or object values raise ConfigError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ConfigError(f"{what} must be integers, got {arr.dtype} values")
    return arr


def check_addresses(obs, sizes) -> np.ndarray:
    """The address rule: ``obs`` is a batch (N, C) of N >= 1 integer address
    vectors with 0 <= obs[n, c] < sizes[c].  Returns them as int64; other
    dtypes, any other shape, an empty batch, or a bad address in any row
    raise ConfigError."""
    given = _integer_array(obs, "addresses")
    addr = given.astype(np.int64, copy=False)
    if addr.ndim != 2 or addr.shape[1] != len(sizes):
        raise ConfigError(f"expected a (presentations, {len(sizes)}) address batch, "
                          f"got shape {addr.shape}")
    if not len(addr):
        raise ConfigError("empty batch: need at least one presentation")
    bad = addr.view(np.uint64) >= np.asarray(sizes, dtype=np.uint64)  # negatives wrap high
    if bad.any():
        ix = tuple(np.argwhere(bad)[0])
        raise ConfigError(f"address {given[ix]} out of range for column {ix[-1]}")
    return addr


class MemoryImage:
    """Programmed likelihood memory: one code table per (column, row).

    ``blocks[c]`` is an (rows, V[c]) view of the stored integer codes of
    column c; ``kind`` says how to read them ("log" or "linear") and
    ``width`` how many bits each code has.  Bool, float, string or object
    blocks raise ConfigError, as addresses of those dtypes do, and so does a
    linear image of more than `stochastic.LAW_MAX_ROWS` rows: every stochastic
    run draws from a law of 2**rows masks.
    """

    def __init__(self, blocks, width: int, kind: str):
        if kind not in KINDS:
            raise ConfigError(f"unknown code kind {kind!r}")
        if width not in (8, 16):
            raise ConfigError(f"unsupported code width {width}")
        if kind == "log" and width != 8:
            # an image file may claim 16-bit log codes; no machine reads them
            raise ConfigError("logarithmic machines are 8-bit only")
        if not blocks:
            raise ConfigError("image needs at least one column")
        top = (1 << width) - 1
        arrs = [_integer_array(b, f"column {c} codes") for c, b in enumerate(blocks)]
        for c, arr in enumerate(arrs):
            if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ConfigError(f"column {c}: block must be a 2-d (rows, values) table")
            if arr.shape[0] != arrs[0].shape[0]:
                raise ConfigError(f"column {c}: row count {arr.shape[0]} != {arrs[0].shape[0]}")
        if kind == "linear" and len(arrs[0]) > stochastic.LAW_MAX_ROWS:
            raise ConfigError(f"a linear image holds at most LAW_MAX_ROWS = "
                              f"{stochastic.LAW_MAX_ROWS} rows, got {len(arrs[0])}")
        sizes = [a.shape[1] for a in arrs]
        table = np.concatenate(arrs, axis=1)
        bad = (table < 0) | (table > top)
        if bad.any():
            c = int(np.searchsorted(np.cumsum(sizes), np.nonzero(bad)[1][0], side="right"))
            raise ConfigError(f"column {c}: code out of range for width {width}")
        # one address-major code table: entry (offset[c] + v) holds the codes
        # of value v of column c for every row, so a latch is one gather
        self._codes = np.ascontiguousarray(table.T, dtype=np.uint16)
        self._sizes = np.array(sizes, dtype=np.uint64)
        self._offsets = np.cumsum([0] + sizes[:-1])
        self.blocks = [self._codes[o : o + v].T for o, v in zip(self._offsets, sizes)]
        self.width = width
        self.kind = kind

    @property
    def mode(self) -> str:
        """The machine that reads this image's codes."""
        return MODES[KINDS.index(self.kind)]

    @property
    def rows(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def columns(self) -> int:
        return len(self.blocks)

    @property
    def values_per_column(self) -> tuple:
        return tuple(b.shape[1] for b in self.blocks)

    def latch(self, obs) -> np.ndarray:
        """Read the codes addressed by ``obs``, a batch (N, C) of address
        vectors checked by `check_addresses`: the latched codes (N, rows, C)."""
        addr = check_addresses(obs, self._sizes)
        return np.ascontiguousarray(self._codes[addr + self._offsets].swapaxes(-1, -2))

    def _body(self) -> bytes:
        head = struct.pack(
            "<4sHBBII",
            _MAGIC,
            _VERSION,
            KINDS.index(self.kind),
            self.width,
            self.rows,
            self.columns,
        )
        head += struct.pack(f"<{self.columns}I", *self.values_per_column)
        dt = "<u2" if self.width == 16 else "u1"
        payload = b"".join(b.astype(dt).tobytes(order="C") for b in self.blocks)
        return head + payload

    @property
    def checksum(self) -> int:
        return zlib.crc32(self._body()) & 0xFFFFFFFF

    def to_bytes(self) -> bytes:
        body = self._body()
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MemoryImage":
        if len(data) < 20:
            raise FormatError("image truncated")
        magic, version, kind_ix, width, rows, cols = struct.unpack_from("<4sHBBII", data, 0)
        if magic != _MAGIC:
            raise FormatError("not a memory image (bad magic)")
        if version != _VERSION:
            raise FormatError(f"unsupported image version {version}")
        if kind_ix >= len(KINDS) or width not in (8, 16) or rows < 1 or cols < 1:
            raise FormatError("corrupt image header")
        off = 16
        if len(data) < off + 4 * cols:
            raise FormatError("image truncated")
        values = struct.unpack_from(f"<{cols}I", data, off)
        off += 4 * cols
        step = width // 8
        need = off + step * rows * sum(values) + 4
        if len(data) != need:
            raise FormatError(f"image size {len(data)} != expected {need}")
        if struct.unpack_from("<I", data, len(data) - 4)[0] != zlib.crc32(data[:-4]) & 0xFFFFFFFF:
            raise FormatError("image checksum mismatch")
        dt = "<u2" if width == 16 else "u1"
        blocks = []
        for v in values:
            n = step * rows * v
            arr = np.frombuffer(data[off : off + n], dtype=dt).reshape(rows, v)
            blocks.append(arr)
            off += n
        return cls(blocks, width, KINDS[kind_ix])

    def to_text(self) -> str:
        """Human-readable dump of the programmed tables."""
        lines = [
            f"bayesim-image version={_VERSION} kind={self.kind} width={self.width} "
            f"rows={self.rows} columns={self.columns} checksum=0x{self.checksum:08x}"
        ]
        for c, b in enumerate(self.blocks):
            lines.append(f"column {c} values={b.shape[1]}")
            for r in range(self.rows):
                lines.append(f"  row {r}: " + " ".join(str(int(x)) for x in b[r]))
        return "\n".join(lines) + "\n"


def save_image(path, image: MemoryImage) -> None:
    with open(path, "wb") as fh:
        fh.write(image.to_bytes())


def load_image(path) -> MemoryImage:
    with open(path, "rb") as fh:
        return MemoryImage.from_bytes(fh.read())


def _log_scores(sums):
    """Scores and winners of int64 log-code row sums (..., rows): the lowest
    saturating sum wins.

    All addends are non-negative, so clamping the final sum at the top
    code equals saturating after every intermediate add.  Ties go to the
    lowest row index (priority-encoder behavior).
    """
    scores = np.minimum(sums, logprob.TOP)
    return scores, scores.argmin(axis=-1)


def infer_logarithmic(image: MemoryImage, obs) -> InferenceResult:
    """Deterministic inference of a batch (N, C) of addresses, scored by
    `_log_scores` on the latched codes' row sums, with one
    `energy.count_events` call."""
    if image.kind != "log":
        raise ConfigError("logarithmic inference needs a log-code image")
    scores, winner = _log_scores(image.latch(obs).sum(axis=-1, dtype=np.int64))
    return InferenceResult.of(image, scores, winner, np.ones(len(winner), dtype=np.int64))


def infer_stochastic(image: MemoryImage, obs, config: MachineConfig, seed=0) -> InferenceResult:
    """Sampling inference of a batch (N, C) of addresses, or of a `stochastic.plan`
    of one, under the configured strategy, with one `stochastic.run_stochastic` call.

    ``seed`` is an int or a numpy Generator, so repeated calls can share
    one stream.  The run refuses a log-code image.
    """
    return stochastic.run_stochastic(image, obs, config.cycle_budget, config.strategy, seed=seed)


def inject_errors(image: MemoryImage, ber: float, seed=0) -> MemoryImage:
    """Return a copy of the image with every stored bit flipped independently
    with probability ``ber``.  The flip pattern is drawn from ``seed``, an int
    or a numpy Generator; the input image is never modified."""
    if not 0.0 <= ber <= 1.0:
        raise DomainError(f"bit error rate {ber} outside [0, 1]")
    rng = np.random.default_rng(seed)
    weights = (np.uint32(1) << np.arange(image.width, dtype=np.uint32))
    blocks = []
    for b in image.blocks:
        flips = rng.random((b.shape[0], b.shape[1], image.width)) < ber
        mask = (flips.astype(np.uint32) * weights).sum(axis=2)
        blocks.append((b.astype(np.uint32) ^ mask).astype(np.uint16))
    return MemoryImage(blocks, image.width, image.kind)


def walk(table, start: int) -> list:
    """Hard-decision feedback over precomputed decisions, starting from
    address ``start``: ``table[t][v]`` is the winner of step t when the
    previous winner is v.  Returns every winner."""
    path, v = [], start
    for row in np.asarray(table).tolist():
        v = row[v]
        path.append(v)
    return path


class FilterPlan(stochastic.RunPlan):
    """A `filter_plan`: the codes (steps, R, C) of each step latched once with
    column 0 at the unknown state, and ``transition``, column 0's codes
    (rows + 1, R) at the addresses 0..rows.  The codes of a (step, previous
    winner) pair exist only while the pair law is built and inside the step
    being run; a batch's `stochastic.plan` is not one."""

    law_rows = property(lambda self: self.image.rows + 1)  # a (step, previous winner) pair each

    @property
    def transition(self) -> np.ndarray:
        return self.image.blocks[0][:, :self.image.rows + 1].T

    @cached_property
    def cum_law(self) -> np.ndarray:
        """The law of every (step, previous winner) pair, step-major, from the
        pair codes (steps * (rows + 1), R, C), which are dropped once it is
        built."""
        steps, rows, cols = self.codes.shape
        pairs = np.repeat(self.codes, rows + 1, axis=0)
        pairs.reshape(steps, rows + 1, rows, cols)[..., 0] = self.transition
        return stochastic.RunPlan(self.image, pairs).cum_law


def filter_plan(image: MemoryImage, feature_addresses) -> FilterPlan:
    """Check a (steps, C - 1) table of feature addresses and latch each step
    once, with column 0 at the unknown state ``rows``, from an image of either
    kind; no (step, previous winner) pair is materialised."""
    rows, cols = image.rows, image.columns
    if image.values_per_column[0] < rows + 1:
        raise ConfigError(f"transition column holds {image.values_per_column[0]} values, "
                          f"needs >= rows+1 = {rows + 1}")
    feats = _integer_array(feature_addresses, "feature addresses")
    if feats.ndim != 2 or feats.shape[1] != cols - 1 or not len(feats):
        raise ConfigError(f"feature addresses must be (steps >= 1, {cols - 1})")
    # unsigned addresses stay unsigned, so a bad one is named as given
    table = np.empty((len(feats), cols), np.uint64 if feats.dtype.kind == "u" else np.int64)
    table[:, 0], table[:, 1:] = rows, feats
    return FilterPlan(image, image.latch(table))


def run_filter(image: MemoryImage, feature_addresses,
               config: MachineConfig = MachineConfig(), seed=0):
    """Recursive inference over a sequence with hard-decision feedback.

    Column 0 is the transition/prior column: at step 0 it is addressed by
    ``image.rows`` (the unknown state `modelkit.compile_model` puts after the
    classes), afterwards by the previous step's winner.  ``feature_addresses``
    is a (steps, columns-1) table of observation addresses for the remaining
    columns, or its `filter_plan` (one of another image object, or a batch's
    `stochastic.plan`, is refused).  A linear run, at any length, draws every
    (step, previous winner) pair from the pair law and `walk`s the winners,
    both strategies from one stream seeded by ``seed`` (an int or a
    Generator): a power-conscious run `decide`s each pair with its step's
    (stop, mask, tie) uniforms; a conventional run draws one tie uniform per
    step, then one integer that seeds the Generator of its `stochastic.tally`,
    one multinomial per pair.  All are drawn up front; each of the plan's
    `RunPlan.parts` is walked on from the last winner of the one before, so
    no result depends on the part size.  A log run steps: it picks step t's
    winner from the plain-int sums of its feature codes and
    ``transition[v]``, the first raw minimum winning (row 0 if that is TOP or
    more: every row saturates), then gathers the score table of every step's
    pair in one add and clamps it once as `_log_scores` does, ignoring
    ``seed`` and ``config``.  Returns one InferenceResult, a presentation a
    step.
    """
    if type(feature_addresses) is stochastic.RunPlan:
        raise ConfigError("a batch plan is not a filter plan: build one with filter_plan")
    plan = (feature_addresses if isinstance(feature_addresses, FilterPlan)
            else filter_plan(image, feature_addresses))
    if plan.image is not image:
        raise ConfigError("plan was not built for this image")
    rows, steps, a = image.rows, len(plan.codes), plan.law_rows
    budget, strategy = config.cycle_budget, config.strategy
    scores = np.empty((steps, rows), dtype=np.int64)
    cycles = np.ones(steps, dtype=np.int64)
    path = [rows]  # the unknown state, then every step's winner
    if image.kind == "linear":
        rng = np.random.default_rng(seed)
        if strategy == "power_conscious":
            draws = rng.random((steps, 3))  # as steps' (1, 3) draws
            run = partial(stochastic.decide, budget=budget)
        else:
            draws = rng.random(steps)  # one tie per step, shared by its pairs
            # the multinomials read a variable share of their own stream, seeded by
            # one draw, so a pass reads a fixed share of ``seed``'s
            law_rng = np.random.default_rng(rng.integers(1 << 64, dtype=np.uint64))
            run = partial(stochastic.tally, rng=law_rng, budget=budget)
        for first, part in plan.parts():
            n = len(part.codes)
            counters, winners, used = run(part, np.repeat(draws[first:first + n], a, axis=0))
            path += walk(winners.reshape(n, a), path[-1])
            pair = np.arange(n) * a + path[-n - 1:-1]
            scores[first:first + n], cycles[first:first + n] = counters[pair], used[pair]
    else:
        features = plan.codes[..., 1:].sum(axis=-1, dtype=np.int64)
        transition, prev = plan.transition, rows
        prior = transition.tolist()
        for feature in features.tolist():
            row = list(map(operator.add, feature, prior[prev]))
            low = min(row)  # index() finds the first: ties go to the lowest row
            prev = row.index(low) if low < logprob.TOP else 0  # all saturate: row 0
            path.append(prev)
        np.add(features, transition[path[:-1]], out=scores)
        np.minimum(scores, logprob.TOP, out=scores)  # _log_scores' saturation, once
    return InferenceResult.of(image, scores, np.array(path[1:], dtype=np.int64), cycles)
