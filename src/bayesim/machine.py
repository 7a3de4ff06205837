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

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import energy, logprob, stochastic
from .errors import ConfigError, DomainError, FormatError, check_int
from .stochastic import InferenceResult

MODES = ("logarithmic", "stochastic")
KINDS = ("log", "linear")  # code family stored in an image; a MODES[i] machine reads KINDS[i]
PAIR_LAW_MAX = 1 << 21  # law entries a filter's pair law may hold; a longer filter steps

_MAGIC = b"BIMG"
_VERSION = 1


@dataclass(frozen=True)
class MachineConfig:
    """Run parameters of a stochastic machine.  Rows, columns, values per
    column, code width and code family are fixed when the memory is
    compiled, so they are read from the `MemoryImage`."""

    cycle_budget: int = 255
    strategy: str = "conventional"

    def __post_init__(self):
        if check_int("cycle_budget", self.cycle_budget, 1) > stochastic.MAX_BUDGET:
            raise ConfigError(f"cycle_budget must be <= 2**53, got {self.cycle_budget}")
        if self.strategy not in stochastic.STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")


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
    blocks raise ConfigError, as addresses of those dtypes do.
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
        return np.ascontiguousarray(self.gather(check_addresses(obs, self._sizes)))

    def gather(self, addr) -> np.ndarray:
        """The codes, (..., rows, C), of int64 addresses that `check_addresses`
        has already passed against this image's values per column.  Unchecked, a
        bad address reads another column's codes or raises IndexError."""
        return self._codes[addr + self._offsets].swapaxes(-1, -2)

    def __eq__(self, other):
        return (
            isinstance(other, MemoryImage)
            and self.kind == other.kind
            and self.width == other.width
            and self.values_per_column == other.values_per_column
            and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))
        )

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


def _log_scores(latched):
    """Scores and winners of latched log codes (..., rows, C): the lowest
    saturating code sum wins.

    All addends are non-negative, so clamping the final sum at the top
    code equals saturating after every intermediate add.  Ties go to the
    lowest row index (priority-encoder behavior).
    """
    scores = np.minimum(latched.sum(axis=-1, dtype=np.int64), logprob.TOP)
    return scores, scores.argmin(axis=-1)


def infer_logarithmic(image: MemoryImage, obs) -> InferenceResult:
    """Deterministic inference of a batch (N, C) of addresses, scored by
    `_log_scores`, with one `energy.count_events` call."""
    if image.kind != "log":
        raise ConfigError("logarithmic inference needs a log-code image")
    scores, winner = _log_scores(image.latch(obs))
    n = len(winner)
    counts = energy.count_events("logarithmic", image.rows, image.columns, image.width,
                                 presentations=n)
    return InferenceResult(scores, winner, np.ones(n, dtype=np.int64), counts)


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


def _filter_steps(image: MemoryImage, feature_addresses) -> np.ndarray:
    v0 = image.values_per_column[0]
    if v0 < image.rows + 1:
        raise ConfigError(f"transition column holds {v0} values, "
                          f"needs >= rows+1 = {image.rows + 1}")
    feats = _integer_array(feature_addresses, "feature addresses")
    if feats.ndim != 2 or feats.shape[1] != image.columns - 1 or not len(feats):
        raise ConfigError(f"feature addresses must be (steps >= 1, {image.columns - 1})")
    return feats


def filter_plan(image: MemoryImage, feature_addresses) -> stochastic.RunPlan:
    """A `stochastic.plan` of every (step, column-0 address) pair of a sequence,
    step-major, for the addresses 0..rows (``rows`` is the unknown state): one
    latch of ``(steps * (rows + 1), C)`` addresses, from an image of either kind."""
    feats = _filter_steps(image, feature_addresses)
    rows, cols = image.rows, image.columns
    pairs = np.empty((len(feats), rows + 1, cols), dtype=np.int64)
    pairs[:, :, 0] = np.arange(rows + 1)
    pairs[:, :, 1:] = feats[:, np.newaxis]
    return stochastic.plan(image, pairs.reshape(-1, cols))


def run_filter(image: MemoryImage, feature_addresses,
               config: MachineConfig = MachineConfig(), seed=0, plan=None):
    """Recursive inference over a sequence with hard-decision feedback.

    Column 0 is the transition/prior column: at step 0 it is addressed by
    ``image.rows`` (the unknown state `modelkit.compile_model` puts after the
    classes), afterwards by the previous step's winner.  ``feature_addresses``
    is a (steps, columns-1) table of observation addresses for the remaining
    columns.  A pass runs from the sequence's `filter_plan` (``plan``, built
    here when None; one of another image object or sequence is refused).  A
    power-conscious run whose pair law fits `stochastic.LAW_MAX_ROWS` rows and
    `PAIR_LAW_MAX` entries `decide`s every pair with its step's (stop, mask,
    tie) uniforms and `walk`s the winners.  Every other run steps, reading
    pair ``t * (rows + 1) + previous winner`` at step t: a log image scores
    it by `_log_scores` and ignores ``seed`` and ``config``; a linear image
    draws it by `stochastic.sample` from one stream seeded by ``seed`` (an
    int or a numpy Generator), as one `infer_stochastic` call per step would.
    Returns one InferenceResult with one presentation per step.
    """
    feats = _filter_steps(image, feature_addresses)
    steps, rows = len(feats), image.rows
    a = rows + 1
    if plan is None:
        plan = filter_plan(image, feats)
    elif (plan.image is not image or len(plan.codes) != steps * a
          or not np.array_equal(plan.addresses[::a, 1:], feats)):
        raise ConfigError("plan was not built for this image and sequence")
    budget, strategy = config.cycle_budget, config.strategy
    if (image.kind == "linear" and strategy == "power_conscious"
            and rows <= stochastic.LAW_MAX_ROWS and steps * a << rows <= PAIR_LAW_MAX):
        rng = np.random.default_rng(seed)
        uniforms = np.repeat(rng.random((steps, 3)), a, axis=0)  # as steps' (1, 3) draws
        counters, winners, cycles = stochastic.decide(plan, uniforms, budget)
        winner = np.array(walk(winners.reshape(steps, a), rows))
        pair = np.arange(steps) * a + np.concatenate(([rows], winner[:-1]))
        scores, cycles = counters[pair], cycles[pair]
    else:
        scores = np.empty((steps, rows), dtype=np.int64)
        winner = np.empty(steps, dtype=np.int64)
        cycles = np.ones(steps, dtype=np.int64)
        codes, log, prev = plan.codes, image.kind == "log", rows
        rng = None if log else np.random.default_rng(seed)
        for t in range(steps):
            k = t * a + prev
            if log:
                scores[t], prev = _log_scores(codes[k])
            else:
                one = stochastic.RunPlan(image, codes[k:k + 1], plan.addresses[k:k + 1])
                (scores[t],), (prev,), (cycles[t],) = stochastic.sample(one, rng, budget, strategy)
            winner[t] = prev
    counts = energy.count_events(image.mode, rows, image.columns, image.width,
                                 cycles=int(cycles.sum()), presentations=steps)
    return InferenceResult(scores, winner, cycles, counts)
