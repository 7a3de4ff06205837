"""The Bayesian machine: likelihood memory plus winner-take-all inference.

A machine is a grid of likelihood blocks.  Column c holds one block per
row (class); the block is a table of V[c] stored codes addressed by the
observed value of input c.  One inference latches one code per (row,
column) pair and reduces each row to a score:

* logarithmic mode: scores are saturating sums of log codes, the lowest
  score (highest probability) wins, one pass, no randomness;
* stochastic mode: scores are fire counters driven by bitstream sampling
  (see :mod:`bayesim.stochastic`).

`run_filter` chains inferences over a sequence: column 0 is a transition
column addressed by the previous winner (or a dedicated unknown-state row
at step 0), which is how the recursive filter feeds back hard decisions.
Every call, on one presentation, a batch or a filtered sequence, returns
one `InferenceResult`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import energy, logprob, stochastic
from .errors import ConfigError, DomainError, FormatError
from .stochastic import InferenceResult

MODES = ("logarithmic", "stochastic")
KINDS = ("log", "linear")  # code family stored in an image

_MAGIC = b"BIMG"
_VERSION = 1


@dataclass(frozen=True)
class MachineConfig:
    rows: int
    columns: int
    values_per_column: tuple
    mode: str = "logarithmic"
    likelihood_width: int = 8
    cycle_budget: int = 255
    strategy: str = "conventional"
    rng_mode: str = "column_shared"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.likelihood_width not in (8, 16):
            raise ConfigError(f"unsupported code width {self.likelihood_width}")
        if self.mode == "logarithmic" and self.likelihood_width != 8:
            # 16-bit log codes exist in the code layer but no machine uses them
            raise ConfigError("logarithmic machines are 8-bit only")
        if self.rows < 1 or self.columns < 1:
            raise ConfigError("need at least one row and one column")
        vals = tuple(int(v) for v in self.values_per_column)
        if len(vals) != self.columns or any(v < 1 for v in vals):
            raise ConfigError("values_per_column must list one positive size per column")
        object.__setattr__(self, "values_per_column", vals)
        if self.cycle_budget < 1:
            raise ConfigError("cycle budget must be >= 1")
        if self.strategy not in stochastic.STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.rng_mode not in stochastic.RNG_MODES:
            raise ConfigError(f"unknown rng mode {self.rng_mode!r}")

    @property
    def kind(self) -> str:
        return "log" if self.mode == "logarithmic" else "linear"


def fabricated_config(mode: str = "logarithmic", **overrides) -> MachineConfig:
    """Geometry of the small fabricated machine: 4 rows, 4 columns, 8 values."""
    base = dict(rows=4, columns=4, values_per_column=(8,) * 4, mode=mode)
    base.update(overrides)
    return MachineConfig(**base)


def scaled_config(mode: str = "logarithmic", **overrides) -> MachineConfig:
    """Geometry of the scaled-up machine: 4 rows, 6 columns, 64 values."""
    base = dict(rows=4, columns=6, values_per_column=(64,) * 6, mode=mode)
    base.update(overrides)
    return MachineConfig(**base)


def check_addresses(obs, sizes) -> np.ndarray:
    """The address rule: ``obs`` is one vector (C,) or a batch (N, C) of
    addresses with 0 <= obs[..., c] < sizes[c].  Returns them as int64; a
    bad shape, or a bad address in any row, raises ConfigError."""
    addr = np.asarray(obs, dtype=np.int64)
    if addr.ndim not in (1, 2) or addr.shape[-1] != len(sizes):
        raise ConfigError(f"expected {len(sizes)} addresses per vector, got shape {addr.shape}")
    bad = addr.view(np.uint64) >= np.asarray(sizes, dtype=np.uint64)  # negatives wrap high
    if bad.any():
        ix = tuple(np.argwhere(bad)[0])
        raise ConfigError(f"address {addr[ix]} out of range for column {ix[-1]}")
    return addr


class MemoryImage:
    """Programmed likelihood memory: one code table per (column, row).

    ``blocks[c]`` is an (rows, V[c]) view of the stored integer codes of
    column c; ``kind`` says how to read them ("log" or "linear") and
    ``width`` how many bits each code has.
    """

    def __init__(self, blocks, width: int, kind: str):
        if kind not in KINDS:
            raise ConfigError(f"unknown code kind {kind!r}")
        if width not in (8, 16):
            raise ConfigError(f"unsupported code width {width}")
        if not blocks:
            raise ConfigError("image needs at least one column")
        top = (1 << width) - 1
        arrs = [np.asarray(b) for b in blocks]
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
    def rows(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def columns(self) -> int:
        return len(self.blocks)

    @property
    def values_per_column(self) -> tuple:
        return tuple(b.shape[1] for b in self.blocks)

    def latch(self, obs) -> np.ndarray:
        """Read the codes addressed by ``obs``: one address vector (C,) or a
        batch of them (N, C), one value address per column.

        Returns the latched codes, (rows, C) or (N, rows, C).  Addresses
        are checked by `check_addresses`.
        """
        addr = check_addresses(obs, self._sizes)
        return np.ascontiguousarray(self._codes[addr + self._offsets].swapaxes(-1, -2))

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


def check_image_matches(image: MemoryImage, config: MachineConfig) -> None:
    if image.kind != config.kind:
        raise ConfigError(f"image kind {image.kind!r} does not match mode {config.mode!r}")
    if image.width != config.likelihood_width:
        raise ConfigError(f"image width {image.width} != config width {config.likelihood_width}")
    if image.rows != config.rows or image.values_per_column != config.values_per_column:
        raise ConfigError("image geometry does not match machine config")


def infer_logarithmic(image: MemoryImage, obs) -> InferenceResult:
    """Deterministic inference of one address vector (C,) or a batch (N, C):
    lowest saturating code sum wins.

    All addends are non-negative, so clamping the final sum at the top
    code equals saturating after every intermediate add.  Ties go to the
    lowest row index (priority-encoder behavior).
    """
    if image.kind != "log":
        raise ConfigError("logarithmic inference needs a log-code image")
    latched = image.latch(obs)
    top = logprob.max_code(image.width)
    scores = np.minimum(latched.sum(axis=-1, dtype=np.int64), top)
    winner = np.argmin(scores, axis=-1)
    n = len(winner) if winner.ndim else 1
    counts = energy.count_events("logarithmic", image.rows, image.columns, image.width,
                                 presentations=n)
    if winner.ndim:
        return InferenceResult(scores, winner, np.ones(n, dtype=np.int64), counts)
    return InferenceResult(scores, int(winner), 1, counts)


def infer_stochastic(image: MemoryImage, obs, config: MachineConfig, seed=0) -> InferenceResult:
    """Sampling inference of addresses (C,) or (N, C), or of a `stochastic.plan`
    of them, under the configured strategy, with one `stochastic.run_stochastic` call.

    ``seed`` is an int or a numpy Generator, so repeated calls can share
    one stream.
    """
    check_image_matches(image, config)  # and the run refuses a log-code image
    return stochastic.run_stochastic(image, obs, config.cycle_budget, strategy=config.strategy,
                                     rng_mode=config.rng_mode, seed=seed)


def inject_errors(image: MemoryImage, ber: float, seed=0) -> MemoryImage:
    """Return a copy of the image with every stored bit flipped independently
    with probability ``ber``.  The flip pattern is frozen by ``seed``; the
    input image is never modified."""
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


def run_filter(image: MemoryImage, feature_addresses, unknown_row: int, config: MachineConfig,
               seed=0):
    """Recursive inference over a sequence with hard-decision feedback.

    Column 0 is the transition/prior column: at step 0 it is addressed by
    ``unknown_row`` (a dedicated uniform-prior entry), afterwards by the
    previous step's winner.  ``feature_addresses`` is a (steps, columns-1)
    table of observation addresses for the remaining columns.  Stochastic
    steps draw from one stream seeded by ``seed`` (an int or a numpy
    Generator).  Returns one InferenceResult with one presentation per step.
    """
    check_image_matches(image, config)
    v0 = image.values_per_column[0]
    if v0 < image.rows + 1:
        raise ConfigError(
            f"transition column holds {v0} values, needs >= rows+1 = {image.rows + 1}"
        )
    if not 0 <= unknown_row < v0:
        raise ConfigError(f"unknown-state address {unknown_row} out of range")
    feats = np.asarray(feature_addresses, dtype=np.int64)
    if feats.ndim != 2 or feats.shape[1] != image.columns - 1 or not len(feats):
        raise ConfigError(f"feature addresses must be (steps >= 1, {image.columns - 1})")
    rng = np.random.default_rng(seed)
    results = []
    prev = int(unknown_row)
    for t in range(feats.shape[0]):
        obs = np.concatenate(([prev], feats[t]))
        if config.mode == "logarithmic":
            res = infer_logarithmic(image, obs)
        else:
            res = infer_stochastic(image, obs, config, seed=rng)
        results.append(res)
        prev = res.winner
    cycles = np.array([r.cycles for r in results])
    counts = energy.count_events(config.mode, image.rows, image.columns, image.width,
                                 cycles=int(cycles.sum()), rng_mode=config.rng_mode,
                                 presentations=len(results))
    return InferenceResult(np.array([r.scores for r in results]),
                           np.array([r.winner for r in results]), cycles, counts)
