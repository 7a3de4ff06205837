import dataclasses
import struct
import warnings
import zlib

import numpy as np
import pytest

from bayesim import machine, modelkit, stochastic
from bayesim.errors import ConfigError, DomainError, FormatError
from bayesim.machine import MachineConfig, MemoryImage
from test_runner import count_calls


def log_image(columns, width=8):
    return MemoryImage([np.asarray(c) for c in columns], width=width, kind="log")


def lin_image(columns, width=8):
    return MemoryImage([np.asarray(c) for c in columns], width=width, kind="linear")


# ---- config ----

def test_image_rejects_wide_log():
    # a 16-bit log image is refused where it is built, whatever model it serves
    with pytest.raises(ConfigError, match="8-bit only"):
        log_image([np.zeros((2, 3), dtype=np.uint16)], width=16)
    # ... and where it is loaded: a 16-bit linear image relabelled as log
    raw = bytearray(lin_image([np.zeros((2, 3), dtype=np.uint16)], width=16).to_bytes())
    raw[6] = machine.KINDS.index("log")  # the kind byte after magic and version
    raw[-4:] = struct.pack("<I", zlib.crc32(raw[:-4]) & 0xFFFFFFFF)
    with pytest.raises(ConfigError, match="8-bit only"):
        MemoryImage.from_bytes(bytes(raw))


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        MachineConfig(cycle_budget=0)
    for budget in (2.5, True, "8"):  # 2.5 and True were accepted, then failed in the sampler
        with pytest.raises(ConfigError, match="cycle_budget must be an integer"):
            MachineConfig(cycle_budget=budget)
    with pytest.raises(ConfigError):
        MachineConfig(strategy="fastest")
    assert [f.name for f in dataclasses.fields(MachineConfig)] == ["cycle_budget", "strategy"]
    # a power-conscious stop cycle is a float64: budgets are exact up to 2**53, refused above
    with pytest.raises(ConfigError, match="cycle_budget must be <= 2"):
        MachineConfig(cycle_budget=2**53 + 1)
    quiet = lin_image([np.zeros((2, 1), dtype=np.uint16)])  # no row ever fires
    with pytest.raises(ConfigError, match="cycle budget must be in"):
        stochastic.run_stochastic(quiet, [[0]], 2**53 + 3, "power_conscious")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = MachineConfig(cycle_budget=2**53, strategy="power_conscious")
        assert machine.infer_stochastic(quiet, [[0]], cfg).cycles[0] == 2**53


# ---- logarithmic inference ----

def test_infer_log_example():
    img = log_image([[[4], [16]], [[8], [0]]])
    res = machine.infer_logarithmic(img, [[0, 0]])
    assert list(res.scores[0]) == [12, 16]
    assert res.winner[0] == 0
    assert res.cycles_used == 1


def test_infer_log_saturates():
    img = log_image([[[200], [0]], [[100], [0]]])
    res = machine.infer_logarithmic(img, [[0, 0]])
    assert res.scores[0, 0] == 255
    assert res.winner[0] == 1


def test_infer_log_all_zero_tie():
    img = log_image([np.zeros((3, 2), dtype=np.uint16)] * 2)
    res = machine.infer_logarithmic(img, [[0, 1]])
    assert list(res.scores[0]) == [0, 0, 0]
    assert res.winner[0] == 0  # lowest index on ties


def test_infer_log_event_counts():
    img = log_image([np.zeros((4, 8), dtype=np.uint16)] * 4)
    counts = machine.infer_logarithmic(img, [[0, 0, 0, 0]]).event_counts
    assert counts.mem_read_bits == 128  # 4*4*8
    assert counts.add_ops == 16
    assert counts.register_writes == 4
    assert counts.rng_draws == counts.and_compare_ops == counts.counter_increments == 0


def test_infer_log_rejects_bad_input():
    img = log_image([[[4], [16]]])
    with pytest.raises(ConfigError):
        machine.infer_logarithmic(img, [[2]])
    with pytest.raises(ConfigError):
        machine.infer_logarithmic(lin_image([[[4], [16]]]), [[0]])


def test_image_latch_reads_one_code_per_cell():
    img = log_image([[[1, 2], [3, 4]], [[5, 6, 7], [8, 9, 10]]])
    assert img.latch([[1, 2]]).tolist() == [[[2, 7], [4, 10]]]


def test_bad_address_is_config_error_on_both_datapaths():
    log = log_image([np.zeros((2, 4), dtype=np.uint16)])
    lin = lin_image([np.zeros((2, 4), dtype=np.uint16)])
    model = modelkit.BayesModel(classes=2, features=1, bins=(4,),
                                likelihood=[np.full((2, 4), 0.5)],
                                transition=np.full((2, 2), 0.5), bin_edges=[np.arange(5.0)])
    empty = np.zeros((0, 1), dtype=np.int64)

    def calls(bad):
        return [(machine.infer_logarithmic, log, bad), (stochastic.plan, lin, bad),
                (log.latch, bad), (modelkit.oracle_infer, model, bad),
                (modelkit.oracle_filter, model, bad)] + [
                (stochastic.run_stochastic, lin, bad, 8, strategy)
                for strategy in stochastic.STRATEGIES]

    # every call takes an (N, C) batch with N >= 1: a (C,) vector, an (N, C, 1)
    # batch and an empty batch are refused like a bad address or column count
    for bad in ([[4]], [[-1]], [[0, 0]], [0], [[[0]]], empty):
        for fn, *args in calls(bad):
            with pytest.raises(ConfigError, match="empty batch" if bad is empty else None):
                fn(*args)
    # an unsigned address past the int64 range is named as given, not wrapped negative
    for big in (2**64 - 1, 2**63):
        for fn, *args in calls(np.array([[big]], dtype=np.uint64)):
            with pytest.raises(ConfigError, match=f"address {big} out of range for column 0"):
                fn(*args)
    for raw in ([0.5], [[[0.5]]], np.zeros((0, 1)), [[0.5, 0.5]]):
        with pytest.raises(ConfigError, match="feature table"):
            modelkit.bin_observations(model, raw)


@pytest.mark.parametrize("bad", [[1.7, 0.2], [True, False], [np.nan, 0], ["1", "0"]],
                         ids=["float", "bool", "nan", "str"])
def test_non_integer_addresses_are_refused(bad):
    # no float is truncated ([1.7, 0.2] to [1, 0]), no bool or string cast,
    # and NaN is a ConfigError, not a bare ValueError
    blocks = [np.zeros((2, 3), dtype=np.uint16), np.zeros((2, 2), dtype=np.uint16)]
    log, lin = log_image(blocks), lin_image(blocks)
    model = modelkit.BayesModel(classes=2, features=2, bins=(3, 2),
                                likelihood=[np.full((2, 3), 0.5), np.full((2, 2), 0.5)],
                                transition=None,
                                bin_edges=[np.arange(4.0), np.arange(3.0)])
    steps = [[v] for v in bad]  # a filter's feature addresses; column 0 holds rows + 1 values
    calls = [(machine.infer_logarithmic, log, [bad]), (modelkit.oracle_infer, model, [bad]),
             (machine.run_filter, log, steps), (machine.filter_plan, lin, steps)]
    calls += [(machine.run_filter, lin, steps, MachineConfig(8, strategy))
              for strategy in stochastic.STRATEGIES]
    for fn, *args in calls:
        with pytest.raises(ConfigError, match="must be integers"):
            fn(*args)
    with pytest.raises(ConfigError, match="must be integers"):
        stochastic.run_stochastic(lin, [bad], budget=8)


@pytest.mark.parametrize("codes", [[[1.5, 2.7]], [[True, False]], [[np.nan, 0]], [["1", "0"]]],
                         ids=["float", "bool", "nan", "str"])
def test_non_integer_codes_are_refused(codes):
    # no float code is truncated ([[1.5, 2.7]] to [[1, 2]]), no bool or string
    # cast, and NaN is a ConfigError, not a cast through a RuntimeWarning
    for kind in machine.KINDS:
        with pytest.raises(ConfigError, match="column 0 codes must be integers"):
            MemoryImage([np.array(codes)], 8, kind)


# ---- stochastic inference ----

def test_infer_stochastic_saturated_image():
    img = lin_image([np.full((3, 1), 255, dtype=np.uint16)] * 2)
    cfg = MachineConfig(strategy="power_conscious", cycle_budget=16)
    res = machine.infer_stochastic(img, [[0, 0]], cfg, seed=4)
    assert res.cycles_used == 1
    assert list(res.scores[0]) == [1, 1, 1]  # every row fires at once
    assert 0 <= res.winner[0] < 3


def test_infer_stochastic_counts_scale_with_cycles():
    img = lin_image([np.full((4, 1), 255, dtype=np.uint16)] * 4)
    cfg = MachineConfig(cycle_budget=100)
    counts = machine.infer_stochastic(img, [[0] * 4], cfg, seed=1).event_counts
    assert counts.rng_draws == 400  # one per column per cycle
    assert counts.and_compare_ops == 1600
    assert counts.counter_increments == 400
    assert counts.mem_read_bits == 128  # latched once
    assert counts.register_writes == 16


def test_infer_stochastic_equal_rows_balanced():
    img = lin_image([np.full((4, 1), 180, dtype=np.uint16)] * 2)
    cfg = MachineConfig(cycle_budget=20_000)
    res = machine.infer_stochastic(img, [[0, 0]], cfg, seed=77)
    p = (180 / 256) ** 2
    bound = 3 * np.sqrt(p * (1 - p) / 20_000)
    for r in range(4):
        assert abs(res.scores[0, r] / 20_000 - p) <= 2 * bound


def test_infer_stochastic_deterministic():
    img = lin_image([np.arange(8, dtype=np.uint16).reshape(2, 4) * 30])
    cfg = MachineConfig(cycle_budget=64)
    a = machine.infer_stochastic(img, [[1]], cfg, seed=99)
    b = machine.infer_stochastic(img, [[1]], cfg, seed=99)
    assert np.array_equal(a.scores, b.scores)
    assert (a.winner[0], a.cycles_used) == (b.winner[0], b.cycles_used)


# ---- fault injection ----

def test_inject_errors_zero_identity():
    img = log_image([np.arange(16, dtype=np.uint16).reshape(4, 4)])
    out = machine.inject_errors(img, 0.0, seed=3)
    assert out == img
    assert out is not img


def test_inject_errors_one_flips_all():
    img = log_image([np.arange(16, dtype=np.uint16).reshape(4, 4)])
    out = machine.inject_errors(img, 1.0, seed=3)
    assert np.array_equal(out.blocks[0], img.blocks[0] ^ 0xFF)


def test_inject_errors_rate():
    # 4*4*800*8 = 102400 bits, 3 sigma ~ 0.0047
    blocks = [np.zeros((4, 800), dtype=np.uint16) for _ in range(4)]
    img = log_image(blocks)
    out = machine.inject_errors(img, 0.5, seed=12)
    flipped = sum(int(np.bitwise_count(b.astype(np.uint32)).sum()) for b in out.blocks)
    total = 4 * 4 * 800 * 8
    assert abs(flipped / total - 0.5) <= 3 * np.sqrt(0.25 / total)


def test_inject_errors_immutability_and_validity():
    rng = np.random.default_rng(0)
    blocks = [rng.integers(0, 256, size=(4, 8), dtype=np.uint16) for _ in range(3)]
    img = log_image(blocks)
    before = [b.copy() for b in img.blocks]
    out = machine.inject_errors(img, 0.3, seed=8)
    for b, orig in zip(img.blocks, before):
        assert np.array_equal(b, orig)
    assert out.rows == img.rows and out.values_per_column == img.values_per_column
    for b in out.blocks:
        assert b.max() <= 255
    with pytest.raises(DomainError):
        machine.inject_errors(img, 1.5)


def test_inject_errors_frozen_per_seed():
    img = log_image([np.zeros((4, 64), dtype=np.uint16)])
    a = machine.inject_errors(img, 0.1, seed=5)
    b = machine.inject_errors(img, 0.1, seed=5)
    c = machine.inject_errors(img, 0.1, seed=6)
    assert a == b
    assert a != c


# ---- filter loop ----

def filter_oracle(blocks, feats, start):
    """Brute-force reference: saturating sums + argmin, winner feeds back."""
    winners = []
    prev = start
    for step in feats:
        obs = [prev] + list(step)
        scores = []
        for r in range(blocks[0].shape[0]):
            s = sum(int(blocks[c][r, obs[c]]) for c in range(len(blocks)))
            scores.append(min(s, 255))
        prev = int(np.argmin(scores))
        winners.append(prev)
    return winners


def test_run_filter_requires_prior_column():
    img = log_image([np.zeros((4, 4), dtype=np.uint16),
                     np.zeros((4, 8), dtype=np.uint16)])
    with pytest.raises(ConfigError):
        machine.run_filter(img, [[0]])


def test_run_filter_three_step_toy():
    # 2-state machine: column 0 is the transition column with V=3
    # (2 states + the unknown entry), sticky toward staying put
    col0 = np.array([[2, 40, 16],
                     [40, 2, 16]], dtype=np.uint16)
    col1 = np.array([[0, 30],
                     [30, 0]], dtype=np.uint16)
    img = log_image([col0, col1])
    feats = [[0], [0], [1]]
    got = machine.run_filter(img, feats).winner.tolist()
    assert got == filter_oracle([col0, col1], feats, 2)
    # hand enumeration: step0 scores (16, 46) -> 0; step1 (2, 70) -> 0;
    # step2 (32, 40) -> 0 (sticky transition outweighs the observation)
    assert got == [0, 0, 0]


def test_run_filter_feedback_switches():
    col0 = np.array([[0, 60, 16],
                     [60, 0, 16]], dtype=np.uint16)
    col1 = np.array([[0, 90],
                     [90, 0]], dtype=np.uint16)
    img = log_image([col0, col1])
    feats = [[0], [1], [1]]  # strong observation flips the state at step 1
    got = machine.run_filter(img, feats).winner.tolist()
    assert got == filter_oracle([col0, col1], feats, 2)
    assert got == [0, 1, 1]


def test_run_filter_sticky_absorbing():
    # self=0, other=255 transitions, non-informative observations
    col0 = np.array([[0, 255, 16],
                     [255, 0, 16]], dtype=np.uint16)
    col1 = np.full((2, 4), 20, dtype=np.uint16)
    img = log_image([col0, col1])
    feats = [[i % 4] for i in range(10)]
    winners = machine.run_filter(img, feats).winner
    assert len(set(winners)) == 1


def test_run_filter_stochastic_deterministic_per_seed():
    col0 = np.array([[240, 10, 128],
                     [10, 240, 128]], dtype=np.uint16)
    col1 = np.array([[250, 30],
                     [30, 250]], dtype=np.uint16)
    img = lin_image([col0, col1])
    cfg = MachineConfig(cycle_budget=64)
    feats = [[0], [0], [1], [1]]
    a = machine.run_filter(img, feats, config=cfg, seed=21)
    b = machine.run_filter(img, feats, config=cfg, seed=21)
    assert np.array_equal(a.scores, b.scores)
    assert (a.winner.tolist(), a.cycles.tolist()) == (b.winner.tolist(), b.cycles.tolist())


FILTER_BLOCKS = [np.random.default_rng(5).integers(0, 256, size=(2, v), dtype=np.uint16)
                 for v in (3, 2, 4)]  # column 0: two states + the unknown state


@pytest.mark.parametrize("kind, strategy", [("log", "conventional"),
                                            ("linear", "conventional"),
                                            ("linear", "power_conscious")],
                         ids=["log", "conventional", "power_conscious"])
@pytest.mark.parametrize("feature", [0, 1])
@pytest.mark.parametrize("bad", ["out of range", "negative", "cross-column"])
def test_run_filter_refuses_a_bad_address_in_the_last_step(kind, strategy, feature, bad):
    img = MemoryImage(FILTER_BLOCKS, width=8, kind=kind)
    size = img.values_per_column[feature + 1]
    # a cross-column address is its column's value count: a flat gather would
    # read the first value of the next column
    last = [0, 0]
    last[feature] = {"out of range": size + 3, "negative": -1, "cross-column": size}[bad]
    feats = [[0, 0], [1, 3], [0, 2], last]
    # the error names the image column, where column 0 is the transition column
    with pytest.raises(ConfigError, match=f"out of range for column {feature + 1}$"):
        machine.run_filter(img, feats, MachineConfig(8, strategy))


def test_log_filter_checks_addresses_and_counts_events_once(monkeypatch):
    img = log_image(FILTER_BLOCKS)
    feats = np.random.default_rng(6).integers(0, [2, 4], size=(50, 2))
    checks = count_calls(monkeypatch, machine, "check_addresses")
    prices = count_calls(monkeypatch, machine.energy, "count_events")
    calls = count_calls(monkeypatch, machine, "infer_logarithmic")
    rngs = count_calls(monkeypatch, np.random, "default_rng")
    res = machine.run_filter(img, feats)
    assert (len(checks), len(prices), len(calls), len(rngs)) == (1, 1, 0, 0)
    assert res.winner.tolist() == filter_oracle(FILTER_BLOCKS, feats.tolist(), img.rows)
    assert res.event_counts == machine.energy.count_events(
        "logarithmic", img.rows, img.columns, img.width, cycles=50, presentations=50)


def test_conventional_filter_checks_addresses_and_counts_events_once(monkeypatch):
    img = lin_image(FILTER_BLOCKS)
    feats = np.random.default_rng(6).integers(0, [2, 4], size=(600, 2))
    checks = count_calls(monkeypatch, machine, "check_addresses")
    prices = count_calls(monkeypatch, machine.energy, "count_events")
    calls = count_calls(monkeypatch, machine, "infer_stochastic")
    runs = count_calls(monkeypatch, stochastic, "run_stochastic")
    rngs = count_calls(monkeypatch, np.random, "default_rng")
    res = machine.run_filter(img, feats, MachineConfig(8, "conventional"), seed=3)
    assert (len(checks), len(prices), len(calls), len(runs), len(rngs)) == (1, 1, 0, 0, 1)
    assert res.event_counts == machine.energy.count_events(
        "stochastic", img.rows, img.columns, img.width, cycles=8 * 600, presentations=600)


# ---- image container ----

def test_image_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    blocks = [rng.integers(0, 256, size=(4, v), dtype=np.uint16) for v in (8, 5, 3)]
    img = log_image(blocks)
    path = tmp_path / "toy.img"
    machine.save_image(path, img)
    back = machine.load_image(path)
    assert back == img
    assert back.width == 8 and back.kind == "log"
    assert back.values_per_column == (8, 5, 3)


def test_image_round_trip_16bit():
    blocks = [np.array([[65535, 0], [1024, 7]], dtype=np.uint16)]
    img = lin_image(blocks, width=16)
    assert MemoryImage.from_bytes(img.to_bytes()) == img


def test_image_checksum_catches_corruption():
    img = log_image([np.arange(8, dtype=np.uint16).reshape(2, 4)])
    raw = bytearray(img.to_bytes())
    raw[-6] ^= 0x01  # payload byte
    with pytest.raises(FormatError):
        MemoryImage.from_bytes(bytes(raw))


def test_image_rejects_truncation_and_magic():
    img = log_image([np.arange(8, dtype=np.uint16).reshape(2, 4)])
    raw = img.to_bytes()
    with pytest.raises(FormatError):
        MemoryImage.from_bytes(raw[:10])
    with pytest.raises(FormatError):
        MemoryImage.from_bytes(b"XIMG" + raw[4:])


def test_image_code_range_enforced():
    with pytest.raises(ConfigError):
        log_image([np.array([[256]], dtype=np.uint16)])  # too wide for w=8


def test_image_text_export():
    img = log_image([np.array([[8, 16], [0, 255]], dtype=np.uint16)])
    text = img.to_text()
    assert "kind=log" in text and "width=8" in text
    assert "row 0: 8 16" in text
    assert f"checksum=0x{img.checksum:08x}" in text
