import numpy as np
import pytest

from bayesim import stochastic
from bayesim.errors import ConfigError, DomainError
from bayesim.machine import MemoryImage


def linear_image(columns, width=8):
    """columns: list of (R, V) uint arrays of linear codes."""
    return MemoryImage([np.asarray(c) for c in columns], width=width, kind="linear")


def test_quantize_examples():
    # 1.0 saturates at 255/256; 0.3 rounds 76.8 up; half-way 0.5/256 rounds away from zero
    got = stochastic.quantize_linear_array([0.5, 1.0, 0.3, 0.0, 0.5 / 256], k=8)
    assert got.dtype == np.uint16 and got.tolist() == [128, 255, 77, 0, 1]
    assert stochastic.quantize_linear_array(1.0, k=16) == 65535


def test_quantize_domain():
    for p in (-0.01, 1.01):
        with pytest.raises(DomainError):
            stochastic.quantize_linear_array(p)


def test_quantize_array_rejects_nan():
    with pytest.raises(DomainError):
        stochastic.quantize_linear_array(np.array([0.25, np.nan]))
    with pytest.raises(DomainError):
        stochastic.quantize_linear_array(float("nan"))


def test_quantize_validates_width():
    for k in (4, 12, 32):
        with pytest.raises(DomainError):
            stochastic.quantize_linear_array(np.array([0.5]), k=k)


def test_bit_rule_edges():
    # a bit fires when its draw in [0, 2**k) is below the code: code 0 never
    # fires, the top code fires on all but one draw value
    for width, top in ((8, 255), (16, 65535)):
        img = linear_image([[[0], [top]]], width=width)
        res = stochastic.run_stochastic(img, np.zeros((50, 1), dtype=int), budget=400, seed=3)
        assert not res.scores[:, 0].any()
        assert res.scores[:, 1].sum() >= 50 * 400 * (1 - 32 / (top + 1))


def test_run_validations():
    img = linear_image([np.full((2, 4), 128, dtype=np.uint16)])
    with pytest.raises(ConfigError):
        stochastic.run_stochastic(img, [[0]], budget=0)
    with pytest.raises(ConfigError):
        stochastic.run_stochastic(img, [[0, 1]], budget=8)
    with pytest.raises(ConfigError):
        stochastic.run_stochastic(img, [[0]], budget=8, strategy="eager")
    with pytest.raises(ConfigError):
        stochastic.run_stochastic(img, [[0]], budget=8, rng_mode="row_shared")
    with pytest.raises(ConfigError):
        stochastic.run_stochastic(img, [[4]], budget=8)
    log_img = MemoryImage([np.zeros((2, 4), dtype=np.uint16)], width=8, kind="log")
    with pytest.raises(ConfigError):
        stochastic.run_stochastic(log_img, [[0]], budget=8)


def test_counter_estimates_product():
    # 1 row, 2 columns at P=0.5 each: counter/budget ~ 0.25
    img = linear_image([[[128]], [[128]]])
    res = stochastic.run_stochastic(img, [[0, 0]], budget=10_000, seed=42)
    assert res.cycles[0] == 10_000
    p_hat = res.scores[0, 0] / 10_000
    assert abs(p_hat - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / 10_000)


def test_power_conscious_geometric_stop():
    # single row at P=255/256: stop at cycle 1 with that probability
    img = linear_image([[[255]]])
    rng = np.random.default_rng(5)
    stops = 0
    trials = 2000
    for _ in range(trials):
        res = stochastic.run_stochastic(img, [[0]], budget=16,
                                        strategy="power_conscious", seed=rng)
        if res.cycles[0] == 1:
            assert res.scores.any()  # stopped early: a row fired
            stops += 1
    p = 255 / 256
    assert abs(stops / trials - p) <= 3 * np.sqrt(p * (1 - p) / trials)


def enum_first_fire_winner(code0, code1):
    """Oracle: P(row 0 wins) for two rows of one 8-bit column that share its
    draw, stop at the first cycle with any fire, uniform split on
    simultaneous fires.  The stopping cycle's outcome is the single-cycle
    outcome conditioned on at least one fire, so an enumeration of the 256
    draws of one cycle suffices; a truncated geometric sum cross-checks
    that collapse."""
    draw = np.arange(256)
    fire0, fire1 = draw < code0, draw < code1
    win0 = np.mean(fire0 & ~fire1) + np.mean(fire0 & fire1) / 2
    fire = np.mean(fire0 | fire1)
    direct = win0 / fire
    total = 0.0
    for t in range(200):  # cycles before the stop, all quiet
        total += (1 - fire) ** t * win0
    assert abs(direct - total) < 1e-12
    return direct


def test_power_conscious_first_fire_split():
    # row 0 alone fires on draws 64..127, both rows on draws 0..63
    oracle = enum_first_fire_winner(128, 64)
    assert oracle == pytest.approx(0.75)
    img = linear_image([[[128], [64]]])
    rng = np.random.default_rng(17)
    trials = 30_000
    wins = 0
    for _ in range(trials):
        res = stochastic.run_stochastic(img, [[0]], budget=4096,
                                        strategy="power_conscious", seed=rng)
        wins += res.winner[0] == 0
    assert abs(wins / trials - oracle) <= 3 * np.sqrt(oracle * (1 - oracle) / trials)


def test_power_conscious_expected_cycles():
    # single row, p=0.5: E[stop] = 1/p = 2, truncation at 64 negligible
    img = linear_image([[[128]]])
    rng = np.random.default_rng(23)
    trials = 2000
    cycles = [
        stochastic.run_stochastic(img, [[0]], budget=64,
                                  strategy="power_conscious", seed=rng).cycles[0]
        for _ in range(trials)
    ]
    mean = np.mean(cycles)
    assert mean <= 64
    assert abs(mean - 2.0) <= 3 * np.sqrt(2.0 / trials)  # geometric var = (1-p)/p^2


def test_power_conscious_no_fire_path():
    img = linear_image([[[0], [0]]])
    res = stochastic.run_stochastic(img, [[0]], budget=32,
                                    strategy="power_conscious", seed=9)
    assert res.cycles[0] == 32
    assert list(res.scores[0]) == [0, 0]
    assert res.winner[0] in (0, 1)


def test_column_shared_dominance():
    # one shared draw per column: higher code can never lose a cycle
    img = linear_image([[[200], [100]], [[150], [150]]])
    for seed in range(25):
        for budget in (1, 7, 64):
            res = stochastic.run_stochastic(img, [[0, 0]], budget=budget, seed=seed)
            assert res.scores[0, 0] >= res.scores[0, 1]


def test_per_cycle_rate_column_shared():
    # row firing rate equals the product of its column probabilities:
    # sharing a column's draw correlates rows, not columns
    img = linear_image([[[192], [64]], [[128], [128]]])
    expect = [(192 / 256) * 0.5, (64 / 256) * 0.5]
    res = stochastic.run_stochastic(img, [[0, 0]], budget=20_000, seed=31)
    for r in (0, 1):
        p = expect[r]
        bound = 3 * np.sqrt(p * (1 - p) / 20_000)
        assert abs(res.scores[0, r] / 20_000 - p) <= bound


def test_per_cell_rng_mode_is_refused():
    # one RNG model: every row of a column sees the column's draw
    img = linear_image([[[192], [64]], [[128], [128]]])
    for strategy in stochastic.STRATEGIES:
        with pytest.raises(ConfigError, match="per_cell"):
            stochastic.run_stochastic(img, [[0, 0]], budget=8, strategy=strategy,
                                      rng_mode="per_cell")


def test_counters_bounded_by_cycles():
    rng = np.random.default_rng(2)
    for _ in range(40):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 4))
        img = linear_image(
            [rng.integers(0, 256, size=(rows, 3), dtype=np.uint16) for _ in range(cols)]
        )
        budget = int(rng.integers(1, 80))
        strat = ("conventional", "power_conscious")[int(rng.integers(0, 2))]
        res = stochastic.run_stochastic(img, [[0] * cols], budget=budget,
                                        strategy=strat, seed=int(rng.integers(1 << 30)))
        assert 1 <= res.cycles[0] <= budget
        assert np.all(res.scores >= 0)
        assert np.all(res.scores <= res.cycles[0])
        assert 0 <= res.winner[0] < rows


def test_determinism():
    img = linear_image([np.arange(12, dtype=np.uint16).reshape(3, 4) * 20])
    a = stochastic.run_stochastic(img, [[2]], budget=64, seed=1234)
    b = stochastic.run_stochastic(img, [[2]], budget=64, seed=1234)
    assert np.array_equal(a.scores, b.scores)
    assert (a.winner[0], a.cycles[0], a.event_counts) == (b.winner[0], b.cycles[0], b.event_counts)


def enumerated_mask_law(codes):
    """One cycle of one 8-bit presentation (R, C) over every joint column
    draw: the frequency of each fired-row mask (row r is bit r)."""
    rows, cols = codes.shape
    draws = np.stack(np.meshgrid(*[np.arange(256)] * cols, indexing="ij"), axis=-1)
    masks = (draws.reshape(-1, 1, cols) < codes).all(axis=2) @ (1 << np.arange(rows))
    return np.bincount(masks, minlength=1 << rows) / 256 ** cols


@pytest.mark.parametrize("rows,cols", [
    pytest.param(rows, cols, id=f"column_shared-{rows}-{cols}")  # ids name the RNG model
    for rows, cols in [(1, 2), (3, 1), (2, 2), (4, 2)]
])
def test_mask_law_equals_enumeration(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    codes = rng.integers(0, 256, size=(6, rows, cols))
    codes[0], codes[1] = 0, 255  # never fires; fires on all but the top draw
    codes[2] = rng.choice([0, 1, 128, 255], size=(rows, cols))
    law = stochastic.mask_law(codes, 8)
    assert law.shape == (6, 1 << rows)
    assert np.all(law >= 0)
    assert np.all(np.abs(law.sum(axis=1) - 1) < 1e-12)
    for n in range(len(codes)):
        assert np.abs(law[n] - enumerated_mask_law(codes[n])).max() < 1e-12
