import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bayesim import logprob
from bayesim.errors import DomainError


def test_scale_and_limits():
    assert (logprob.M, logprob.TOP) == (8, 255)
    # the top code bottoms out near 2.5e-10
    assert logprob.MIN_PROB == 2 ** -31.875
    assert logprob.decode(logprob.LogCode(logprob.TOP)) == logprob.MIN_PROB


def test_encode_examples():
    assert logprob.encode(1.0).n == 0
    assert logprob.encode(0.5).n == 8
    assert logprob.encode(2.5e-10).n == 255
    # oracle: -8*log2(0.3) = 13.8957..., rounds up
    assert -8 * math.log2(0.3) == pytest.approx(13.8957, abs=1e-4)
    assert logprob.encode(0.3).n == 14


def test_encode_zero_is_floor_clamp():
    assert logprob.encode(0.0).n == 255


def test_encode_domain():
    with pytest.raises(DomainError):
        logprob.encode(-0.1)
    with pytest.raises(DomainError):
        logprob.encode(1.0001)


def test_encode_array_rejects_nan():
    with pytest.raises(DomainError):
        logprob.encode_array(np.array([0.5, np.nan]))
    with pytest.raises(DomainError):
        logprob.encode(float("nan"))


def test_decode_examples():
    assert logprob.decode(logprob.LogCode(0)) == 1.0
    assert logprob.decode(logprob.LogCode(8)) == 0.5
    assert logprob.decode(logprob.LogCode(16)) == 0.25


def test_logcode_range_checked():
    with pytest.raises(DomainError):
        logprob.LogCode(256)
    with pytest.raises(DomainError):
        logprob.LogCode(-1)


def test_round_trip_exhaustive():
    for n in range(256):
        code = logprob.LogCode(n)
        assert logprob.encode(logprob.decode(code)).n == n


def test_half_step_bound():
    rng = np.random.default_rng(7)
    lo = -math.log2(logprob.MIN_PROB)  # 31.875
    p = 2.0 ** -(rng.uniform(0.0, lo, size=100_000))
    n = logprob.encode_array(p)
    err = np.abs(-np.log2(p) - n / 8.0)
    assert err.max() <= 1 / 16 + 1e-12


def test_sat_add_examples():
    c = lambda n: logprob.LogCode(n)
    assert logprob.sat_add(c(8), c(8)).n == 16
    assert logprob.sat_add(c(200), c(100)).n == 255
    assert logprob.sat_add(c(0), c(0)).n == 0


def test_sat_add_exhaustive_saturation():
    # min(a+b, 255), and 255 exactly when the true sum reaches it
    a = np.arange(256)
    sums = a[:, None] + a[None, :]
    for i in range(256):
        for j in range(0, 256, 5):
            out = logprob.sat_add(logprob.LogCode(i), logprob.LogCode(j)).n
            assert out == min(i + j, 255)
            assert (out == 255) == (sums[i, j] >= 255)


@given(st.floats(min_value=1e-12, max_value=1.0),
       st.floats(min_value=1e-12, max_value=1.0))
def test_encode_monotone(p1, p2):
    if p1 > p2:
        p1, p2 = p2, p1
    assert logprob.encode(p1).n >= logprob.encode(p2).n


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_sat_add_algebra(a, b, c):
    ca, cb, cc = logprob.LogCode(a), logprob.LogCode(b), logprob.LogCode(c)
    assert logprob.sat_add(ca, cb) == logprob.sat_add(cb, ca)
    lhs = logprob.sat_add(logprob.sat_add(ca, cb), cc)
    rhs = logprob.sat_add(ca, logprob.sat_add(cb, cc))
    assert lhs == rhs
    assert logprob.sat_add(ca, logprob.LogCode(0)) == ca
    assert logprob.sat_add(ca, logprob.LogCode(255)).n == 255


def test_array_encode_matches_scalar():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.0, 1.0, size=500)
    arr = logprob.encode_array(p)
    assert arr.dtype == np.uint16
    for pi, ni in zip(p, arr):
        assert logprob.encode(float(pi)).n == int(ni)


def test_encode_rounds_half_away():
    # exactly-half code distances round away from zero: 13.5 -> 14, 12.5 -> 13
    p = 2.0 ** (-13.5 / 8)
    assert logprob.encode(p).n == 14
    p = 2.0 ** (-12.5 / 8)
    assert logprob.encode(p).n == 13
