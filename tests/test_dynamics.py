"""Tests for the odometer / shift dynamics layer."""

import json
import math

import numpy as np
import pytest
from numpy.random import Philox
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coblim.dynamics import (
    OdometerPoint,
    ShiftTrajectory,
    _coordinates_from_bits,
    _keyed_philox,
    coordinate_matrix,
    fair_bits,
    first_draws,
    level,
    odometer_advance,
    stream_generator,
)


# ---------------------------------------------------------------------------
# seeded streams
# ---------------------------------------------------------------------------

def test_stream_generator_reproducible():
    a = stream_generator(123, 7).random(16)
    b = stream_generator(123, 7).random(16)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    a = stream_generator(123, 0).random(16)
    b = stream_generator(123, 1).random(16)
    assert not np.array_equal(a, b)


def test_fair_bits_values_and_balance():
    bits = fair_bits(2024, 0, 20000)
    assert bits.dtype == np.uint8
    assert set(np.unique(bits)) <= {0, 1}
    # a fair coin stays within 5 sigma of n/2
    assert abs(int(bits.sum()) - 10000) < 5 * math.sqrt(20000 / 4)


@pytest.mark.parametrize("seed", [0, 1, 20260814, (1 << 64) - 1])
def test_fair_bits_equal_generator_integers(seed):
    # the top bit of each raw Philox byte is what Lemire's multiply-shift
    # keeps for range 2, so the raw read equals Generator.integers bit for bit
    for stream in [*range(40), 1 << 32, (1 << 64) - 1]:
        for count in (0, 1, 7, 8, 9, 4203):
            bits = fair_bits(seed, stream, count)
            expected = stream_generator(seed, stream).integers(0, 2, size=count, dtype=np.uint8)
            assert bits.dtype == np.uint8 and bits.shape == (count,)
            assert np.array_equal(bits, expected), (stream, count)


def test_fair_bits_do_not_depend_on_call_history():
    # streams share one rekeyed Philox: calls for a, b, a give a's bits both
    # times, and the rekeyed state is that of a fresh keyed Philox
    for count in (1, 9, 4203):
        first = fair_bits(7, 3, count)
        fair_bits(8, 5, 1001)
        assert np.array_equal(fair_bits(7, 3, count), first)
    first_draws(7, 40, 24)
    rekeyed, fresh = _keyed_philox(7, 3).state, Philox(key=np.array([7, 3], dtype=np.uint64)).state
    assert json.dumps(rekeyed, default=np.ndarray.tolist) == \
        json.dumps(fresh, default=np.ndarray.tolist)


@pytest.mark.parametrize("seed", [0, 20260814, (1 << 64) - 1])
def test_first_draws_equal_generator_integers(seed):
    # for a power-of-two range Lemire's method keeps the top bits of one
    # 32-bit draw (bits <= 32) or one 64-bit draw (bits > 32) and never rejects
    for bits in (1, 2, 8, 22, 24, 31, 32, 33, 40, 52, 63, 64):
        draws = first_draws(seed, 30, bits)
        assert draws.dtype == np.uint64 and draws.shape == (30,)
        expected = [int(stream_generator(seed, j).integers(0, 1 << bits, dtype=np.uint64))
                    for j in range(30)]
        assert draws.tolist() == expected, bits
    assert first_draws(seed, 0, 24).shape == (0,)


def test_first_draws_width_edges():
    for bits in (0, 65):
        with pytest.raises(ValueError, match=r"draw width in \[1, 64\]"):
            first_draws(1, 10, bits)


# ---------------------------------------------------------------------------
# odometer arithmetic
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=16), st.data())
def test_from_bits_roundtrip(nbits, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits))
    pt = OdometerPoint.from_bits(bits)
    assert pt.bits == tuple(bits)
    assert pt.nbits == nbits


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=0, max_value=1 << 30),
    st.data(),
)
def test_advance_composes_and_wraps(nbits, s1, s2, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
    pt = OdometerPoint(value, nbits)
    two_steps = odometer_advance(odometer_advance(pt, s1), s2)
    one_step = odometer_advance(pt, s1 + s2)
    assert two_steps == one_step
    assert odometer_advance(pt, 1 << nbits) == pt


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=10), st.data())
def test_advance_is_a_bijection(nbits, data):
    # measure preservation at full resolution: advancing every point by s
    # permutes the 2^B points
    s = data.draw(st.integers(min_value=0, max_value=(1 << nbits)))
    n = 1 << nbits
    image = {odometer_advance(OdometerPoint(v, nbits), s).value for v in range(n)}
    assert image == set(range(n))


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=1 << 40),
    st.data(),
)
def test_level_advances_modulo_tower_height(nbits, steps, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
    i = data.draw(st.integers(min_value=1, max_value=nbits))
    pt = OdometerPoint(value, nbits)
    before = level(pt, i)
    after = level(odometer_advance(pt, steps), i)
    assert after == (before + steps) % (1 << i)
    assert 0 <= before < (1 << i)


def test_level_counts_cylinder_measure():
    # exactly 2^{B-i} points sit on each tower level: mu(level = l) = 2^-i
    nbits, i = 10, 4
    counts = np.zeros(1 << i, dtype=int)
    for v in range(1 << nbits):
        counts[level(OdometerPoint(v, nbits), i)] += 1
    assert np.all(counts == 1 << (nbits - i))


def test_point_validation():
    with pytest.raises(ValueError):
        OdometerPoint(4, 2)
    with pytest.raises(ValueError):
        OdometerPoint(0, 0)
    with pytest.raises(ValueError):
        level(OdometerPoint(0, 4), 5)
    with pytest.raises(ValueError):
        odometer_advance(OdometerPoint(0, 4), -1)


# ---------------------------------------------------------------------------
# shift trajectories
# ---------------------------------------------------------------------------

def test_trajectory_coordinates_match_bit_expansion():
    traj = ShiftTrajectory.generate(42, 0, n=32, window=16)
    xs = traj.coordinates()
    for k in (0, 1, 17, 32):
        expected = sum(traj.bit(k - j) * 2.0 ** (-j - 1) for j in range(1, 17))
        assert xs[k] == expected  # exact float equality by construction


def test_trajectory_coordinates_range_and_shift_relation():
    traj = ShiftTrajectory.generate(7, 1, n=200, window=53)
    xs = traj.coordinates()
    assert xs.shape == (201,)
    assert xs.min() >= 0.0 and xs.max() < 0.5
    # x_{k+1} = x_k / 2 + eps_k / 4 (one new bit enters, window slides)
    for k in range(200):
        lhs = xs[k + 1]
        rhs = xs[k] / 2.0 + traj.bit(k) * 0.25
        # the oldest bit leaves the window, perturbing by at most 2^-(W+1)
        assert abs(lhs - rhs) <= 2.0 ** -54


def test_coordinate_matrix_matches_per_path():
    window, n, paths = 20, 15, 4
    eps = np.stack([fair_bits(5, s, n + 2 * window + 1) for s in range(paths)])
    batch = coordinate_matrix(eps, n, window)
    for s in range(paths):
        single = ShiftTrajectory(seed=5, stream=s, n=n, window=window, eps=eps[s])
        assert np.array_equal(batch[s], single.coordinates())


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=53), st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 32))
@example(window=1, n=1, paths=1, seed=0)
@example(window=53, n=7, paths=2, seed=1)
@example(window=53, n=40, paths=3, seed=2)
@example(window=8, n=17, paths=2, seed=3)
def test_coordinate_matrix_equals_scalar_recurrence(window, n, paths, seed):
    # n < 8 leaves some bit phases without a column; n + 1 not a multiple of 8
    # leaves the phases with unequal column counts
    eps = np.random.default_rng(seed).integers(0, 2, (paths, n + 2 * window + 1), dtype=np.uint8)
    batch = coordinate_matrix(eps, n, window)
    assert batch.shape == (paths, n + 1)
    for row, bits in zip(batch, eps):
        assert np.array_equal(row, _coordinates_from_bits(bits, n, window))


def test_coordinate_matrix_window_edges():
    eps = np.ones((2, 4 + 2 * 53 + 1), dtype=np.uint8)
    assert coordinate_matrix(eps, 4, 53).max() == (2.0 ** 53 - 1) * 2.0 ** -54
    assert np.all(coordinate_matrix(eps[:, :4 + 2 + 1], 4, 1) == 0.25)
    for window in (0, 54):
        with pytest.raises(ValueError, match=r"coordinate window in \[1, 53\]"):
            coordinate_matrix(eps, 4, window)
    with pytest.raises(ValueError, match=r"need n \+ window"):
        coordinate_matrix(eps[:, :56], 4, 53)


def test_trajectory_bit_bounds():
    traj = ShiftTrajectory.generate(1, 0, n=10, window=8)
    with pytest.raises(IndexError):
        traj.bit(-9)
    with pytest.raises(IndexError):
        traj.bit(19)
