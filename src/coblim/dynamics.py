"""Core dynamics: truncated binary odometer, dyadic shift trajectories, seeded streams.

Two measure-preserving systems are realized here.

The *truncated binary odometer* acts on B-bit words (least-significant bit
first) by add-one-with-carry modulo 2^B: the word of value w goes to
w + 1 mod 2^B.  The uniform measure on the 2^B words is preserved exactly,
and the zero cylinders generate exact Rokhlin towers: the set of points whose
first i bits vanish has measure 2^-i, and its first 2^i - 1 images under T
are pairwise disjoint translates, so a point's level in that tower is its
value mod 2^i.  The reports read the odometer through a table of g over the
residues, held as ranks into its sorted values
(`counterexamples.g_residue_table`), and start residues (`first_draws`).

The *dyadic Bernoulli shift* is realized through sampled trajectories: a
two-sided window of i.i.d. fair bits (eps_k) and the derived doubling-map
coordinates x_k = sum_{j=1..W} 2^{-j-1} eps_{k-j} in [0, 1/2), which
`coordinate_matrix` computes for a batch of paths.

Randomness is counter-based throughout: every stream is a pure function of
(seed, stream id), so Monte Carlo results do not depend on how work is
split across workers.  Streams are read from the raw Philox4x64-10 output
keyed by (seed, stream id).  What is read equals what
`stream_generator(seed, stream)` returns, because for a power-of-two range
Lemire's multiply-shift keeps the top bits of its input word and never
rejects:

* fair bits: the top bit of each byte, each 64-bit word read
  little-endian, as `.integers(0, 2, dtype=np.uint8)` returns
  (tests/test_dynamics.py::test_fair_bits_equal_generator_integers).  They
  come from one Philox per thread that is rekeyed for each stream (key set,
  counter zero, buffer empty: the state of a fresh `Philox(key=...)`,
  without the SeedSequence and OS entropy its constructor draws first);
* odometer start points: from the first word w of each stream, the value
  of `.integers(0, 2**bits, dtype=np.uint64)`, which is the top `bits` bits
  of the low 32-bit half of w for bits <= 32 (the 32-bit draw is that half)
  and the top `bits` bits of w for bits > 32
  (tests/test_dynamics.py::test_first_draws_equal_generator_integers).
  w is word 0 of the Philox4x64-10 block at counter (1, 0, 0, 0) under key
  (seed, j), the block a fresh `Philox` computes on its first
  `random_raw()` since it increments the counter first; `first_draws`
  computes these blocks for all streams in one vectorized pass over the
  ten rounds.
"""

from __future__ import annotations

import threading
from typing import Tuple

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "stream_generator",
    "fair_bits",
    "first_draws",
    "coordinate_matrix",
]

_MASK64 = (1 << 64) - 1


def stream_generator(seed: int, stream: int) -> Generator:
    """Counter-based generator keyed by (seed, stream id).

    Philox is a counter-mode bit generator: the output block depends only on
    the key, never on call history of other streams, which makes results
    independent of worker count and chunking.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return Generator(Philox(key=key))


_local = threading.local()


def _keyed_philox(seed: int, stream: int) -> Philox:
    """This thread's Philox, rekeyed to (seed, stream): the state of
    `Philox(key=...)`, whatever the generator drew before."""
    bitgen = getattr(_local, "philox", None)
    if bitgen is None:
        bitgen = _local.philox = Philox(0)
    zeros = np.zeros(4, dtype=np.uint64)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros,
                  "key": np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)},
        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return bitgen


def fair_bits(seed: int, stream: int, count: int) -> np.ndarray:
    """Return `count` i.i.d. fair bits (uint8) for the given stream.

    Bit i is the top bit of byte i of the raw Philox4x64 output keyed by
    (seed, stream), each 64-bit word read little-endian: the same bits as
    `stream_generator(seed, stream).integers(0, 2, size=count, dtype=np.uint8)`,
    without building a Generator (see the module docstring).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    words = _keyed_philox(seed, stream).random_raw(-(-count // 8)).astype("<u8", copy=False)
    return words.view(np.uint8)[:count] >> 7


# Philox4x64 round multipliers and Weyl key increments (Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11)
_PHILOX_M0, _PHILOX_M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_PHILOX_W0, _PHILOX_W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from 32-bit
    halves (each partial product fits in 64 bits); the caller ignores
    overflow, since the low word wraps by design."""
    m_lo, m_hi = m & _LOW32, m >> _HALF
    x_lo, x_hi = x & _LOW32, x >> _HALF
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    mid = (lo_lo >> _HALF) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    return x_hi * m_hi + (hi_lo >> _HALF) + (lo_hi >> _HALF) + (mid >> _HALF), x * m


def first_draws(seed: int, streams: int, bits: int) -> np.ndarray:
    """For each stream j < `streams`, the uint64 value of
    `stream_generator(seed, j).integers(0, 2**bits, dtype=np.uint64)`, read
    from the first raw word of the stream, which Philox4x64-10 computes for
    all streams at once (see the module docstring)."""
    if not 1 <= bits <= 64:
        raise ValueError(f"bits = {bits} invalid: draw width in [1, 64]")
    key0, key1 = np.uint64(seed & _MASK64), np.arange(streams, dtype=np.uint64)
    x0, x1, x2, x3 = (np.full(streams, c, dtype=np.uint64) for c in (1, 0, 0, 0))
    with np.errstate(over="ignore"):
        for rnd in range(10):
            if rnd:
                key0, key1 = key0 + _PHILOX_W0, key1 + _PHILOX_W1
            hi0, lo0 = _mulhilo(_PHILOX_M0, x0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
    if bits <= 32:
        return (x0 & _LOW32) >> np.uint64(32 - bits)
    return x0 >> np.uint64(64 - bits)


def coordinate_matrix(eps: np.ndarray, n: int, window: int) -> np.ndarray:
    """Vectorized x_0..x_n for a batch: eps has shape (paths, n + 2*window + 1).

    With b the bits of a row, X_k = sum_{t<W} b[k+t] 2^t is the W-bit window
    at bit offset k, and x_k = X_k 2^-(W+1).  Each row is packed little-endian
    (`np.packbits`, 8 zero bytes of padding), so X_k is the unaligned
    little-endian 64-bit word at byte k // 8, shifted right by k % 8 and
    masked to W bits; one strided read per bit phase k % 8 fills the columns
    k = phase, phase + 8, ...  The shift and the window fit in the word since
    W + 7 <= 64, and X < 2^53 makes x_k exact, equal to the scalar recurrence
    X_{k+1} = (X_k >> 1) + eps_k 2^(W-1)
    (tests/test_dynamics.py::test_coordinate_matrix_equals_scalar_recurrence).
    """
    if not 1 <= window <= 53:
        raise ValueError(f"window = {window} invalid: coordinate window in [1, 53]")
    paths, columns = eps.shape
    if columns < n + window:
        raise ValueError(f"{columns} bits per path, need n + window = {n + window}")
    packed = np.pad(np.packbits(eps, axis=1, bitorder="little"), ((0, 0), (0, 8)))
    mask = np.uint64((1 << window) - 1)
    scale = 2.0 ** -(window + 1)
    xs = np.empty((paths, n + 1), dtype=np.float64)
    for phase in range(8):
        out = xs[:, phase::8]
        words = np.ndarray(out.shape, dtype="<u8", buffer=packed,
                           strides=(packed.strides[0], 1))
        np.multiply((words >> np.uint64(phase)) & mask, scale, out=out)
    return xs
