"""Core dynamics: truncated binary odometer, dyadic shift trajectories, seeded streams.

Two measure-preserving systems are realized here.

The *truncated binary odometer* acts on B-bit words (least-significant bit
first) by add-one-with-carry modulo 2^B.  The uniform measure on the 2^B
words is preserved exactly, and the zero cylinders generate exact Rokhlin
towers: the set of points whose first i bits vanish has measure 2^-i, and
its first 2^i - 1 images under T are pairwise disjoint translates.

The *dyadic Bernoulli shift* is realized through sampled trajectories: a
two-sided window of i.i.d. fair bits (eps_k) and the derived doubling-map
coordinates x_k = sum_{j=1..W} 2^{-j-1} eps_{k-j} in [0, 1/2).

The Monte Carlo reports use the batched `coordinate_matrix` (and, on the
odometer, residue tables in `counterexamples`); the scalar `OdometerPoint`
and `ShiftTrajectory` are the per-point references they are tested against.

Randomness is counter-based throughout: every stream is a pure function of
(seed, stream id), so Monte Carlo results do not depend on how work is
split across workers.  Streams are read from the raw Philox4x64 output
keyed by (seed, stream id), through one Philox per thread that is rekeyed
for each stream (key set, counter zero, buffer empty: the state of a fresh
`Philox(key=...)`, without the SeedSequence and OS entropy its constructor
draws first).  What is read equals what `stream_generator(seed, stream)`
returns, because for a power-of-two range Lemire's multiply-shift keeps
the top bits of its input word and never rejects:

* fair bits: the top bit of each byte, each 64-bit word read
  little-endian, as `.integers(0, 2, dtype=np.uint8)` returns
  (tests/test_dynamics.py::test_fair_bits_equal_generator_integers);
* odometer start points: from the first word w of each stream, the value
  of `.integers(0, 2**bits, dtype=np.uint64)`, which is the top `bits` bits
  of the low 32-bit half of w for bits <= 32 (the 32-bit draw is that half)
  and the top `bits` bits of w for bits > 32
  (tests/test_dynamics.py::test_first_draws_equal_generator_integers).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "stream_generator",
    "fair_bits",
    "first_draws",
    "OdometerPoint",
    "odometer_advance",
    "level",
    "ShiftTrajectory",
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


def first_draws(seed: int, streams: int, bits: int) -> np.ndarray:
    """For each stream j < `streams`, the uint64 value of
    `stream_generator(seed, j).integers(0, 2**bits, dtype=np.uint64)`, read
    from the first raw word of the stream (see the module docstring)."""
    if not 1 <= bits <= 64:
        raise ValueError(f"bits = {bits} invalid: draw width in [1, 64]")
    words = np.array([_keyed_philox(seed, j).random_raw() for j in range(streams)],
                     dtype=np.uint64)
    if bits <= 32:
        return (words & np.uint64(0xFFFFFFFF)) >> np.uint64(32 - bits)
    return words >> np.uint64(64 - bits)


# ---------------------------------------------------------------------------
# odometer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdometerPoint:
    """A point of the B-bit odometer, stored as its integer value.

    `value` is the integer whose base-2 digits, least significant first, are
    the coordinates of the point; `nbits` is the precision B.
    """

    value: int
    nbits: int

    def __post_init__(self) -> None:
        if not 1 <= self.nbits <= 62:
            raise ValueError(f"nbits must be in [1, 62], got {self.nbits}")
        if not 0 <= self.value < (1 << self.nbits):
            raise ValueError(f"value {self.value} out of range for {self.nbits} bits")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "OdometerPoint":
        """Build a point from its bits, least-significant first."""
        if len(bits) == 0:
            raise ValueError("need at least one bit")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        value = sum(b << i for i, b in enumerate(bits))
        return cls(value=value, nbits=len(bits))

    @property
    def bits(self) -> Tuple[int, ...]:
        """Bits of the point, least-significant first."""
        return tuple((self.value >> i) & 1 for i in range(self.nbits))


def odometer_advance(point: OdometerPoint, steps: int = 1) -> OdometerPoint:
    """Apply the add-with-carry map `steps` times: value + steps mod 2^B."""
    if steps < 0:
        raise ValueError("steps must be >= 0 (the odometer is iterated forward)")
    return OdometerPoint((point.value + steps) & ((1 << point.nbits) - 1), point.nbits)


def level(point: OdometerPoint, i: int) -> int:
    """Tower level of the point in the height-2^i zero-cylinder tower.

    Level l means the point lies in T^l(A_i) where A_i is the cylinder
    {first i bits all zero}; concretely this is value mod 2^i.  Advancing
    the odometer by s steps advances the level by s mod 2^i.
    """
    if not 1 <= i <= point.nbits:
        raise ValueError(f"tower index i={i} out of range [1, {point.nbits}]")
    return point.value & ((1 << i) - 1)


# ---------------------------------------------------------------------------
# shift trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftTrajectory:
    """A sampled trajectory of the dyadic Bernoulli shift.

    Carries fair bits eps_k for k in [-window, n + window] and exposes the
    doubling-map coordinates x_k = sum_{j=1..W} 2^{-j-1} eps_{k-j}, which lie
    in [0, 1/2).  The x_k are computed in integer arithmetic (W <= 53 bits)
    and are exact as float64.
    """

    seed: int
    stream: int
    n: int
    window: int
    eps: np.ndarray = field(repr=False)  # uint8, index k+window for eps_k

    @classmethod
    def generate(cls, seed: int, stream: int, n: int, window: int = 53) -> "ShiftTrajectory":
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= window <= 53:
            raise ValueError("window must be in [1, 53] so coordinates are exact floats")
        eps = fair_bits(seed, stream, n + 2 * window + 1)
        return cls(seed=seed, stream=stream, n=n, window=window, eps=eps)

    def bit(self, k: int) -> int:
        """eps_k for k in [-window, n + window]."""
        if not -self.window <= k <= self.n + self.window:
            raise IndexError(f"bit index {k} outside [-{self.window}, {self.n + self.window}]")
        return int(self.eps[k + self.window])

    def coordinates(self) -> np.ndarray:
        """Doubling-map coordinates x_0 .. x_n (float64, exact)."""
        return _coordinates_from_bits(self.eps, self.n, self.window)


def _coordinates_from_bits(eps: np.ndarray, n: int, window: int) -> np.ndarray:
    # X_k = sum_{j=1..W} 2^{W-j} eps_{k-j}; recurrence X_{k+1} = (X_k >> 1) + eps_k 2^{W-1}
    W = window
    X = 0
    for j in range(1, W + 1):
        X += int(eps[-j + W]) << (W - j)  # eps_{-j} at index -j+W
    xs = np.empty(n + 1, dtype=np.float64)
    scale = 2.0 ** -(W + 1)
    xs[0] = X * scale
    for k in range(n):
        X = (X >> 1) + (int(eps[k + W]) << (W - 1))
        xs[k + 1] = X * scale
    return xs


def coordinate_matrix(eps: np.ndarray, n: int, window: int) -> np.ndarray:
    """Vectorized x_0..x_n for a batch: eps has shape (paths, n + 2*window + 1).

    With b the bits of a row, X_k = sum_{t<W} b[k+t] 2^t is the W-bit window
    at bit offset k, and x_k = X_k 2^-(W+1).  Each row is packed little-endian
    (`np.packbits`, 8 zero bytes of padding), so X_k is the unaligned
    little-endian 64-bit word at byte k // 8, shifted right by k % 8 and
    masked to W bits; one strided read per bit phase k % 8 fills the columns
    k = phase, phase + 8, ...  The shift and the window fit in the word since
    W + 7 <= 64, and X < 2^53 makes x_k exact, equal to the scalar
    ShiftTrajectory.coordinates.
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
