"""Per-point oracles that the tests compare coblim's vectorized kernels against.

Each is a plain function over ints and arrays that follows its definition one
point or one step at a time, with none of the kernels' tables, views or
packed reads.  The last two are the reference formatters for the artifact
text: the standard library's JSON encoder and a per-cell CSV join.
"""

import json
import math
from fractions import Fraction

import numpy as np

from coblim.reports import jsonable


def orbit(start, bits, steps):
    """T^k start for each k in `steps` on the B-bit odometer: T adds one with
    carry to the bits read least significant first, so T^k w = (w + k) mod 2^B."""
    return [(start + k) % (1 << bits) for k in steps]


def tower_value(m, lev):
    """g_i at tower level lev: a_i min(j, 2k_i - j) at level n_i - j for
    1 <= j < 2k_i, and 0 elsewhere."""
    j = m.n - lev
    return m.amplitude * min(j, 2 * m.k - j) if 1 <= j < 2 * m.k else 0.0


def g_table_per_level(cex):
    """g on every residue mod 2^{i_max} as floats: 0.0 plus one strided
    addition per level of each tower, towers in order."""
    table = np.zeros(1 << cex.i_max)
    for m in cex.maps:
        levels, vals = m.profile()
        for lev, v in zip(levels.tolist(), vals.tolist()):
            table[lev::m.n] += v
    return table


def eval_g(cex, v):
    """g = sum_i g_i at the odometer point of value v, whose level in the
    height-2^i tower is v mod 2^i."""
    return math.fsum(tower_value(m, v % m.n) for m in cex.maps)


def coordinates(eps, n, window):
    """Doubling-map coordinates x_0..x_n of one path, eps[k + W] holding eps_k.

    X_0 = sum_{j=1..W} 2^{W-j} eps_{-j} and X_{k+1} = (X_k >> 1) + eps_k 2^{W-1},
    one step at a time in integers; x_k = X_k 2^-(W+1).
    """
    W = window
    X = sum(int(eps[W - j]) << (W - j) for j in range(1, W + 1))
    xs = [X]
    for k in range(n):
        X = (X >> 1) + (int(eps[k + W]) << (W - 1))
        xs.append(X)
    return np.array(xs, dtype=np.float64) * 2.0 ** -(W + 1)


def horizon_accumulate(ufunc, x, h_idx):
    """ufunc (np.maximum or np.minimum) over x[:, 1..n] for each horizon n in
    ``h_idx``, one column each: reduced per segment between horizons, then
    accumulated across them."""
    cols = np.concatenate(([1], h_idx[:-1] + 1))
    return ufunc.accumulate(ufunc.reduceat(x[:, : h_idx[-1] + 1], cols, axis=1), axis=1)


def mstar_scan(h, residue, n_max):
    """max_{1 <= n <= n_max} |S_n(h)| / n along the orbit of `residue`, in floats."""
    s = best = 0.0
    for n in range(1, n_max + 1):
        s += h.numerators[(residue + n - 1) % len(h.numerators)] / h.denominator
        best = max(best, abs(s) / n)
    return best


def violation_probability_bruteforce(cex, i, threshold, window):
    """Share of the residues mod n_i from which some shift l in the inclusive
    window lands on a level whose g_i value is >= threshold, scanning every
    residue and l."""
    m = cex.map_for(i)
    levels, values = m.profile()
    qualifying = np.zeros(m.n, dtype=bool)
    qualifying[levels[values >= threshold]] = True
    residues = np.arange(m.n)
    hit = np.zeros(m.n, dtype=bool)
    for l in range(window[0], window[1] + 1):
        hit |= qualifying[(residues + l) % m.n]
    return Fraction(int(hit.sum()), m.n)


def weak_bound_violations(h, n_max, thresholds, q):
    """Thresholds t, for an integer q, where t^q mu > (q/(q-1))^q max_v v^q tail_v / m
    in Fractions: mu is the share of the m residues with M*_{n_max} >= t, and
    tail_v counts those whose |h| is at least v."""
    m = len(h.numerators)
    mstar = []
    for residue in range(m):
        s, best = 0, Fraction(0)
        for n in range(1, n_max + 1):
            s += h.numerators[(residue + n - 1) % m]
            best = max(best, Fraction(abs(s), n * h.denominator))
        mstar.append(best)
    count = 0
    for t in thresholds:
        hit = sorted((Fraction(abs(h.numerators[r]), h.denominator)
                      for r in range(m) if mstar[r] >= t), reverse=True)
        weak = max((v ** q * (tail + 1) for tail, v in enumerate(hit)), default=0)
        count += t ** q * Fraction(len(hit), m) > Fraction(q, q - 1) ** q * weak / m
    return count


def json_text(obj):
    """A report's JSON text through the standard library's own indented
    encoder: sorted keys, two spaces per level, a trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def csv_lines(header, rows, eol):
    """A CSV table one cell at a time: a Fraction as "n/d", a float (np.float64
    included) as its own repr, None as empty, anything else by str."""
    def cell(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        if isinstance(v, float):
            return repr(v)
        return "" if v is None else str(v)

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return eol.join(lines) + eol
