"""Tests for weak and strong q-norms and simple-function representations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coblim.weak_tails import SimpleFunctionRep, strong_norm, weak_norm


def simple_reps(max_atoms=6):
    """Strategy for valid count representations.

    Values mix arbitrary floats with a few powers of two, so that jump
    candidates v^q * tail tie; some counts are zero and the cell count n is
    often not a power of two, so count/n is rounded.
    """

    @st.composite
    def build(draw):
        k = draw(st.integers(min_value=1, max_value=max_atoms))
        values = draw(
            st.lists(
                st.one_of(
                    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
                    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                ),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        n = draw(st.integers(min_value=k, max_value=10 ** 6))
        counts = draw(st.lists(st.integers(0, n // k), min_size=k, max_size=k))
        return SimpleFunctionRep(tuple(sorted(zip(values, counts))), n)

    return build()


def fraction_weak_norm(rep, q):
    """Reference: the descending jump scan with the tail kept as a Fraction."""
    best = 0.0
    tail = Fraction(0)
    for v, c in sorted(rep.pairs, reverse=True):
        tail += Fraction(c, rep.n)
        best = max(best, (v ** q) * float(tail))
    return best ** (1.0 / q)


def fraction_strong_norm(rep, q):
    """Reference: the moment sum with each mass kept as a Fraction."""
    return math.fsum((v ** q) * float(Fraction(c, rep.n)) for v, c in rep.pairs) ** (1.0 / q)


# ---------------------------------------------------------------------------
# representation invariants
# ---------------------------------------------------------------------------

@given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.75, 1.0, 2.5]), max_size=40))
def test_from_uniform_equals_from_pairs_with_equal_masses(values):
    # from_uniform merges equal |values| into one count and drops zeros
    m = 64
    counts = {}
    for v in values:
        if v != 0:
            counts[abs(v)] = counts.get(abs(v), 0) + 1
    assert SimpleFunctionRep.from_uniform(values, m) == \
        SimpleFunctionRep(tuple(sorted(counts.items())), m)


def test_from_pairs_rejects_overfull_measure():
    with pytest.raises(ValueError, match="> n"):
        SimpleFunctionRep(((1.0, 3), (2.0, 2)), 4)


@pytest.mark.parametrize("pairs, n", [
    (((1.0, -1), (2.0, 2)), 4),   # negative count
    (((0.0, 1),), 4),             # zero value
    (((-1.0, 1),), 4),            # negative value
    (((1.0, 1), (1.0, 1)), 4),    # duplicate value
    ((), 0),                      # no cells
])
def test_constructor_rejects_invalid_pairs(pairs, n):
    with pytest.raises(ValueError):
        SimpleFunctionRep(pairs, n)


def test_moment_closed_form():
    rep = SimpleFunctionRep(((2.0, 1),), 8)
    assert strong_norm(rep, 3.0) ** 3 == pytest.approx(8.0 / 8.0)


# ---------------------------------------------------------------------------
# weak and strong norms
# ---------------------------------------------------------------------------

def test_weak_norm_attained_at_jump():
    # single atom: sup_t t^q mu{|h| > t} = v^q * mu as t -> v from below
    rep = SimpleFunctionRep(((3.0, 1),), 16)
    q = 1.5
    assert weak_norm(rep, q) == pytest.approx((3.0 ** q / 16.0) ** (1.0 / q))


def test_weak_norm_two_atoms_picks_the_larger_candidate():
    rep = SimpleFunctionRep(((1.0, 32), (4.0, 1)), 64)
    q = 2.0
    # candidates: 1^2*(1/2 + 1/64) and 4^2*(1/64)
    c1 = 1.0 * (1 / 2 + 1 / 64)
    c2 = 16.0 / 64
    assert weak_norm(rep, q) == pytest.approx(max(c1, c2) ** 0.5)


@settings(max_examples=60)
@given(simple_reps(), st.floats(min_value=1.0, max_value=4.0))
def test_weak_norm_below_strong_norm(rep, q):
    # Chebyshev: t^q mu{|h|>t} <= E|h|^q, so ||h||_{q,oo} <= ||h||_q
    weak = weak_norm(rep, q)
    strong = strong_norm(rep, q)
    assert weak <= strong * (1 + 1e-12)


@settings(max_examples=80)
@given(simple_reps(), st.floats(min_value=0.5, max_value=4.0))
def test_weak_norm_matches_brute_force_sup_over_jumps(rep, q):
    # the constructor accepts pairs in any order; a single pass that assumes
    # ascending pairs would accumulate the wrong tail on the descending copy
    descending = SimpleFunctionRep(tuple(sorted(rep.pairs, reverse=True)), rep.n)
    for r in (rep, descending):
        brute = max(v ** q * (sum(c for w, c in r.pairs if w >= v) / r.n)
                    for v, _ in r.pairs) ** (1.0 / q)
        assert weak_norm(r, q) == brute


@settings(max_examples=150)
@given(simple_reps(), st.floats(min_value=0.5, max_value=4.0))
def test_norms_equal_fraction_reference_bit_for_bit(rep, q):
    # c / n and float(Fraction(c, n)) are both the correctly rounded quotient,
    # so integer counts change no bit of either norm
    descending = SimpleFunctionRep(tuple(sorted(rep.pairs, reverse=True)), rep.n)
    for r in (rep, descending):
        assert weak_norm(r, q) == fraction_weak_norm(r, q)
        assert strong_norm(r, q) == fraction_strong_norm(r, q)
