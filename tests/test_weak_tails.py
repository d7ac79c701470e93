"""Tests for weak and strong q-norms and simple-function representations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coblim.weak_tails import SimpleFunctionRep, strong_norm, weak_norm


def simple_reps(max_atoms=6):
    """Strategy for valid simple-function representations."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_atoms))
        values = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        dens = draw(st.lists(st.integers(4, 64), min_size=n, max_size=n))
        measures = [Fraction(1, 4 * d) for d in dens]  # total <= 6/16 < 1
        return SimpleFunctionRep.from_pairs(values, measures)

    return build()


# ---------------------------------------------------------------------------
# representation invariants
# ---------------------------------------------------------------------------

def test_from_pairs_merges_duplicate_values():
    rep = SimpleFunctionRep.from_pairs(
        [2.0, 1.0, 2.0], [Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)]
    )
    assert rep.jump_values() == [1.0, 2.0]
    assert rep.tail_geq(2.0) == Fraction(1, 4)
    assert rep.total_mass == Fraction(3, 8)


def test_from_pairs_drops_zero_values():
    rep = SimpleFunctionRep.from_pairs([0.0, 3.0], [Fraction(1, 2), Fraction(1, 4)])
    assert rep.jump_values() == [3.0]
    assert rep.total_mass == Fraction(1, 4)


def test_from_pairs_rejects_overfull_measure():
    with pytest.raises(ValueError):
        SimpleFunctionRep.from_pairs([1.0, 2.0], [Fraction(3, 4), Fraction(1, 2)])


def test_tail_conventions():
    rep = SimpleFunctionRep.from_pairs([1.0, 2.0], [Fraction(1, 4), Fraction(1, 4)])
    # tail(t) = mu{|h| > t} is right-continuous; tail_geq(t) = mu{|h| >= t}
    assert rep.tail(0.5) == Fraction(1, 2)
    assert rep.tail(1.0) == Fraction(1, 4)
    assert rep.tail_geq(1.0) == Fraction(1, 2)
    assert rep.tail(2.0) == Fraction(0)
    assert rep.tail_geq(2.0) == Fraction(1, 4)


@given(simple_reps())
def test_tail_monotone_and_bounded(rep):
    ts = sorted(rep.jump_values())
    tails = [rep.tail(t) for t in [0.0] + ts]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[0] == rep.total_mass


def test_moment_closed_form():
    rep = SimpleFunctionRep.from_pairs([2.0], [Fraction(1, 8)])
    assert rep.moment(3.0) == pytest.approx(8.0 / 8.0)


# ---------------------------------------------------------------------------
# weak and strong norms
# ---------------------------------------------------------------------------

def test_weak_norm_attained_at_jump():
    # single atom: sup_t t^q mu{|h| > t} = v^q * mu as t -> v from below
    rep = SimpleFunctionRep.from_pairs([3.0], [Fraction(1, 16)])
    q = 1.5
    assert weak_norm(rep, q) == pytest.approx((3.0 ** q / 16.0) ** (1.0 / q))


def test_weak_norm_two_atoms_picks_the_larger_candidate():
    rep = SimpleFunctionRep.from_pairs([1.0, 4.0], [Fraction(1, 2), Fraction(1, 64)])
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
    descending = SimpleFunctionRep(pairs=tuple(sorted(rep.pairs, reverse=True)))
    for r in (rep, descending):
        brute = max(v ** q * float(r.tail_geq(v)) for v, _ in r.pairs) ** (1.0 / q)
        assert weak_norm(r, q) == brute
