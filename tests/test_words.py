from hypothesis import given, settings
from hypothesis import strategies as st

from stratachain import (abelianize, canonical_cyclic_word, cyclic_reduce,
                         invert_word, letter, letter_stratum)

letters = st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4])
words = st.lists(letters, max_size=12).map(tuple)


def test_letter_encoding_round_trip():
    for idx in range(5):
        for d in (1, -1):
            x = letter(idx, d)
            assert letter_stratum(x) == idx
            assert (x > 0) == (d > 0)
    assert letter(0, 1) == 1 and letter(0, -1) == -1
    assert letter(2, -1) == -3


def test_hand_reductions():
    # x y x^-1 collapses cyclically to y
    assert canonical_cyclic_word((1, 2, -1)) == (2,)
    # rotation puts the least letter first
    assert canonical_cyclic_word((2, 1)) == (1, 2)
    assert canonical_cyclic_word(()) == ()
    # wrap-around cancellation
    assert cyclic_reduce((1, 2, -2, 3, -1)) == () or \
        cyclic_reduce((1, 2, -2, 3, -1)) == (3,)
    assert canonical_cyclic_word((1, 2, -2, 3, -1)) == (3,)


@settings(max_examples=300, derandomize=True)
@given(words)
def test_canonical_idempotent(w):
    c = canonical_cyclic_word(w)
    assert canonical_cyclic_word(c) == c


@settings(max_examples=300, derandomize=True)
@given(words, st.integers(min_value=0, max_value=11))
def test_canonical_rotation_invariant(w, r):
    if w:
        r %= len(w)
        rotated = w[r:] + w[:r]
        assert canonical_cyclic_word(rotated) == canonical_cyclic_word(w)


@settings(max_examples=300, derandomize=True)
@given(words)
def test_reduction_leaves_no_adjacent_inverses(w):
    red = cyclic_reduce(w)
    n = len(red)
    for i in range(n):
        assert red[(i + 1) % n] != -red[i] or n == 1


@settings(max_examples=300, derandomize=True)
@given(words)
def test_inversion_involution_and_folding(w):
    assert invert_word(invert_word(w)) == tuple(w)
    assert canonical_cyclic_word(invert_word(w)) == \
        canonical_cyclic_word(invert_word(cyclic_reduce(w)))


@settings(max_examples=300, derandomize=True)
@given(words)
def test_abelianize_is_reduction_and_rotation_invariant(w):
    n = 4
    base = abelianize(w, n)
    assert abelianize(canonical_cyclic_word(w), n) == base
    if w:
        assert abelianize(w[1:] + w[:1], n) == base
    assert abelianize(invert_word(w), n) == tuple(-x for x in base)


def test_abelianize_counts():
    assert abelianize((1, 1, -2, 3), 3) == (2, -1, 1)
    assert abelianize((), 2) == (0, 0)
