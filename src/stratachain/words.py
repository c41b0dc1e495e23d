"""Cyclic words over directed stratum letters.

A letter is a nonzero int: +s and -s are the two directions of the edge
stratum numbered s (ids are offset by one so that 0 never appears).  Words
compare as conjugacy classes: reduce cyclically, then take the least
rotation under plain integer ordering.
"""

from __future__ import annotations


def letter(stratum_index, direction) -> int:
    """Encode a directed stratum as a nonzero int.

    >>> letter(0, +1), letter(2, -1)
    (1, -3)
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +-1")
    return direction * (stratum_index + 1)


def letter_stratum(x) -> int:
    """Stratum index of a letter.

    >>> letter_stratum(-3)
    2
    """
    return abs(x) - 1


def invert_word(word):
    """Reverse the path: flip letters and their order.

    >>> invert_word((1, -2, 3))
    (-3, 2, -1)
    """
    return tuple(-x for x in reversed(word))


def cyclic_reduce(word):
    """Cancel adjacent inverse pairs, wrapping around the ends.

    >>> cyclic_reduce((1, 2, -2, 3, -1))
    (3,)
    >>> cyclic_reduce((1, -1))
    ()
    """
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def least_rotation(word):
    """Lexicographically smallest rotation under int ordering.

    >>> least_rotation((2, 1, 3))
    (1, 3, 2)
    """
    if not word:
        return ()
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def canonical_cyclic_word(word):
    """Conjugacy-class representative: cyclic reduction, least rotation.

    Idempotent, and invariant under rotation of the input.

    >>> canonical_cyclic_word((3, -1, 1, 2))
    (2, 3)
    >>> canonical_cyclic_word(canonical_cyclic_word((5, 4, -4, -5, 2)))
    (2,)
    """
    return least_rotation(cyclic_reduce(word))


def abelianize(word, n_strata) -> tuple:
    """Net signed crossing count per stratum.

    >>> abelianize((1, -2, 1, 2, 2), 3)
    (2, 1, 0)
    """
    counts = [0] * n_strata
    for x in word:
        counts[letter_stratum(x)] += 1 if x > 0 else -1
    return tuple(counts)
