import random
import time
from fractions import Fraction

import pytest

from stratachain import (GroundCapError, InternalCheckError, SignedVector,
                         Stratification, assemble, builtin_complex,
                         canonical_reorientation_class, complex_matroid,
                         enumerate_circuits, top_cycle_matroid)
from stratachain.matroid import _min_encoding, circuit_pairs

from oracles import (brute_circuit_set, is_circuit, naive_min_encoding,
                     random_subspace)


def as_sign_pairs(circuits):
    return {(c.positive, c.negative) for c in circuits}


def test_signed_vector_operations():
    v = SignedVector.from_vector((3, 0, -2, 1))
    assert v.n == 4
    assert v.positive == frozenset({0, 3})
    assert v.negative == frozenset({2})
    assert v.support == frozenset({0, 2, 3})
    assert v.negate() == SignedVector(4, frozenset({2}), frozenset({0, 3}))
    assert v.flip([0]) == SignedVector(4, frozenset({3}), frozenset({0, 2}))
    w = v.permute({0: 1, 1: 0, 2: 3, 3: 2})
    assert w == SignedVector(4, frozenset({1, 2}), frozenset({3}))


def test_circuits_of_line():
    circuits = enumerate_circuits([(1, 1)], 2)
    assert as_sign_pairs(circuits) == {
        (frozenset({0, 1}), frozenset()), (frozenset(), frozenset({0, 1}))}


def test_circuits_of_axis():
    circuits = enumerate_circuits([(1, 0)], 2)
    assert as_sign_pairs(circuits) == {
        (frozenset({0}), frozenset()), (frozenset(), frozenset({0}))}


def test_circuits_of_plane():
    circuits = enumerate_circuits([(1, 0, -1), (0, 1, -1)], 3)
    assert as_sign_pairs(circuits) == {
        (frozenset({0}), frozenset({2})), (frozenset({2}), frozenset({0})),
        (frozenset({1}), frozenset({2})), (frozenset({2}), frozenset({1})),
        (frozenset({0}), frozenset({1})), (frozenset({1}), frozenset({0}))}


def test_zero_space_has_no_circuits():
    assert enumerate_circuits([], 3) == []
    assert enumerate_circuits([(0, 0, 0)], 3) == []


def test_circuits_accept_rational_entries():
    circuits = enumerate_circuits([(Fraction(1, 2), Fraction(-1, 3))], 2)
    assert as_sign_pairs(circuits) == {
        (frozenset({0}), frozenset({1})), (frozenset({1}), frozenset({0}))}


def test_circuits_match_brute_force_oracle():
    rng = random.Random(8451)
    for _ in range(40):
        basis, n = random_subspace(rng, max_n=8)
        got = as_sign_pairs(enumerate_circuits(basis, n))
        assert got == brute_circuit_set(basis, n)


DEGENERATE_SPANS = {
    "dependent generators": ([(1, 2, 0, -1, 3), (2, 4, 0, -2, 6),
                              (0, 1, 1, 0, -1), (1, 3, 1, -1, 2)], 5),
    "zero coordinate": ([(1, 0, 2, -1), (0, 0, 1, 1)], 4),
    "repeated and parallel coordinates": ([(1, 1, 2, 0, -3, 1),
                                           (0, 0, 0, 1, 1, 0)], 6),
    "k = n": ([(1, 2, 0, 1), (0, 1, -1, 0), (3, 0, 1, 1), (1, 1, 1, 2)], 4),
    "k = 1": ([(0, 3, -1, 0, 2)], 5),
    "fractions": ([(Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 4)),
                   (Fraction(1, 3), 0, Fraction(7, 2), Fraction(-1, 6))], 4),
}


def test_circuits_of_degenerate_spans_match_oracle():
    for name, (basis, n) in DEGENERATE_SPANS.items():
        got = as_sign_pairs(enumerate_circuits(basis, n))
        assert got == brute_circuit_set(basis, n), name
    rng = random.Random(4417)
    for i in range(60):
        basis, n = random_subspace(rng, max_n=6)
        # append a combination of the generators, a zero coordinate and a
        # scaled copy of the first coordinate
        combo = tuple(sum(rng.randint(-2, 2) * v[j] for v in basis)
                      for j in range(n))
        basis = [v + (0, 3 * v[0]) for v in basis + [combo]]
        got = as_sign_pairs(enumerate_circuits(basis, n + 2))
        assert got == brute_circuit_set(basis, n + 2), i


def test_circuits_of_larger_subspaces_match_oracle():
    for seed, n, k in ((11, 11, 5), (12, 12, 3), (13, 12, 4)):
        rng = random.Random(seed)
        basis = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(n)) for _ in range(k)]
        got = as_sign_pairs(enumerate_circuits(basis, n))
        assert got == brute_circuit_set(basis, n), (n, k)


def test_circuits_at_ground_cap():
    """Rank 8 in Q^16: every circuit comes with its negation on a distinct
    support, and a seeded sample passes the dense Fraction check (all of
    them would take the check about 20 s)."""
    rng = random.Random(16)
    n, k = 16, 8
    basis = [tuple(rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(n))
             for _ in range(k)]
    t0 = time.perf_counter()
    circuits = enumerate_circuits(basis, n)
    dt = time.perf_counter() - t0
    assert dt < 20.0, "took %.1fs" % dt
    pairs = as_sign_pairs(circuits)
    assert len(pairs) == len(circuits)
    assert all((q, p) in pairs for p, q in pairs)
    assert len({c.support for c in circuits}) == len(circuits) // 2
    assert all(len(c.support) <= n - k + 1 for c in circuits)
    for c in rng.sample(circuits, 300):
        assert is_circuit(basis, n, c.positive, c.negative), c


def test_circuit_sign_self_check(monkeypatch):
    # the walk reaches each support of this span twice in a row; every
    # second leaf gets its lowest index moved to the negative side, a sign
    # pattern that is neither the first one nor its negation
    import stratachain.matroid as matroid
    real = matroid._mask
    state = {"calls": 0, "moved": 0}

    def skewed(indices):
        m = real(indices)
        call = state["calls"] % 4
        state["calls"] += 1
        if call == 2:  # positive mask of every second leaf
            state["moved"] = m & -m
            return m ^ state["moved"]
        if call == 3:  # its negative mask takes the moved index
            return m | state["moved"]
        return m

    monkeypatch.setattr(matroid, "_mask", skewed)
    with pytest.raises(InternalCheckError):
        enumerate_circuits([(1, 1, 0, 0), (0, 0, 1, 1)], 4)


def test_min_encoding_equals_naive_full_scan():
    rng = random.Random(5230)
    for _ in range(40):
        basis, n = random_subspace(rng, max_n=7)
        circuits = enumerate_circuits(basis, n)
        pairs = circuit_pairs(circuits)
        assert _min_encoding(pairs, n) == naive_min_encoding(pairs, n)


def test_canonical_form_reorientation_invariance():
    rng = random.Random(90125)
    for _ in range(25):
        basis, n = random_subspace(rng, max_n=7)
        circuits = enumerate_circuits(basis, n)
        base = canonical_reorientation_class(circuits, n).canonical_form
        for _ in range(10):
            axes = [i for i in range(n) if rng.random() < 0.5]
            flipped = [c.flip(axes) for c in circuits]
            assert canonical_reorientation_class(
                flipped, n).canonical_form == base


def test_canonical_form_strings():
    circuits = enumerate_circuits([(1, 1)], 2)
    cls = canonical_reorientation_class(circuits, 2)
    # minimum over flips: flipping nothing gives masks (0, {0,1})
    assert cls.canonical_form == "n=2;circuits=[-0-1]"
    assert canonical_reorientation_class([], 0).canonical_form == \
        "n=0;circuits=[]"


def test_ground_cap():
    with pytest.raises(GroundCapError):
        canonical_reorientation_class([], 17)
    chain = assemble(Stratification(builtin_complex("wedge2spheres")))
    with pytest.raises(GroundCapError):
        top_cycle_matroid(chain, max_ground=1)


def test_top_cycle_matroid_on_corpus():
    chain = assemble(Stratification(builtin_complex("wedge2spheres")))
    ground, circuits, cls = top_cycle_matroid(chain)
    assert list(ground) == [0, 1]
    assert as_sign_pairs(circuits) == {
        (frozenset({0}), frozenset()), (frozenset(), frozenset({0})),
        (frozenset({1}), frozenset()), (frozenset(), frozenset({1}))}
    assert cls.canonical_form == "n=2;circuits=[-0,-1]"

    chain = assemble(Stratification(builtin_complex("sphere2")))
    ground, circuits, cls = top_cycle_matroid(chain)
    assert list(ground) == [0]
    assert len(circuits) == 2
    assert cls.canonical_form == "n=1;circuits=[-0]"

    chain = assemble(Stratification(builtin_complex("klein8")))
    ground, circuits, cls = top_cycle_matroid(chain)
    assert list(ground) == []
    assert circuits == []
    assert cls.canonical_form == "n=0;circuits=[]"

    chain = assemble(Stratification(builtin_complex("theta")))
    ground, circuits, cls = top_cycle_matroid(chain)
    assert list(ground) == [0, 1, 2]
    # cycle space is 2-dimensional: three circuit pairs, pairwise supports
    assert len(circuits) == 6


def test_empty_chain_matroid():
    from stratachain import SimplicialComplex
    chain = assemble(Stratification(SimplicialComplex([])))
    ground, circuits, cls = top_cycle_matroid(chain)
    assert ground == () and circuits == []
    assert cls.canonical_form == "n=0;circuits=[]"


def test_complex_matroid_matches_chain_route(corpus):
    for name, K in corpus.items():
        ground, circuits, cls = complex_matroid(K)
        chain = assemble(Stratification(K))
        ground2, circuits2, cls2 = top_cycle_matroid(chain)
        assert ground == ground2, name
        assert as_sign_pairs(circuits) == as_sign_pairs(circuits2), name
        assert cls.canonical_form == cls2.canonical_form, name


def test_complex_matroid_honours_ground_cap():
    with pytest.raises(GroundCapError):
        complex_matroid(builtin_complex("wedge2spheres"), max_ground=1)
