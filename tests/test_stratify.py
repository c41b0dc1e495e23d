import random
from itertools import combinations

import pytest

from stratachain import (SimplicialComplex, Stratification,
                         UnsupportedDimensionError, build_filtration,
                         builtin_complex, extract_strata, manifold_cells,
                         orient_stratum, verify_certificate)
from stratachain.corpus import pinched_sphere, torus9
from stratachain.simplicial import faces_of
from stratachain.stratify import facet_sign

from conftest import cone, freudenthal
from oracles import is_sphere, manifold_cell_set


def tetra_boundary():
    return SimplicialComplex([c for c in faces_of((0, 1, 2, 3)) if len(c) == 3])


def test_facet_sign_alternates():
    assert facet_sign((0, 1, 2), (1, 2)) == 1
    assert facet_sign((0, 1, 2), (0, 2)) == -1
    assert facet_sign((0, 1, 2), (0, 1)) == 1


def test_is_sphere_by_dimension():
    def cells(*simplices):
        return SimplicialComplex(simplices).cell_set()

    assert is_sphere(cells(), -1)
    assert not is_sphere(cells((0,)), -1)

    assert is_sphere(cells((0,), (1,)), 0)
    assert not is_sphere(cells((0,)), 0)
    assert not is_sphere(cells((0, 1)), 0)

    assert is_sphere(cells((0, 1), (1, 2), (0, 2)), 1)
    assert not is_sphere(cells((0, 1), (1, 2)), 1)
    assert not is_sphere(cells((0, 1), (1, 2), (0, 2),
                               (3, 4), (4, 5), (3, 5)), 1)

    assert is_sphere(tetra_boundary().cell_set(), 2)
    assert not is_sphere(builtin_complex("torus7").cell_set(), 2)
    assert not is_sphere(builtin_complex("disk").cell_set(), 2)

    with pytest.raises(ValueError):
        is_sphere(tetra_boundary().cell_set(), 3)


def disjoint_union(A, B):
    shift = max(A.vertices()) + 1
    return SimplicialComplex(
        list(A.maximal_cells())
        + [tuple(v + shift for v in c) for c in B.maximal_cells()])


def random_complex3(rng):
    """Random complex of dimension <= 3.  Half of them start from three to
    five tetrahedra of a 4-simplex boundary, so vertex links are often
    2-spheres, before random simplices are added."""
    n = rng.randint(5, 8)
    facets = []
    if rng.random() < 0.5:
        tets = list(combinations(rng.sample(range(n), 5), 4))
        facets += rng.sample(tets, rng.randint(3, 5))
    facets += [rng.sample(range(n), rng.choice((1, 2, 3, 4)))
               for _ in range(rng.randint(1, 6))]
    return SimplicialComplex(facets)


def test_manifold_cells_match_sphere_recognizer():
    """manifold_cells equals the recursive sphere-recognizer oracle for
    every m from dim(K) to 3 on 3,000 seeded random complexes of dimension
    <= 3, on cones whose apex link is a sphere or another surface, a
    pinched or wedged surface, or a disconnected one (two spheres; a
    sphere and a torus, chi = 2), and on Freudenthal blocks."""
    sphere2 = builtin_complex("sphere2")
    fixed = [cone(S) for S in (sphere2, torus9(), builtin_complex("klein8"),
                               builtin_complex("rp2_6"), pinched_sphere(),
                               builtin_complex("wedge2spheres"),
                               disjoint_union(sphere2, sphere2),
                               disjoint_union(sphere2, torus9()))]
    fixed += [freudenthal(1), freudenthal(2), freudenthal(3, periodic=True)]
    rng = random.Random(20261017)
    complexes = fixed + [random_complex3(rng) for _ in range(3000)]
    sphere_links = {True: 0, False: 0}  # 2-dimensional vertex links seen
    for i, K in enumerate(complexes):
        cells = K.cell_set()
        for m in range(max(K.dimension, 0), 4):
            expected = manifold_cell_set(cells, m)
            assert set(manifold_cells(K, m)) == expected, (i, m)
            if m == 3:
                for v in K.cells(0):
                    sphere_links[v in expected] += 1
    assert sphere_links[True] > 2000 and sphere_links[False] > 2000


def test_manifold_cells_examples():
    book3 = builtin_complex("book3")
    assert set(manifold_cells(book3, 2)) == set(book3.cells(2))

    S = tetra_boundary()
    assert len(manifold_cells(S, 2)) == 14

    tri = SimplicialComplex([(0, 1, 2)])
    assert manifold_cells(tri, 2) == ((0, 1, 2),)


def test_build_filtration_examples():
    disk = builtin_complex("disk")
    F = build_filtration(disk)
    assert F.level(2) == disk
    assert F.level(1).cell_counts() == {0: 3, 1: 3}
    assert len(F.level(0)) == 0

    torus = builtin_complex("torus7")
    F = build_filtration(torus)
    assert len(F.level(1)) == 0 and len(F.level(0)) == 0

    book3 = builtin_complex("book3")
    F = build_filtration(book3)
    assert F.level(1).cell_counts() == {0: 5, 1: 7}
    assert F.level(0).cells(0) == ((0,), (1,))


def test_dimension_cap():
    four = SimplicialComplex([(0, 1, 2, 3, 4)])
    with pytest.raises(UnsupportedDimensionError):
        build_filtration(four)
    with pytest.raises(UnsupportedDimensionError):
        manifold_cells(four, 4)


def test_extract_strata_examples():
    disk = builtin_complex("disk")
    F = build_filtration(disk)
    ones = extract_strata(F, 1)
    assert len(ones) == 1
    assert set(ones[0].cells) == set(F.level(1).cells(1))
    assert extract_strata(F, 0) == []

    book3 = builtin_complex("book3")
    F = build_filtration(book3)
    assert len(extract_strata(F, 2)) == 3
    ones = extract_strata(F, 1)
    assert len(ones) == 4
    sizes = sorted(len(s.cells) for s in ones)
    assert sizes == [1, 2, 2, 2]


def test_stratum_ids_follow_smallest_cell():
    book3 = builtin_complex("book3")
    strat = Stratification(book3)
    for level in (1, 2):
        strata = strat.level_strata(level)
        assert [s.index for s in strata] == list(range(len(strata)))
        firsts = [min(s.cells) for s in strata]
        assert firsts == sorted(firsts)


def test_orientation_of_sphere_generator_closes():
    S = tetra_boundary()
    F = build_filtration(S)
    (s2,) = extract_strata(F, 2)
    assert s2.orientable
    # an oriented fundamental cycle: every interior edge cancels
    net = {}
    for cell, sg in s2.generator.items():
        for f, fs in zip([cell[1:], (cell[0], cell[2]), cell[:2]], [1, -1, 1]):
            net[f] = net.get(f, 0) + sg * fs
    assert all(v == 0 for v in net.values())


def test_orientation_root_choice_is_consistent():
    S = tetra_boundary()
    F = build_filtration(S)
    (s2,) = extract_strata(F, 2)
    cells = s2.cells
    for root in cells:
        orientable, gen, cert = orient_stratum(cells, F, 2, root=root)
        assert orientable and cert is None
        ratio = {gen[c] * s2.generator[c] for c in cells}
        assert ratio in ({1}, {-1})


def test_nonorientable_certificates_verify(corpus):
    for name in ("klein8", "rp2_6", "moebius"):
        strat = Stratification(corpus[name])
        (s2,) = strat.level_strata(2)
        assert not s2.orientable, name
        assert s2.generator is None
        assert verify_certificate(s2, strat.filtration), name


def test_certificate_odd_reversal_product(corpus):
    for name in ("klein8", "rp2_6", "moebius"):
        strat = Stratification(corpus[name])
        (s2,) = strat.level_strata(2)
        walk = s2.certificate
        prod = 1
        for a, f, b in walk:
            prod *= -facet_sign(a, f) * facet_sign(b, f)
        assert prod == -1, name
        # the walk is closed
        assert all(walk[i][2] == walk[(i + 1) % len(walk)][0]
                   for i in range(len(walk)))


def test_stratum_of_cell_covers_every_cell(corpus):
    for name, K in corpus.items():
        strat = Stratification(K)
        for cell in K.all_cells():
            level, idx = strat.stratum_of_cell(cell)
            s = strat.stratum(level, idx)
            if len(cell) - 1 == level:
                assert cell in s.cells
            else:
                assert len(cell) - 1 < level


def test_counts_match_level_strata(corpus):
    for K in corpus.values():
        strat = Stratification(K)
        for level, n in strat.counts().items():
            assert len(strat.level_strata(level)) == n
