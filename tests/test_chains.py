import random
from itertools import combinations

from stratachain import (SimplicialComplex, Stratification, assemble,
                         builtin_complex, chain_group, cycles_to_simplicial,
                         simplicial_top_cycles_dim, top_cycle_matroid,
                         top_homology_dim)
from stratachain.corpus import solid_tetrahedron, torus9
from stratachain.simplicial import facets_of
from stratachain.stratify import facet_sign

from conftest import cone, freudenthal, random_complex, random_relabeling

EXPECTED_TOP_HOMOLOGY = {
    "sphere2": 1, "torus7": 1, "klein8": 0, "rp2_6": 0, "disk": 0,
    "moebius": 0, "book3": 0, "circle": 1, "wedge2spheres": 2, "theta": 2,
    "pinched_sphere": 1,
}


def test_boundary_composition_vanishes(corpus):
    for name, K in corpus.items():
        chain = assemble(Stratification(K))
        for k in range(1, len(chain.boundaries)):
            assert chain.boundaries[k - 1].matmul(chain.boundaries[k]).is_zero(), name


def test_corpus_top_homology_values(corpus):
    for name, K in corpus.items():
        chain = assemble(Stratification(K))
        assert top_homology_dim(chain) == EXPECTED_TOP_HOMOLOGY[name], name


def test_top_homology_matches_simplicial_oracle(corpus):
    for name, K in corpus.items():
        chain = assemble(Stratification(K))
        assert top_homology_dim(chain) == simplicial_top_cycles_dim(K), name


def test_book3_boundary_matrix():
    chain = assemble(Stratification(builtin_complex("book3")))
    assert list(chain.dims) == [2, 4, 3]
    # d(page_i) = spine - arc_i, spine is stratum 0 (contains the least cell)
    assert chain.boundaries[1].to_dense() == [
        [1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    assert top_homology_dim(chain) == 0


def test_disk_boundary_matrix():
    chain = assemble(Stratification(builtin_complex("disk")))
    assert list(chain.dims) == [0, 1, 1]
    assert chain.boundaries[1].to_dense() == [[1]]


def test_solid_tetrahedron_chain():
    chain = assemble(Stratification(solid_tetrahedron()))
    assert list(chain.dims) == [0, 0, 1, 1]
    assert chain.boundaries[2].to_dense() == [[-1]]
    assert top_homology_dim(chain) == 0


def test_nonorientable_strata_contribute_zero_columns():
    for name in ("klein8", "rp2_6", "moebius"):
        chain = assemble(Stratification(builtin_complex(name)))
        assert chain.dims[-1] == 0
        assert top_homology_dim(chain) == 0


def test_cycle_basis_vectors_are_cycles(corpus):
    for name, K in corpus.items():
        strat = Stratification(K)
        chain = assemble(strat)
        if chain.boundaries:
            top = chain.boundaries[-1].to_dense()
            for vec in chain.cycle_basis:
                assert all(sum(a * x for a, x in zip(row, vec)) == 0
                           for row in top), name


def test_cycles_expand_to_simplicial_cycles(corpus):
    for name, K in corpus.items():
        strat = Stratification(K)
        chain = assemble(strat)
        d = strat.dimension
        for sim in cycles_to_simplicial(strat, chain):
            assert sim, name
            net = {}
            for cell, w in sim.items():
                assert len(cell) - 1 == d
                for f in facets_of(cell):
                    net[f] = net.get(f, 0) + w * facet_sign(cell, f)
            assert all(v == 0 for v in net.values()), name


def test_top_cycles_are_stratum_combinations(corpus):
    # every simplicial expansion is constant on each top stratum
    for name, K in corpus.items():
        strat = Stratification(K)
        chain = assemble(strat)
        d = strat.dimension
        for sim in cycles_to_simplicial(strat, chain):
            for s in strat.level_strata(d):
                vals = {sim.get(c, 0) * s.generator[c] for c in s.cells} \
                    if s.orientable else {sim.get(c, 0) for c in s.cells}
                assert len(vals) == 1, name


def test_random_complexes_match_oracle():
    rng = random.Random(424242)
    for _ in range(30):
        K = random_complex(rng)
        chain = assemble(Stratification(K))
        assert top_homology_dim(chain) == simplicial_top_cycles_dim(K)


def test_dimension3_chain_homology_and_relabeling():
    """Freudenthal blocks, cones over surfaces and 3-spheres: the chain
    identity holds, top homology equals the simplicial oracle and the
    value known by construction, and random vertex relabelings keep top
    homology and the matroid canonical form."""
    sphere3 = list(combinations(range(5), 4))
    wedge = sphere3 + [tuple(v + 4 for v in t) for t in sphere3]
    inputs = [(freudenthal(1), 0), (freudenthal(2), 0),
              (freudenthal(3, periodic=True), 1), (cone(torus9()), 0),
              (cone(builtin_complex("klein8")), 0),
              (cone(builtin_complex("sphere2")), 0),
              (SimplicialComplex(sphere3), 1), (SimplicialComplex(wedge), 2)]
    rng = random.Random(33)
    for i, (K, top) in enumerate(inputs):
        chain = assemble(Stratification(K))
        assert chain.dimension == 3, i
        for k in range(1, len(chain.boundaries)):
            assert chain.boundaries[k - 1].matmul(
                chain.boundaries[k]).is_zero(), i
        assert top_homology_dim(chain) == simplicial_top_cycles_dim(K) == top, i
        form = top_cycle_matroid(chain)[2].canonical_form
        for _ in range(5):
            L = K.relabel(random_relabeling(rng, K))
            relabeled = assemble(Stratification(L))
            assert top_homology_dim(relabeled) == top, i
            assert top_cycle_matroid(relabeled)[2].canonical_form == form, i


def test_chain_group_matches_assembled_axes(corpus):
    for name, K in corpus.items():
        strat = Stratification(K)
        chain = assemble(strat)
        for k in range(strat.dimension + 1):
            space = chain_group(strat, k)
            assert space.dim == chain.dims[k], name
            assert space.axis_labels == chain.axes[k], name
        assert chain_group(K, strat.dimension + 1).dim == 0
        assert chain_group(strat, -1).axis_labels == ()


def test_chain_group_values():
    # the book with three pages: axes at level 1 are its four edge strata
    space = chain_group(builtin_complex("book3"), 1)
    assert (space.dim, space.axis_labels) == (4, (0, 1, 2, 3))
    # a non-orientable top stratum contributes no axis
    assert chain_group(builtin_complex("klein8"), 2).dim == 0
