import json

import pytest

from stratachain import ComplexError, SimplicialComplex, normalize_cell
from stratachain.simplicial import faces_of, facets_of


def test_normalize_cell_sorts_and_validates():
    assert normalize_cell([2, 0, 1]) == (0, 1, 2)
    assert normalize_cell((5,)) == (5,)
    with pytest.raises(ComplexError):
        normalize_cell([1, 1])
    with pytest.raises(ComplexError):
        normalize_cell([-1, 0])
    with pytest.raises(ComplexError):
        normalize_cell([])


def test_faces_and_facets():
    assert set(faces_of((0, 1, 2))) == {
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    assert facets_of((0, 1, 2)) == [(1, 2), (0, 2), (0, 1)]
    assert facets_of((3,)) == []


def test_face_closure_of_one_triangle():
    K = SimplicialComplex([(0, 1, 2)])
    assert len(K) == 7
    assert K.dimension == 2
    assert K.cell_counts() == {0: 3, 1: 3, 2: 1}
    assert K.maximal_cells() == ((0, 1, 2),)


def test_empty_complex():
    K = SimplicialComplex([])
    assert K.dimension == -1
    assert len(K) == 0
    assert K.euler_characteristic() == 0


def test_vertices_need_not_be_contiguous():
    K = SimplicialComplex([(2, 9), (40,)])
    assert K.vertices() == (2, 9, 40)
    assert K.n_cells(1) == 1


def test_from_closed_cells_verifies_closure():
    cells = [(0,), (1,), (0, 1)]
    K = SimplicialComplex.from_closed_cells(cells)
    assert len(K) == 3
    with pytest.raises(ComplexError):
        SimplicialComplex.from_closed_cells([(0, 1)])


def test_euler_characteristic_examples():
    tetra_boundary = SimplicialComplex(
        [c for c in faces_of((0, 1, 2, 3)) if len(c) == 3])
    assert tetra_boundary.euler_characteristic() == 2
    cycle = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    assert cycle.euler_characteristic() == 0
    point = SimplicialComplex([(0,)])
    assert point.euler_characteristic() == 1


def test_boundary_matrix_composition_is_zero():
    tetra = SimplicialComplex([(0, 1, 2, 3)])
    for k in range(1, 4):
        prod = tetra.boundary_matrix(k - 1).matmul(tetra.boundary_matrix(k))
        assert prod.is_zero()


def test_boundary_matrix_signs():
    K = SimplicialComplex([(0, 1, 2)])
    b2 = K.boundary_matrix(2)
    # rows (0,1),(0,2),(1,2); column (0,1,2): d[012] = [12] - [02] + [01]
    assert b2.to_dense() == [[1], [-1], [1]]
    b0 = K.boundary_matrix(0)
    assert b0.rows == 0 and b0.cols == 3


def test_relabel_round_trip():
    K = SimplicialComplex([(0, 1, 2), (2, 3)], name="ex")
    mapping = {0: 10, 1: 7, 2: 0, 3: 99}
    L = K.relabel(mapping)
    assert L.has_cell((0, 7, 10))
    back = L.relabel({v: k for k, v in mapping.items()})
    assert back == K
    with pytest.raises(ComplexError):
        K.relabel({0: 5, 1: 5, 2: 6, 3: 7})


def test_subdivide_triangle_counts():
    K = SimplicialComplex([(0, 1, 2)])
    S = K.subdivide()
    assert S.cell_counts() == {0: 6, 1: 9, 2: 4}
    assert S.euler_characteristic() == K.euler_characteristic()


def test_subdivide_preserves_euler_characteristic(corpus):
    for name, K in corpus.items():
        if K.dimension <= 2:
            assert K.subdivide().euler_characteristic() == \
                K.euler_characteristic(), name


def test_json_round_trip(corpus):
    for K in corpus.values():
        L = SimplicialComplex.from_json(K.to_json())
        assert L == K
    doc = json.loads(corpus["torus7"].to_json())
    assert set(doc) == {"maximal_simplices", "name"}


def test_parse_examples():
    K = SimplicialComplex.from_json('{"maximal_simplices": [[0,1,2]]}')
    assert len(K) == 7
    K = SimplicialComplex.from_json('{"maximal_simplices": []}')
    assert K.dimension == -1
    K = SimplicialComplex.from_json('{"maximal_simplices": [[0,1],[1,2],[0,2]]}')
    assert len(K) == 6
    with pytest.raises(ComplexError):
        SimplicialComplex.from_json("{")
    with pytest.raises(ComplexError):
        SimplicialComplex.from_json('{"maximal_simplices": [[0,0]]}')
    with pytest.raises(ComplexError):
        SimplicialComplex.from_json('[]')
