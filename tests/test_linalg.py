import random
from fractions import Fraction

from stratachain import RationalMatrix


def dense_rank_oracle(rows):
    """Plain Gaussian elimination over Fraction, no sparsity tricks."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def dense_apply(dense, vector):
    """Plain matrix-vector product of a list-of-rows matrix."""
    return [sum(a * x for a, x in zip(row, vector)) for row in dense]


def identity(n):
    return RationalMatrix.from_dense(
        [[int(i == j) for j in range(n)] for i in range(n)])


def test_construction_and_access():
    A = RationalMatrix.from_dense([[1, 2], [3, 4]])
    assert A.rows == 2 and A.cols == 2
    assert A.entry(1, 0) == 3
    assert A.entry(0, 1) == 2
    assert A.nnz() == 4
    assert not A.is_zero()
    assert A.is_integer()
    Z = RationalMatrix(3, 2)
    assert Z.is_zero() and Z.nnz() == 0


def test_identity_and_matmul():
    I = identity(3)
    A = RationalMatrix.from_dense([[1, 2, 3], [0, 1, 0], [5, 0, 1]])
    assert I.matmul(A) == A
    assert A.matmul(I) == A
    B = RationalMatrix.from_dense([[Fraction(1, 2)], [1], [0]])
    assert A.matmul(B).to_dense() == [[Fraction(5, 2)], [1], [Fraction(5, 2)]]


def test_transpose():
    A = RationalMatrix.from_dense([[1, 2, 3], [4, 5, 6]])
    assert A.transpose().to_dense() == [[1, 4], [2, 5], [3, 6]]


def test_rank_known_values():
    assert identity(4).rank() == 4
    assert RationalMatrix(5, 3).rank() == 0
    A = RationalMatrix.from_dense([[1, 2], [2, 4]])
    assert A.rank() == 1
    B = RationalMatrix.from_dense([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert B.rank() == 2


def test_rank_matches_dense_oracle_randomized():
    rng = random.Random(20260825)
    for _ in range(60):
        rows = rng.randint(0, 7)
        cols = rng.randint(1, 7)
        dense = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  if rng.random() < 0.5 else 0 for _ in range(cols)]
                 for _ in range(rows)]
        A = RationalMatrix.from_dense(dense)
        assert A.rank() == dense_rank_oracle(dense)


def test_kernel_basis_properties():
    rng = random.Random(977)
    for _ in range(40):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 6)
        dense = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0
                  for _ in range(cols)] for _ in range(rows)]
        A = (RationalMatrix.from_dense(dense) if rows
             else RationalMatrix(0, cols))
        basis = A.kernel_basis()
        assert len(basis) == cols - A.rank()
        for v in basis:
            assert len(v) == cols
            assert all(isinstance(x, int) for x in v)
            from math import gcd
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g == 1
            lead = next(x for x in v if x != 0)
            assert lead > 0
            assert all(x == 0 for x in dense_apply(dense, v))


def test_kernel_of_injective_map_is_empty():
    A = RationalMatrix.from_dense([[1, 0], [0, 1], [1, 1]])
    assert list(A.kernel_basis()) == []
