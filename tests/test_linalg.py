"""Tests for the exact sparse linear algebra core."""

import random

import pytest

from cychom.errors import CompositionNonzero
from cychom.linalg import (QQ, SparseMatrix, as_rational, homology_dimension,
                           image_basis, independent_modulo, kernel_basis,
                           rank, solve, solve_columns, vec_eq)


def dense(rows):
    return SparseMatrix.from_dense([[as_rational(x) for x in row] for row in rows])


def test_construction_accumulates_and_drops_zeros():
    m = SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, 5), (1, 1, -5)])
    assert m.entries() == [(0, 0, QQ(3))]
    assert m.nnz == 1


def test_construction_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])
    with pytest.raises(TypeError):
        SparseMatrix(2, 2, [(0, 0, 0.5)])


def test_rank_empty_identity_proportional():
    assert rank(SparseMatrix(0, 0)) == 0
    assert rank(SparseMatrix.identity(3)) == 3
    assert rank(dense([[1, 2], [2, 4]])) == 1


def test_kernel_basis_small_cases():
    assert len(kernel_basis(SparseMatrix.identity(2))) == 0
    assert kernel_basis(SparseMatrix.identity(2)).ambient == 2

    sub = kernel_basis(dense([[1, 1]]))
    assert len(sub) == 1
    v = sub.basis[0]
    # up to scale the kernel vector is (1, -1); the convention fixes it
    assert v == {1: QQ(1), 0: QQ(-1)} or v == {0: QQ(1), 1: QQ(-1)}

    assert len(kernel_basis(SparseMatrix.zeros(2, 3))) == 3


def test_image_basis_small_cases():
    assert len(image_basis(SparseMatrix.identity(2))) == 2
    assert len(image_basis(SparseMatrix.zeros(3, 3))) == 0
    sub = image_basis(dense([[1], [2]]))
    assert len(sub) == 1
    v = sub.basis[0]
    assert v[1] == 2 * v[0]


def test_independent_modulo_keeps_the_greedy_set():
    d_in = dense([[1, 1], [0, 0], [0, 0]])
    vectors = [{0: QQ(3)}, {1: QQ(2)}, {0: QQ(1), 1: QQ(1)}, {2: QQ(1)}]
    r, kept = independent_modulo(d_in, vectors)
    assert r == 1
    assert kept == (vectors[1], vectors[3])
    assert independent_modulo(d_in, []) == (1, ())


def test_solve_identity_and_underdetermined():
    x = solve(SparseMatrix.identity(2), {0: QQ(3), 1: QQ(5)})
    assert x == {0: QQ(3), 1: QQ(5)}
    # one equation, two unknowns: free variable set to zero
    x = solve(dense([[1, 1]]), {0: QQ(2)})
    assert x == {0: QQ(2)}


def test_solve_inconsistent():
    assert solve(dense([[1], [1]]), {0: QQ(1), 1: QQ(2)}) is None


def test_solve_columns_mixed_consistency():
    m = dense([[1, 0], [1, 0]])
    good, bad = solve_columns(m, [{0: QQ(2), 1: QQ(2)}, {0: QQ(1)}])
    assert good == {0: QQ(2)}
    assert bad is None


def test_solutions_verify_exactly():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = SparseMatrix(rows, cols,
                         ((r, c, rng.randint(-3, 3))
                          for r in range(rows) for c in range(cols)
                          if rng.random() < 0.6))
        target = {r: as_rational(rng.randint(-4, 4)) for r in range(rows)}
        # force consistency by using m applied to a random vector
        xin = {c: as_rational(rng.randint(-3, 3)) for c in range(cols)}
        v = m.apply(xin)
        x = solve(m, v)
        assert x is not None
        assert vec_eq(m.apply(x), v)
        del target


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = SparseMatrix(rows, cols,
                         ((r, c, rng.randint(-2, 2))
                          for r in range(rows) for c in range(cols)
                          if rng.random() < 0.5))
        assert rank(m) + len(kernel_basis(m)) == cols
        for v in kernel_basis(m).basis:
            assert m.apply(v) == {}


def test_matmul_add_transpose():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert (a @ b) == dense([[2, 1], [4, 3]])
    assert (a + b) == dense([[1, 3], [4, 4]])
    assert (a - a).is_zero()
    assert a.transpose() == dense([[1, 3], [2, 4]])


def test_from_blocks():
    i2 = SparseMatrix.identity(2)
    m = SparseMatrix.from_blocks([[i2, None], [None, i2.scale(3)]], [2, 2], [2, 2])
    assert m == dense([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    with pytest.raises(ValueError):
        SparseMatrix.from_blocks([[i2]], [3], [2])


def test_homology_dimension_examples():
    z1 = SparseMatrix.zeros(1, 1)
    assert homology_dimension(z1, z1) == 1
    assert homology_dimension(SparseMatrix.zeros(2, 2), SparseMatrix.identity(2)) == 0
    d_out = dense([[1, 1]])
    d_in = dense([[1], [-1]])
    assert homology_dimension(d_in, d_out) == 0


def test_homology_dimension_rejects_nonzero_composition():
    with pytest.raises(CompositionNonzero):
        homology_dimension(SparseMatrix.identity(2), SparseMatrix.identity(2))


def random_invertible(rng, n):
    while True:
        m = SparseMatrix(n, n, ((r, c, rng.randint(-3, 3))
                                for r in range(n) for c in range(n)))
        if rank(m) == n:
            return m


def test_homology_dimension_basis_independent():
    # conjugating both differentials by invertible matrices preserves the count
    rng = random.Random(3)
    for _ in range(10):
        n_top, n_mid, n_bot = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        d_in = SparseMatrix(n_mid, n_top,
                            ((r, c, rng.randint(-2, 2))
                             for r in range(n_mid) for c in range(n_top)
                             if rng.random() < 0.5))
        # build d_out with d_out . d_in = 0: take d_out's rows from the left
        # kernel of d_in, i.e. kernel of the transpose
        lker = kernel_basis(d_in.transpose()).basis
        picks = [lker[i] for i in range(len(lker)) if rng.random() < 0.7]
        d_out = SparseMatrix(n_bot, n_mid, ())
        if picks:
            d_out = SparseMatrix(len(picks), n_mid,
                                 ((i, c, v) for i, vec in enumerate(picks)
                                  for c, v in vec.items()))
        base = homology_dimension(d_in, d_out)
        s_mid = random_invertible(rng, n_mid)
        # change basis of the middle space (solve for the inverse action)
        s_inv_cols = solve_columns(s_mid, SparseMatrix.identity(n_mid).columns())
        s_inv = SparseMatrix.from_columns(n_mid, s_inv_cols)
        assert homology_dimension(s_mid @ d_in, d_out @ s_inv) == base


def test_determinism_repeated_runs():
    rng = random.Random(5)
    m = SparseMatrix(6, 9, ((r, c, rng.randint(-5, 5))
                            for r in range(6) for c in range(9)
                            if rng.random() < 0.5))
    k1 = kernel_basis(m)
    k2 = kernel_basis(m)
    assert k1 == k2
    v = m.apply({0: QQ(1), 3: QQ(-2)})
    assert solve(m, v) == solve(m, v)
