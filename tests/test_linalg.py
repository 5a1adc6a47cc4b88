"""Tests for the exact sparse linear algebra core."""

import random

import pytest

import oracles
from cychom import linalg
from cychom.linalg import (QQ, SparseMatrix, as_rational, image_basis,
                           independent_modulo, invert, kernel_basis,
                           pivot_columns, rank, solve, solve_columns, vec_eq)


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

    assert len(kernel_basis(SparseMatrix(2, 3))) == 3


def test_image_basis_small_cases():
    assert len(image_basis(SparseMatrix.identity(2))) == 2
    assert len(image_basis(SparseMatrix(3, 3))) == 0
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


def naive_product(a, b):
    """a @ b by the Fraction triple loop over dense rows and columns."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = QQ(0)
            for k in range(a.cols):
                s += a.data.get((i, k), QQ(0)) * b.data.get((k, j), QQ(0))
            row.append(s)
        out.append(row)
    return SparseMatrix(a.rows, b.cols, ((i, j, v) for i, row in enumerate(out)
                                         for j, v in enumerate(row)))


def test_matmul_with_rational_entries_matches_triple_loop():
    # entry (0, 0) is (1/2)(1/3) + (-1/3)(1/2) = 0: it must not be stored
    a = dense([["1/2", "-1/3", 0], ["1/6", "1/2", "-5/6"]])
    b = dense([["1/3", 3], ["1/2", -1], [0, "2/3"]])
    product = a @ b
    assert product.entries() == [(0, 1, QQ(11, 6)), (1, 0, QQ(11, 36)),
                                 (1, 1, QQ(-5, 9))]
    assert product == naive_product(a, b)
    rng = random.Random(11)
    values = [0, 0, 1, -1, QQ(1, 2), QQ(-1, 3), QQ(5, 6), QQ(-7, 6), QQ(2, 3)]
    for _ in range(60):
        n, k, m = (rng.randint(0, 5) for _ in range(3))
        left = SparseMatrix(n, k, ((i, j, rng.choice(values))
                                   for i in range(n) for j in range(k)))
        right = SparseMatrix(k, m, ((i, j, rng.choice(values))
                                    for i in range(k) for j in range(m)))
        got = left @ right
        assert got.shape == (n, m)
        assert got == naive_product(left, right)
        assert all(type(v) is QQ and v for v in got.data.values())


def test_from_blocks():
    i2 = SparseMatrix.identity(2)
    m = SparseMatrix.from_blocks([[i2, None], [None, dense([[3, 0], [0, 3]])]],
                                 [2, 2], [2, 2])
    assert m == dense([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    with pytest.raises(ValueError):
        SparseMatrix.from_blocks([[i2]], [3], [2])


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


def fraction_echelon(m, rhs_cols=0):
    """Reference: the rational elimination _echelon ran before it became
    fraction-free; same pivot rule, rows held as reduced rationals."""
    rows = {}
    col_rows = {}
    for (r, c), v in m.data.items():
        rows.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
    pivot_limit = m.cols - rhs_cols
    done = set()
    pivots = []
    for c in sorted(col_rows):
        if c >= pivot_limit:
            break
        members = col_rows[c]
        live = [r for r in members if r not in done and c in rows[r]]
        if not live:
            continue
        best = min(live, key=lambda r: (len(rows[r]), r))
        done.add(best)
        pivots.append((best, c))
        prow = rows[best]
        pval = prow[c]
        for r in live:
            if r == best:
                continue
            rrow = rows[r]
            f = rrow[c] / pval
            for cc, vv in prow.items():
                cur = rrow.get(cc)
                nv = (cur - f * vv) if cur is not None else -f * vv
                if nv:
                    rrow[cc] = nv
                    if cc != c:
                        col_rows.setdefault(cc, set()).add(r)
                else:
                    if cur is not None:
                        del rrow[cc]
        if len(done) == m.rows:
            break
    return pivots, rows


# Hecke-style denominators (1/2, 1/3) next to integers of both signs
VALUES = [QQ(x) for x in (1, -1, 2, -2, 3, -3, 5, -7)] + \
    [QQ(1, 2), QQ(-1, 2), QQ(1, 3), QQ(-2, 3), QQ(3, 2), QQ(-5, 6)]


def random_rational_matrix(rng):
    """A small sparse matrix with zero rows and rescaled duplicate rows."""
    n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice((0.2, 0.4, 0.7))
    dense_rows = [[rng.choice(VALUES) if rng.random() < density else QQ(0)
                   for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(rng.randint(0, 2)):
        src, dst = rng.randrange(n_rows), rng.randrange(n_rows)
        factor = rng.choice(VALUES)
        dense_rows[dst] = [factor * x for x in dense_rows[src]]
    if rng.random() < 0.3:
        dense_rows[rng.randrange(n_rows)] = [QQ(0)] * n_cols
    return SparseMatrix.from_dense(dense_rows)


def right_hand_sides(rng, m):
    """One consistent rhs (m times a rational vector), one arbitrary rhs
    (usually inconsistent when m is rank deficient), and the zero rhs."""
    x = {c: rng.choice(VALUES) for c in range(m.cols) if rng.random() < 0.6}
    arbitrary = {r: rng.choice(VALUES) for r in range(m.rows)
                 if rng.random() < 0.6}
    return [m.apply(x), arbitrary, {}]


def test_fraction_free_elimination_matches_rational_reference(monkeypatch):
    rng = random.Random(20240601)
    cases = [random_rational_matrix(rng) for _ in range(250)]
    outcomes = {"consistent": 0, "inconsistent": 0}
    negative_pivots = 0
    for m in cases:
        rhs = right_hand_sides(rng, m)
        aug = SparseMatrix.hstack(
            [m, SparseMatrix.from_columns(m.rows, rhs)])
        pivots, rows = linalg._echelon(aug, rhs_cols=len(rhs))
        ref_pivots, ref_rows = fraction_echelon(aug, rhs_cols=len(rhs))
        assert pivots == ref_pivots
        assert rows.keys() == ref_rows.keys()
        for r, row in rows.items():
            ref = ref_rows[r]
            assert row.keys() == ref.keys()
            assert all(type(v) is int for v in row.values())
            if row:
                ratio = QQ(row[min(row)]) / ref[min(ref)]
                assert all(QQ(v) == ratio * ref[c] for c, v in row.items())
        negative_pivots += sum(1 for r, c in ref_pivots if ref_rows[r][c] < 0)

        got = (pivot_columns(m), kernel_basis(m), solve_columns(m, rhs))
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_echelon", fraction_echelon)
            want = (pivot_columns(m), kernel_basis(m), solve_columns(m, rhs))
        assert got == want
        for sol, v in zip(got[2], rhs):
            if sol is None:
                outcomes["inconsistent"] += 1
            else:
                outcomes["consistent"] += 1
                assert vec_eq(m.apply(sol), v)
        assert got[2][0] is not None
        assert rank(m) == oracles.oracle_rank(m.rows, dict(m.data))
    assert outcomes["inconsistent"] >= 50 and outcomes["consistent"] >= 250
    assert negative_pivots >= 100


def test_results_are_rationals_not_ints_or_floats():
    def all_qq(vectors):
        return all(type(x) is QQ for vec in vectors for x in vec.values())

    x = solve(SparseMatrix.identity(3), {0: QQ(2)})
    assert x == {0: QQ(2)} and all_qq([x])
    m = dense([[2, 4, 0], [1, 3, 1], [3, 7, 1]])
    assert all_qq(kernel_basis(m).basis)
    assert all_qq(image_basis(m).basis)
    assert all_qq([solve(m, {0: QQ(2), 1: QQ(1), 2: QQ(3)})])
    assert all_qq(c for c in solve_columns(m, [{0: QQ(2)}, {1: QQ(3)}])
                  if c is not None)
    inv = invert(dense([[2, 1], [1, 1]]))
    assert all(type(v) is QQ for _, _, v in inv.entries())
    assert all(type(v) is QQ for _, _, v in
               SparseMatrix(2, 2, [(0, 0, 3), (1, 1, "1/2")]).entries())
