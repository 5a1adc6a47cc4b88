"""Tests for the exact sparse linear algebra core."""

import random
from math import gcd, lcm
from pathlib import Path

import pytest

import oracles
from conftest import (assemble, assert_canonical, basis_variants,
                      rational_store)
from cychom import cli, homology, linalg
from cychom.homology import total_rank_split
from cychom.linalg import (QQ, SparseMatrix, as_rational, image_basis,
                           independent_modulo, invert, kernel_basis,
                           pivot_columns, rank, solve, solve_columns)
from cychom.mixed import build_mixed_complex

DATA = Path(__file__).resolve().parent.parent / "data"


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
    assert kernel_basis(SparseMatrix.identity(2)) == ()

    sub = kernel_basis(dense([[1, 1]]))
    assert len(sub) == 1
    v = sub[0]
    # up to scale the kernel vector is (1, -1); the convention fixes it
    assert v == {1: QQ(1), 0: QQ(-1)} or v == {0: QQ(1), 1: QQ(-1)}

    assert len(kernel_basis(SparseMatrix(2, 3))) == 3


def test_image_basis_small_cases():
    assert len(image_basis(SparseMatrix.identity(2))) == 2
    assert len(image_basis(SparseMatrix(3, 3))) == 0
    sub = image_basis(dense([[1], [2]]))
    assert len(sub) == 1
    v = sub[0]
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
        # force consistency by using m applied to a random vector
        xin = {c: as_rational(rng.randint(-3, 3)) for c in range(cols)}
        v = m.apply(xin)
        x = solve(m, v)
        assert x is not None
        assert m.apply(x) == v


def test_invert_is_a_two_sided_inverse_or_none():
    # invert trusts solve_columns; the product is never re-checked inside
    rng = random.Random(20261019)
    outcomes = {"invertible": 0, "singular": 0}
    for _ in range(120):
        n = rng.randint(1, 6)
        entries = {(r, c): QQ(rng.randint(-4, 4), rng.choice((1, 2, 3, 8)))
                   for r in range(n) for c in range(n) if rng.random() < 0.7}
        entries = {key: v for key, v in entries.items() if v}
        if n > 1 and rng.random() < 0.3:
            # the last row a rational combination of earlier rows
            f, g = QQ(rng.randint(-3, 3), 2), QQ(rng.randint(-3, 3))
            for c in range(n):
                v = (f * entries.get((0, c), 0)
                     + g * entries.get((min(1, n - 2), c), 0))
                entries.pop((n - 1, c), None)
                if v:
                    entries[(n - 1, c)] = v
        m = SparseMatrix(n, n, ((r, c, v) for (r, c), v in entries.items()))
        inv = invert(m)
        full = oracles.oracle_rank(n, entries) == n
        assert (inv is not None) == full
        if full:
            assert m @ inv == SparseMatrix.identity(n)
            assert inv @ m == SparseMatrix.identity(n)
        outcomes["invertible" if full else "singular"] += 1
    assert outcomes["invertible"] >= 40 and outcomes["singular"] >= 30


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = SparseMatrix(rows, cols,
                         ((r, c, rng.randint(-2, 2))
                          for r in range(rows) for c in range(cols)
                          if rng.random() < 0.5))
        assert rank(m) + len(kernel_basis(m)) == cols
        for v in kernel_basis(m):
            assert m.apply(v) == {}


def test_matmul_add_transpose():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert (a @ b) == dense([[2, 1], [4, 3]])
    assert (a + b) == dense([[1, 3], [4, 4]])
    assert not (a + dense([[-1, -2], [-3, -4]])).data


def naive_product(a, b):
    """a @ b by the Fraction triple loop over dense rows and columns."""
    left, right = rational_store(a), rational_store(b)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = QQ(0)
            for k in range(a.cols):
                s += left.get((i, k), QQ(0)) * right.get((k, j), QQ(0))
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
        assert_canonical(got)


def _random_blocks(rng, den):
    """Blocks of random shapes, some slots absent and some blocks empty,
    with entries over den."""
    row_dims = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
    col_dims = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
    blocks = {}
    for bi, rows in enumerate(row_dims):
        for bj, cols in enumerate(col_dims):
            if rng.random() < 0.3:
                continue
            fill = 0 if rng.random() < 0.2 else 0.6
            blocks[bi, bj] = SparseMatrix(rows, cols, (
                (r, c, QQ(rng.randint(-4, 4), den))
                for r in range(rows) for c in range(cols)
                if rng.random() < fill))
    return blocks, row_dims, col_dims


@pytest.mark.parametrize("den", [1, 2, 6])
def test_block_view_is_the_assembled_matrix(den):
    rng = random.Random(den)
    for _ in range(40):
        blocks, row_dims, col_dims = _random_blocks(rng, den)
        total = sum(row_dims)
        some = rng.sample(range(total), rng.randint(0, total))
        whole = rational_store(assemble(blocks, row_dims, col_dims))
        for dropped in ([], some, some + some[:2], list(range(total))):
            want = assemble(blocks, row_dims, col_dims, dropped)
            ranked = linalg.BlockMatrix(blocks, row_dims, col_dims, dropped)
            assert ranked.shape == want.shape
            assert pivot_columns(ranked) == pivot_columns(want)
            assert rank(ranked) == rank(want)
            assert kernel_basis(ranked) == kernel_basis(want)
            # data keeps the rows' indices in the whole block matrix, over
            # the lcm of the blocks' denominators, left as it is
            view = linalg.BlockMatrix(blocks, row_dims, col_dims, dropped)
            assert view.den == lcm(*[b.den for b in blocks.values()])
            assert all(type(v) is int and v for v in view.data.values())
            assert {k: QQ(v, view.den) for k, v in view.data.items()} == \
                {k: v for k, v in whole.items() if k[0] not in dropped}


@pytest.mark.parametrize("blocks, dropped, message", [
    ({(2, 0): SparseMatrix.identity(2)}, (), "block slot out of range"),
    ({(0, -1): SparseMatrix.identity(2)}, (), "block slot out of range"),
    ({(0, 0): SparseMatrix.identity(3)}, (), "block shape mismatch"),
    ({(0, 0): SparseMatrix.identity(2)}, (0, 4), "dropped row out of range"),
    ({(0, 0): SparseMatrix.identity(2)}, (-1,), "dropped row out of range"),
])
def test_block_view_checks_as_from_blocks_does(blocks, dropped, message):
    dims = [2, 2], [2]
    # the view checks its slots, shapes and dropped rows when it is built,
    # so no shape is read before
    with pytest.raises(ValueError, match=message):
        linalg.BlockMatrix(blocks, *dims, dropped)


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
    """Reference: the column-wise rule _echelon used before it inserted
    rows (columns left to right, pivot row with the fewest stored entries,
    ties by lowest row index), in rational arithmetic.  Any echelon form
    has the same pivot columns, and back substitution from it gives the
    same vectors, so callers get from it what they get from _echelon."""
    # data and den, which a view has too: solve_columns passes
    # [m | vectors] as a linalg.BlockMatrix
    rows = {}
    col_rows = {}
    for (r, c), v in m.data.items():
        v = QQ(v, m.den)
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
        aug = assemble(
            {(0, 0): m, (0, 1): SparseMatrix.from_columns(m.rows, rhs)},
            [m.rows], [m.cols, len(rhs)])
        pivots, rows = linalg._echelon(aug, rhs_cols=len(rhs))
        ref_pivots, _ = fraction_echelon(aug, rhs_cols=len(rhs))
        pivot_cols = [c for _, c in pivots]
        assert pivot_cols == [c for _, c in ref_pivots]
        # what callers rely on: distinct increasing pivot columns, coprime
        # int rows, each pivot row led by its pivot column, no non-pivot row
        # left of the right-hand sides, and every row in the row space of aug
        assert pivot_cols == sorted(set(pivot_cols))
        pivot_of = dict(pivots)
        store = rational_store(aug)
        aug_rank = oracles.oracle_rank(aug.rows, store)
        for r, row in rows.items():
            assert all(type(v) is int for v in row.values())
            if r in pivot_of:
                assert min(row) == pivot_of[r]
            else:
                assert all(c >= m.cols for c in row)
            if row:
                assert gcd(*row.values()) == 1
                appended = dict(store)
                appended.update(((aug.rows, c), QQ(v)) for c, v in row.items())
                assert oracles.oracle_rank(aug.rows + 1, appended) == aug_rank
        negative_pivots += sum(1 for r, c in pivots if rows[r][c] < 0)

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
                assert m.apply(sol) == v
        assert got[2][0] is not None
        assert rank(m) == oracles.oracle_rank(m.rows, rational_store(m))
    assert outcomes["inconsistent"] >= 50 and outcomes["consistent"] >= 250
    assert negative_pivots >= 100


def test_insertion_order_keeps_fill_down():
    # D_5 of C(Q[Z/4]) in the rational basis, reduced as hh -d4 ranks it:
    # 268x1092 with 5,758 nonzeros.  The column-wise rule stored 20,380
    # entries after elimination, insertion by descending row index stores
    # 24,531, and insertion by row length 58,728; the bound sits between.
    a = cli.parse_algebra_file(DATA / "algebras" / "cyclic4.json")
    mc = build_mixed_complex(basis_variants(a, 0)[2], 5)
    dependent = ()
    for n in range(1, 5):
        dependent = total_rank_split(mc, n, dependent)[1]
    blocks = homology._total_blocks(mc, 5)
    d5 = assemble(*blocks, dependent)
    assert (d5.shape, d5.nnz) == ((268, 1092), 5758)
    _, rows = linalg._echelon(linalg.BlockMatrix(*blocks, dependent))
    assert sum(len(row) for row in rows.values()) <= 30_000


def test_results_are_rationals_not_ints_or_floats():
    def all_qq(vectors):
        return all(type(x) is QQ for vec in vectors for x in vec.values())

    x = solve(SparseMatrix.identity(3), {0: QQ(2)})
    assert x == {0: QQ(2)} and all_qq([x])
    m = dense([[2, 4, 0], [1, 3, 1], [3, 7, 1]])
    assert all_qq(kernel_basis(m))
    assert all_qq(image_basis(m))
    assert all_qq([solve(m, {0: QQ(2), 1: QQ(1), 2: QQ(3)})])
    assert all_qq(c for c in solve_columns(m, [{0: QQ(2)}, {1: QQ(3)}])
                  if c is not None)
    inv = invert(dense([[2, 1], [1, 1]]))
    assert all(type(v) is QQ for _, _, v in inv.entries())
    assert all(type(v) is QQ for _, _, v in
               SparseMatrix(2, 2, [(0, 0, 3), (1, 1, "1/2")]).entries())
