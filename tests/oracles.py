"""Independent brute-force homology oracles used by the test suite.

This module deliberately shares no code with the cychom package.  It computes
Hochschild homology dimensions from the standard complex C_n = A^{(n+1) tensor}
and cyclic homology dimensions from the cyclic quotient complex C_n / im(1 - t),
both by direct rank computations over exact rationals.  Dimensions frozen into
the test suite were produced by running this file as a script.

Algebras are plain data here: a pair (dim, mult) where mult maps a basis-index
pair (i, j) to a tuple of (k, Fraction) terms expressing e_i * e_j.
"""

from fractions import Fraction
from itertools import product

F = Fraction


def enc(word, dim):
    """Lexicographic index of a tensor word (first factor most significant)."""
    i = 0
    for a in word:
        i = i * dim + a
    return i


def _add(entries, row, col, val):
    if val:
        key = (row, col)
        cur = entries.get(key)
        if cur is None:
            entries[key] = val
        else:
            s = cur + val
            if s:
                entries[key] = s
            else:
                del entries[key]


def oracle_rank(n_rows, entries):
    """Rank of a sparse rational matrix given as {(row, col): value}.

    Row-dict Gaussian elimination, columns processed left to right, pivot row
    chosen with fewest stored entries (ties by lowest row index).
    """
    rows = {}
    cols_of = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
        cols_of.setdefault(c, set()).add(r)
    done = set()
    rank = 0
    for c in sorted(cols_of):
        live = [r for r in cols_of[c] if r not in done and c in rows[r]]
        if not live:
            continue
        live.sort(key=lambda r: (len(rows[r]), r))
        p = live[0]
        done.add(p)
        rank += 1
        if rank == n_rows:
            break
        prow = rows[p]
        pval = prow[c]
        for r in live[1:]:
            rrow = rows[r]
            f = rrow[c] / pval
            for cc, vv in prow.items():
                cur = rrow.get(cc)
                nv = (cur - f * vv) if cur is not None else -f * vv
                if nv:
                    rrow[cc] = nv
                    cols_of.setdefault(cc, set()).add(r)
                else:
                    if cur is not None:
                        del rrow[cc]
    return rank


def bar_boundary(dim, mult, n):
    """Standard Hochschild boundary d_n : A^{(n+1)} -> A^{(n)} as entry dict."""
    entries = {}
    for w in product(range(dim), repeat=n + 1):
        col = enc(w, dim)
        for i in range(n):
            sign = 1 if i % 2 == 0 else -1
            for k, cv in mult.get((w[i], w[i + 1]), ()):
                target = w[:i] + (k,) + w[i + 2:]
                _add(entries, enc(target, dim), col, sign * cv)
        sign = 1 if n % 2 == 0 else -1
        for k, cv in mult.get((w[n], w[0]), ()):
            target = (k,) + w[1:n]
            _add(entries, enc(target, dim), col, sign * cv)
    return entries


def one_minus_t(dim, n):
    """1 - t on A^{(n+1)} with t(a_0 x ... x a_n) = (-1)^n a_n x a_0 x ... ."""
    entries = {}
    sign = 1 if n % 2 == 0 else -1
    for w in product(range(dim), repeat=n + 1):
        col = enc(w, dim)
        _add(entries, col, col, F(1))
        shifted = (w[n],) + w[:n]
        _add(entries, enc(shifted, dim), col, F(-sign))
    return entries


def hh_oracle(dim, mult, n_max):
    """Hochschild homology dims in degrees 0..n_max from the standard complex."""
    ranks = [0]
    for n in range(1, n_max + 2):
        ranks.append(oracle_rank(dim ** n, bar_boundary(dim, mult, n)))
    return [dim ** (n + 1) - ranks[n] - ranks[n + 1] for n in range(n_max + 1)]


def hc_oracle(dim, mult, n_max):
    """Cyclic homology dims in degrees 0..n_max from the cyclic quotient complex.

    With S_n = im(1 - t_n) and b the standard boundary, the quotient complex
    homology dimension in degree n is
      dim C_n - rank[b_n | S_{n-1}] + rank S_{n-1} - rank[b_{n+1} | S_n],
    where [X | Y] denotes column concatenation.
    """
    rank_t = [oracle_rank(dim ** (n + 1), one_minus_t(dim, n))
              for n in range(n_max + 1)]
    rank_aug = [0]
    for n in range(1, n_max + 2):
        aug = dict(bar_boundary(dim, mult, n))
        if n >= 1:
            offset = dim ** (n + 1)
            for (r, c), v in one_minus_t(dim, n - 1).items():
                aug[(r, c + offset)] = v
        rank_aug.append(oracle_rank(dim ** n, aug))
    dims = []
    for n in range(n_max + 1):
        below = rank_t[n - 1] if n >= 1 else 0
        dims.append(dim ** (n + 1) - rank_aug[n] + below - rank_aug[n + 1])
    return dims


# Rational matrices as entry dicts {(row, col): Fraction}, zeros absent.

def mat_product(a, b):
    """The product a b, pair by pair of entries."""
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                _add(out, i, j, x * y)
    return out


def mat_sum(a, b):
    out = dict(a)
    for (r, c), v in b.items():
        _add(out, r, c, v)
    return out


def mat_neg(a):
    return {key: -v for key, v in a.items()}


def mat_kron(a, b, b_rows, b_cols):
    """The Kronecker product of a with b, a b_rows x b_cols matrix."""
    return {(r1 * b_rows + r2, c1 * b_cols + c2): x * y
            for (r1, c1), x in a.items() for (r2, c2), y in b.items()}


def mat_blocks(grid, row_dims, col_dims):
    """The block matrix of a grid of entry dicts (None = zero block)."""
    out = {}
    row_at = 0
    for row, height in zip(grid, row_dims):
        col_at = 0
        for block, width in zip(row, col_dims):
            for (r, c), v in (block or {}).items():
                out[(row_at + r, col_at + c)] = v
            col_at += width
        row_at += height
    return out


def times(mult, u, v):
    """The product of sparse vectors u and v, {index: Fraction}."""
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, c in mult.get((i, j), ()):
                out[k] = out.get(k, F(0)) + x * y * c
    return {k: v for k, v in out.items() if v}


def first_nonassociative(dim, mult):
    """The first triple (i, j, k) in lexicographic order with
    (e_i e_j) e_k != e_i (e_j e_k), or None."""
    for i, j, k in product(range(dim), repeat=3):
        ei, ej, ek = {i: F(1)}, {j: F(1)}, {k: F(1)}
        if times(mult, times(mult, ei, ej), ek) != \
                times(mult, ei, times(mult, ej, ek)):
            return (i, j, k)
    return None


def _coordinates(basis, v, dim):
    """The coefficients of v in basis, dim sparse vectors of Q^dim, or None
    when they are not a basis (Gauss-Jordan on dense rows)."""
    rows = [[b.get(i, F(0)) for b in basis] + [v.get(i, F(0))]
            for i in range(dim)]
    for k in range(dim):
        p = next((i for i in range(k, dim) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(dim):
            if i != k and (f := rows[i][k]):
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [row[dim] for row in rows]


def one_generator_hh(dim, mult, unit, x, n_max):
    """Hochschild homology dims in degrees 0..n_max of A = Q[x]/(f) from its
    2-periodic resolution, or None when 1, x, ..., x^{dim-1} do not span A.

    unit and x are sparse vectors.  With f monic of degree dim, A has the
    resolution A (x) A <- A (x) A <- ... over A (x) A with maps
    x (x) 1 - 1 (x) x and (f (x) 1 - 1 (x) f) / (x (x) 1 - 1 (x) x) in
    turn.  Tensored down it is A <- A <- A <- ... with maps 0, f'(x), 0,
    f'(x), ...  So HH_0 = A, and for n >= 1 HH_n is A / (f'(x)) in odd
    degrees and the annihilator of f'(x) in even ones, both of dimension
    dim - rank(f'(x) .).  Reference: Buenos Aires Cyclic Homology Group,
    "Cyclic homology of algebras with one generator", K-Theory 5 (1991).
    """
    powers = [unit]
    for _ in range(dim):
        powers.append(times(mult, x, powers[-1]))
    # f(x) = x^dim - sum c_k x^k
    c = _coordinates(powers[:dim], powers[dim], dim)
    if c is None:
        return None
    derivative = {i: dim * v for i, v in powers[dim - 1].items()}
    for k in range(1, dim):
        for i, v in powers[k - 1].items():
            derivative[i] = derivative.get(i, F(0)) - k * c[k] * v
    rank = oracle_rank(dim, {(i, j): v for j in range(dim)
                             for i, v in times(mult, derivative,
                                               {j: F(1)}).items()})
    return [dim] + [dim - rank] * n_max


# Fixture algebras as plain data.

def ground_field():
    return 1, {(0, 0): ((0, F(1)),)}


def dual_numbers():
    mult = {(0, 0): ((0, F(1)),), (0, 1): ((1, F(1)),),
            (1, 0): ((1, F(1)),), (1, 1): ()}
    return 2, mult


def cyclic_group_algebra(k):
    mult = {(i, j): (((i + j) % k, F(1)),) for i in range(k) for j in range(k)}
    return k, mult


def m2_rationals():
    # basis e_pq at index 2p + q; e_pq e_rs = delta_qr e_ps
    mult = {}
    for p, q, r, s in product(range(2), repeat=4):
        i, j = 2 * p + q, 2 * r + s
        mult[(i, j)] = (((2 * p + s, F(1)),) if q == r else ())
    return 2 * 2, mult


def hecke_convolution(table, k_elems):
    """The double-coset algebra of (G, K) by convolution over all of G.

    table is G's multiplication table as index rows, k_elems the elements
    of K.  The basis element of a double coset is its indicator over |K|,
    and the cosets are ordered by their least elements.  Each product is
    convolved as a function on G and read back on every element of every
    coset.  Returns (dim, mult, unit): mult in this module's format, unit
    the index of K's own coset.
    """
    order = len(table)
    k_size = len(set(k_elems))
    cosets = []
    for x in range(order):
        if not any(x in c for c in cosets):
            cosets.append(sorted({table[table[a][x]][b]
                                  for a in k_elems for b in k_elems}))
    assert sorted(x for c in cosets for x in c) == list(range(order))
    mult = {}
    for i, ci in enumerate(cosets):
        for j, cj in enumerate(cosets):
            conv = [F(0)] * order
            for x in ci:
                for y in cj:
                    conv[table[x][y]] += F(1, k_size * k_size)
            terms = []
            for d, cd in enumerate(cosets):
                values = {conv[z] * k_size for z in cd}
                assert len(values) == 1, "convolution not constant on a coset"
                value = values.pop()
                if value:
                    terms.append((d, value))
            mult[(i, j)] = tuple(terms)
    unit = next(d for d, c in enumerate(cosets) if k_elems[0] in c)
    return len(cosets), mult, unit


def main():
    jobs = [
        ("ground field", ground_field(), 5, 5),
        ("dual numbers", dual_numbers(), 5, 5),
        ("Z/2 group algebra", cyclic_group_algebra(2), 5, 5),
        ("Z/3 group algebra", cyclic_group_algebra(3), 4, 4),
        ("Z/4 group algebra", cyclic_group_algebra(4), 4, 3),
        ("M2(Q)", m2_rationals(), 4, 3),
    ]
    for name, (dim, mult), hh_n, hc_n in jobs:
        print(f"{name}: HH[0..{hh_n}] = {hh_oracle(dim, mult, hh_n)}")
        print(f"{name}: HC[0..{hc_n}] = {hc_oracle(dim, mult, hc_n)}")


if __name__ == "__main__":
    main()
