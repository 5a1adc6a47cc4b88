"""Tuple-based reference builders for the mixed-complex operators.

cychom.mixed computes target indices arithmetically and sums entries in
ints.  This module builds the same matrices the direct way: it walks every
tensor word as a tuple, slices it, re-indexes the result letter by letter
and lets the checked SparseMatrix constructor add up the Fraction entries.
mixed_differentials assembles Omega(A) from b, b', lambda and N;
normalized_differentials builds the normalized complex of a unital A.  The
tests compare cychom.mixed with both entry for entry.
"""

from itertools import product

from cychom.linalg import ONE, SparseMatrix


def word_to_index(word, dim):
    """Lexicographic index of a tensor word (first factor most significant)."""
    i = 0
    for a in word:
        i = i * dim + a
    return i


def _face_sum(a, n, wrap):
    d = a.dim
    if n == 1:
        return SparseMatrix(0, d)

    def gen():
        for w in product(range(d), repeat=n):
            col = word_to_index(w, d)
            for i in range(1, n):
                for k, c in a.product(w[i - 1], w[i]).items():
                    target = w[:i - 1] + (k,) + w[i + 1:]
                    yield word_to_index(target, d), col, c if i % 2 else -c
            if wrap:
                for k, c in a.product(w[n - 1], w[0]).items():
                    target = (k,) + w[1:n - 1]
                    yield (word_to_index(target, d), col,
                           c if (n - 1) % 2 == 0 else -c)

    return SparseMatrix(d ** (n - 1), d ** n, gen())


def hochschild_b(a, n):
    return _face_sum(a, n, wrap=True)


def bar_bprime(a, n):
    return _face_sum(a, n, wrap=False)


def _rotations(a, n):
    """(row, col, sign) of lambda: the last letter of each word to the front."""
    d = a.dim
    sign = ONE if (n - 1) % 2 == 0 else -ONE
    for w in product(range(d), repeat=n):
        target = (w[n - 1],) + w[:n - 1]
        yield word_to_index(target, d), word_to_index(w, d), sign


def cyclic_lambda(a, n):
    return SparseMatrix(a.dim ** n, a.dim ** n, _rotations(a, n))


def norm_N(a, n):
    d = a.dim
    base_sign = 1 if (n - 1) % 2 == 0 else -1

    def gen():
        for w in product(range(d), repeat=n):
            col = word_to_index(w, d)
            cur = w
            s = 1
            for _ in range(n):
                yield word_to_index(cur, d), col, ONE if s == 1 else -ONE
                cur = (cur[-1],) + cur[:-1]
                s *= base_sign

    return SparseMatrix(d ** n, d ** n, gen())


def _shifted(m, row_off, col_off, sign=1):
    for r, c, v in m.entries():
        yield row_off + r, col_off + c, v if sign == 1 else -v


def mixed_differentials(a, n_max):
    """(b_tilde, B_tilde) as dicts by degree, assembled entry by entry
    through the checked constructor from this module's operators."""
    d = a.dim
    b_tilde, B_tilde = {}, {}
    for n in range(1, n_max + 1):
        top, bottom = d ** (n + 1), d ** n
        entries = list(_shifted(hochschild_b(a, n + 1), 0, 0))
        entries += [(i, top + i, ONE) for i in range(bottom)]
        entries += [(r, top + c, -v) for r, c, v in _rotations(a, n)]
        rows = d ** n
        if n >= 2:
            entries += _shifted(bar_bprime(a, n), d ** n, top, sign=-1)
            rows += d ** (n - 1)
        b_tilde[n] = SparseMatrix(rows, top + bottom, entries)
    for n in range(0, n_max):
        cols = d ** (n + 1) + (d ** n if n >= 1 else 0)
        B_tilde[n] = SparseMatrix(
            d ** (n + 2) + d ** (n + 1), cols,
            _shifted(norm_N(a, n + 1), d ** (n + 2), 0))
    return b_tilde, B_tilde


def _bar_projection(a):
    """(letters, pi) for a unital a: the basis indices other than u, the
    first index where the unit 1 has a nonzero coordinate, and pi, which
    subtracts from a vector the multiple of 1 that clears coordinate u."""
    unit = a.unit
    u = min(unit)
    letters = tuple(k for k in range(a.dim) if k != u)

    def pi(vec):
        t = vec.get(u, 0) / unit[u]
        out = {k: vec.get(k, 0) - t * unit.get(k, 0) for k in letters}
        return {k: v for k, v in out.items() if v}

    return letters, pi


def normalized_differentials(a, n_max):
    """(b_tilde, B_tilde) of the normalized complex A (x) Abar^{(x) n} of a
    unital a, whatever its unit vector, as dicts by degree.

    A word is a tuple (a_0, a_1, .., a_n) of basis indices, its bar letters
    a_1 .. a_n drawn from the letters; b and B are applied to it by slicing
    and the results are indexed letter by letter.
    """
    d = a.dim
    letters, pi = _bar_projection(a)
    at = {k: j for j, k in enumerate(letters)}

    def index(word):
        return word[0] * len(letters) ** (len(word) - 1) + \
            word_to_index([at[k] for k in word[1:]], len(letters))

    def words(n):
        return product(range(d), *[letters] * n)

    def b(n):
        for w in words(n):
            col = index(w)
            for k, c in a.product(w[0], w[1]).items():
                yield index((k,) + w[2:]), col, c
            for i in range(1, n):
                for k, c in pi(a.product(w[i], w[i + 1])).items():
                    yield (index(w[:i] + (k,) + w[i + 2:]), col,
                           c if i % 2 == 0 else -c)
            for k, c in a.product(w[n], w[0]).items():
                yield index((k,) + w[1:n]), col, c if n % 2 == 0 else -c

    def B(n):
        for w in words(n):
            col = index(w)
            for j, p in pi({w[0]: ONE}).items():
                bar = (j,) + w[1:]
                for i in range(n + 1):
                    rotated = bar[i:] + bar[:i]
                    for k, c in a.unit.items():
                        v = c * p
                        yield (index((k,) + rotated), col,
                               v if n * i % 2 == 0 else -v)

    def cells(n):
        return d * len(letters) ** n

    b_tilde = {n: SparseMatrix(cells(n - 1), cells(n), b(n))
               for n in range(1, n_max + 1)}
    B_tilde = {n: SparseMatrix(cells(n + 1), cells(n), B(n))
               for n in range(n_max)}
    return b_tilde, B_tilde
