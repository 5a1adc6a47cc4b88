"""Tuple-based reference builders for the mixed-complex operators.

cychom.mixed computes target indices arithmetically and sums entries in
ints.  This module builds the same matrices the direct way: it walks every
tensor word as a tuple, slices it, re-indexes the result letter by letter
and lets the checked SparseMatrix constructor add up the Fraction entries.
The tests compare the two entry for entry.
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
    for (r, c), v in m.data.items():
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
