"""Ready-made example algebras used by the tests, demos, and data files.

Everything here is deterministic; the one randomized constructor takes an
explicit seed and applies an integer change of basis with determinant +-1,
so the result is a genuinely scrambled multiplication table whose homology
is known by construction.
"""

import random

from .algebra import Algebra, FiniteGroup, change_of_basis, group_algebra
from .linalg import QQ, SparseMatrix


def ground_field():
    """Q itself, one basis element acting as the unit."""
    return Algebra(1, {(0, 0): {0: 1}}, unit={0: 1}, basis_labels=("one",))


def dual_numbers():
    """Q[x] / (x^2): basis (1, x) with x * x = 0."""
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    return Algebra(2, table, unit={0: 1}, basis_labels=("one", "x"))


def polynomial_quotient(relation):
    """Q[x] / (x^d - r_{d-1} x^{d-1} - ... - r_0), relation = (r_0, ..., r_{d-1}).

    Basis 1, x, ..., x^{d-1}; the relation rewrites x^d back into the basis.
    """
    d = len(relation)
    rel = [QQ(r) for r in relation]
    # powers[m] = coordinates of x^m for m = 0..2d-2
    powers = [{m: QQ(1)} for m in range(d)]
    for m in range(d, 2 * d - 1):
        prev = powers[m - 1]
        nxt = {}
        for i, c in prev.items():
            if i + 1 < d:
                nxt[i + 1] = nxt.get(i + 1, QQ(0)) + c
            else:
                for t, r in enumerate(rel):
                    if r:
                        nxt[t] = nxt.get(t, QQ(0)) + c * r
        powers.append({i: c for i, c in nxt.items() if c})
    table = {}
    for i in range(d):
        for j in range(d):
            if powers[i + j]:
                table[(i, j)] = dict(powers[i + j])
    labels = tuple("one" if i == 0 else f"x^{i}" for i in range(d))
    return Algebra(d, table, unit={0: 1}, basis_labels=labels)


def cyclic_group_rationals(k):
    """The group algebra Q[Z/k]."""
    return group_algebra(FiniteGroup.cyclic(k))


def unimodular_scramble(a, seed, steps=12):
    """Apply a seeded integer change of basis with determinant +-1.

    The new multiplication table has the same homology as a's but no
    visible product structure; used to produce honest generic fixtures.
    """
    rng = random.Random(seed)
    d = a.dim
    rows = {i: {i: QQ(1)} for i in range(d)}
    for _ in range(steps):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = QQ(rng.choice([-2, -1, 1, 2]))
        for col, v in list(rows[j].items()):
            s = rows[i].get(col, QQ(0)) + c * v
            if s:
                rows[i][col] = s
            else:
                rows[i].pop(col, None)
    s = SparseMatrix(d, d, ((r, c, v) for r, row in rows.items()
                            for c, v in row.items()))
    return change_of_basis(a, s)


def scrambled_dim3(seed=20240811):
    """A dimension-3 unital algebra with a scrambled multiplication table.

    Built as Q[x]/(x^3 - c x^2) for a seeded nonzero c, then conjugated by
    a seeded unimodular matrix.  For c != 0 this algebra splits as
    Q[x]/(x^2) (+) Q, so its homology is known independently of the seed.
    """
    rng = random.Random(seed)
    c = rng.choice([1, 2, 3, -1, -2])
    base = polynomial_quotient((0, 0, c))
    return unimodular_scramble(base, seed + 1)
