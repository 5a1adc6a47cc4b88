"""Invariant de Rham Betti numbers of torus quotients T^k / W.

W is a finite group of integer matrices acting on H^1(T^k) = Q^k; the
invariant part of H^p = Lambda^p Q^k has dimension equal to the exact
character average (1/|W|) sum_w tr Lambda^p(w).  The traces are read off
characteristic polynomials, so the whole computation is integer
arithmetic.  Component lists model disjoint unions of such quotients;
their even/odd Betti totals are the quantities matched against periodic
homology.
"""

import warnings
from itertools import combinations, permutations
from math import comb, factorial

from .errors import SizeCapExceeded, ValidationError
from .linalg import QQ, SparseMatrix, rank

# enumerate_group refuses a closure larger than this; read at call time.
ORDER_CAP = 10080

# Work cap in integer multiply-adds: one characteristic polynomial of a
# rank-k matrix costs about k^4 of them, one group product k^3.  Measured
# (Python 3.11, shared 2-vCPU VM): 70-75 ns per unit for trivial W at ranks
# 40-80 (rank 80, 4.1e7 units: 3.0 s), 210-260 ns for the character average
# of a large W at small rank (S_7 on rank 7, 1.2e7 units: 3.2 s) and 200 ns
# for the closure of S_7 from 100 generators (1.7e8 units: 35 s), and
# 80-150 ns for the projector cross-check (S_6 on rank 6, 1.75e8 units:
# 14 s; S_5 on rank 5, 2.3e6 units: 0.33 s), so an accepted component
# takes at most about 5 s.  Read at call time.
WORK_CAP = 2 * 10**7


def _refuse_costly(c, work, what):
    """SizeCapExceeded when work exceeds WORK_CAP.  The message names no
    number taken from the input, which may be too long to print."""
    if work > WORK_CAP:
        raise SizeCapExceeded(
            f"component {c.label!r}: {what} exceeds the orbifold work cap "
            f"{WORK_CAP}")


class TorusComponent:
    """A torus T^rank together with integer matrix generators of W."""

    __slots__ = ("rank", "generators", "label")

    def __init__(self, rank, generators, label=""):
        if rank < 1:
            raise ValidationError("component rank must be at least 1")
        gens = []
        for g in generators:
            rows = tuple(tuple(x for x in row) for row in g)
            if len(rows) != rank or any(len(row) != rank for row in rows):
                raise ValidationError(
                    f"generator is not a {rank}x{rank} matrix")
            if any(not isinstance(x, int) or isinstance(x, bool)
                   for row in rows for x in row):
                raise ValidationError("generator entries must be integers")
            gens.append(rows)
        self.rank = rank
        self.generators = tuple(gens)
        self.label = label


def _identity(k):
    return tuple(tuple(1 if i == j else 0 for j in range(k))
                 for i in range(k))


def _mat_mul(a, b):
    k = len(a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k))
                       for j in range(k)) for i in range(k))


def _charpoly(w):
    """Coefficients (c_0, ..., c_k) of det(tI - w), c_p at power t^(k-p).

    Computed by the trace recursion M_1 = w, c_p = -tr(M_p)/p,
    M_{p+1} = w (M_p + c_p I).  Every M_p of an integer matrix is an integer
    matrix, so the recursion runs in ints.
    """
    k = len(w)
    coeffs = [1]
    m = w
    for p in range(1, k + 1):
        # exact: c_p is a coefficient of det(tI - w), an integer polynomial
        c = -sum(m[i][i] for i in range(k)) // p
        coeffs.append(c)
        if p == k:
            break
        shifted_cols = list(zip(*(
            [x + c if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(m))))
        m = [[sum(a * b for a, b in zip(row, col)) for col in shifted_cols]
             for row in w]
    return tuple(coeffs)


def _det(w):
    cs = _charpoly(w)
    # det(tI - w) at t = 0 is (-1)^k det(w)
    return cs[-1] if len(w) % 2 == 0 else -cs[-1]


def enumerate_group(c):
    """The full finite group generated by the component's matrices.

    Breadth-first closure under multiplication, returned in sorted order
    (tuples compare entrywise, so the ordering is canonical).  Exceeding
    ORDER_CAP raises SizeCapExceeded; a generator of infinite order is
    caught the same way, and this is the only stop for one.  Work over
    WORK_CAP raises SizeCapExceeded: before anything is allocated, when the
    generators' determinant checks and one characteristic polynomial
    already exceed it, and during the closure, when multiplying the
    elements found so far by every generator would.
    """
    k = c.rank
    _refuse_costly(c, (len(c.generators) + 1) * k ** 4,
                   "(generators + 1) * rank^4")
    for g in c.generators:
        if _det(g) not in (1, -1):
            raise ValidationError(
                "generator is not invertible over the integers")
    ident = _identity(c.rank)
    group = {ident}
    frontier = [ident]
    gens = list(c.generators)
    step = len(gens) * k ** 3
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _mat_mul(x, g)
                if y not in group:
                    group.add(y)
                    if len(group) > ORDER_CAP:
                        raise SizeCapExceeded(
                            f"group closure exceeded {ORDER_CAP} elements")
                    _refuse_costly(c, len(group) * step,
                                   "|W| * generators * rank^3")
                    nxt.append(y)
        frontier = nxt
    return sorted(group)


def _exterior_power_matrix(w, p):
    """The C(k,p) x C(k,p) matrix of p x p minors acting on Lambda^p.

    Entry (S, T) is det of the submatrix with rows S and columns T; the
    determinants are expanded over permutations, deliberately avoiding the
    characteristic-polynomial route so the two disagree if either is wrong.
    """
    k = len(w)
    subsets = list(combinations(range(k), p))
    entries = {}
    for si, s in enumerate(subsets):
        for ti, t in enumerate(subsets):
            val = 0
            for perm in permutations(range(p)):
                sign = 1
                for i in range(p):
                    for j in range(i + 1, p):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(p):
                    term *= w[s[i]][t[perm[i]]]
                val += term
            if val:
                entries[(si, ti)] = QQ(val)
    n = len(subsets)
    return SparseMatrix(n, n, ((i, j, v) for (i, j), v in entries.items()))


def averaged_projector_rank(elements, p):
    """Rank of (1/|W|) sum_w Lambda^p(w): the invariant dimension.

    Independent of the character-average route; used as a cross-check.
    """
    k = len(elements[0])
    n = 1
    for i in range(p):
        n = n * (k - i) // (i + 1)
    total = SparseMatrix(n, n, ())
    for w in elements:
        total = total + _exterior_power_matrix(w, p)
    return rank(total)


def invariant_betti(c, cross_check=False):
    """Betti numbers (beta_0, ..., beta_k) of the invariant forms on T^k/W.

    beta_p is the character average of tr Lambda^p over the group.
    cross_check additionally compares every degree against the
    averaged-projector rank.  Above rank 6 the exterior power matrices grow
    combinatorially, so the check is skipped there with a warning naming the
    component.  A component with |W| * rank^4 over WORK_CAP is refused with
    SizeCapExceeded before any average is taken, and one whose cross-check
    costs more than WORK_CAP before its first exterior power: each of the
    C(k,p)^2 minors of Lambda^p(w) sums p! products of p factors, each
    signed by counting p^2 / 2 inversions, about C(k,p)^2 p! p^2 units.
    """
    elements = enumerate_group(c)
    order = len(elements)
    _refuse_costly(c, order * c.rank ** 4,
                   f"|W| * rank^4 with |W| = {order}")
    polys = [_charpoly(w) for w in elements]
    betti = []
    for p in range(c.rank + 1):
        sign = 1 if p % 2 == 0 else -1
        # exact: enumerate_group returns a finite monoid of invertible
        # matrices, which is a group, so the average is dim (Lambda^p)^W
        betti.append(sign * sum(cp[p] for cp in polys) // order)
    if cross_check and c.rank > 6:
        warnings.warn(f"component {c.label!r} has rank {c.rank} > 6: "
                      "projector cross-check skipped")
    elif cross_check:
        _refuse_costly(c, order * sum(comb(c.rank, p) ** 2 * factorial(p)
                                      * p * p for p in range(c.rank + 1)),
                       "the projector cross-check, |W| * sum_p "
                       "C(rank,p)^2 p! p^2,")
        for p in range(c.rank + 1):
            got = averaged_projector_rank(elements, p)
            if got != betti[p]:
                raise ValidationError(
                    f"projector rank {got} disagrees with character "
                    f"average {betti[p]} at degree {p}")
    return tuple(betti)


class BettiTable:
    """Per-component Betti rows, in component order, and their even/odd
    totals."""

    __slots__ = ("rows", "even", "odd")

    def __init__(self, rows, even, odd):
        self.rows = rows
        self.even = even
        self.odd = odd


def even_odd_totals(components, gl_rank=None, cross_check=False):
    """Sum even- and odd-degree invariant Betti numbers across components.

    A component list modeling a reductive group of rank n should have all
    torus ranks at most n; passing gl_rank checks that bound and warns
    (does not fail) on violations.
    """
    if gl_rank is not None:
        for c in components:
            if c.rank > gl_rank:
                warnings.warn(
                    f"component {c.label!r} has rank {c.rank} > {gl_rank}")
    rows = tuple(invariant_betti(c, cross_check=cross_check)
                 for c in components)
    even = sum(row[p] for row in rows for p in range(0, len(row), 2))
    odd = sum(row[p] for row in rows for p in range(1, len(row), 2))
    return BettiTable(rows, even, odd)
