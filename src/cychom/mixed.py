"""Connes' normalized mixed complex (A (x) Abar^{(x) n}, b, B), as matrices.

Let A be unital, with 1 = sum_k c_k e_k, and let u be the first index with
c_u != 0.  The basis vectors e_i with i != u span a complement of Q.1, so
they are a basis of Abar = A / Q.1, which A reaches by the projection

  pi(e_i) = e_i for i != u,    pi(e_u) = -(1/c_u) sum_{i != u} c_i e_i.

The chain space in degree n is C_n = A (x) Abar^{(x) n}, with d (d-1)^n
cells for d = dim A.  A word (a_0; a_1, ..., a_n) has a first factor a_0
from the basis of A and n bar letters from the basis of Abar.  The two
differentials are (Loday, Cyclic Homology, 1.1.14 and 2.1.9)

  b(a_0; a_1 .. a_n)
    = (a_0 a_1; a_2 .. a_n)
      + sum_{i=1}^{n-1} (-1)^i (a_0; a_1 .. pi(a_i a_{i+1}) .. a_n)
      + (-1)^n (a_n a_0; a_1 .. a_{n-1})
  B(a_0; a_1 .. a_n)
    = sum_{i=0}^{n} (-1)^{ni} (1; a_i .. a_n, pi(a_0), a_1 .. a_{i-1})

with the leading 1 of B expanded as sum_k c_k e_k.  They are written b~
(degree -1) and B~ (degree +1) below.

For A without a unit the builder runs the same formulas on A~ = unitize(A),
whose unit is the last basis vector, and drops that unit from degree 0: the
reduced complex, C_0 = A and C_n = A~ (x) A^{(x) n} with (d+1) d^n cells.
It is the complex of noncommutative differential forms Omega(A): C_n splits
into A^{(x) n+1} (first factor in A) followed by A^{(x) n} (first factor the
unit), and on that split b~(x, y) = (b x + (1 - lambda) y, -b' y) and
B~(x, y) = (0, N x), with b' the bar differential, lambda the signed cyclic
shift and N the sum of its powers.

So every command builds one of two complexes of one builder: `identities`,
`hp` and the final stage of `tower` build C(A); `hh` and `hc`, and the
earlier stages of `tower`, build Omega(A), with A's unit forgotten (see
homology.omega_complex and towers._stage_complexes for why).  For a unital
A both give the same homology.  The identities b~^2 = 0, b~B~ + B~b~ = 0 and
B~^2 = 0 hold exactly in both and are checkable per degree.

Words are indexed lexicographically with the first factor most significant:
(a_0; l_1, ..., l_n) has index a_0 L^n + sum_t l_t L^(n-t), where L is the
number of bar letters and l_t the position of a_t among them.
"""

from itertools import product
from math import lcm

from .algebra import unitize
from .errors import DegreeOutOfRange, SizeCapExceeded
from .linalg import ONE, SparseMatrix

# The one size guard for chain complexes: check_size refuses a complex whose
# top chain space would hold more cells than this.  Read at call time, so it
# can be lowered for a single run.
CELL_CAP = 2_000_000


class ChainSpace:
    """One chain space C_n, by its number of cells."""

    __slots__ = ("dim",)

    def __init__(self, dim):
        self.dim = dim


def cell_count(a, n):
    """Cells of C_n: d (d-1)^n for a unital a, else d in degree 0 and
    (d+1) d^n above.  An algebra whose unit has no coordinates is the zero
    algebra; it is built as the non-unital one, whose complex is zero too."""
    d = a.dim
    if a.unit:
        return d * (d - 1) ** n
    return d if n == 0 else (d + 1) * d ** n


def check_size(a, n_max):
    """Raise SizeCapExceeded when C_{n_max} of a has more than CELL_CAP
    cells.  The top chain space is the largest one for d >= 2, and has at
    most one cell otherwise."""
    cells = cell_count(a, n_max)
    if cells > CELL_CAP:
        raise SizeCapExceeded(
            f"chain space in degree {n_max} has {cells} cells; cap {CELL_CAP}")


def _bar(ua):
    """(letters, pi) for a unital algebra ua: the basis indices of the bar
    letters, and pi from a sparse vector over the basis to one over the
    letters."""
    unit = ua.unit
    u = min(unit)
    letters = [i for i in range(ua.dim) if i != u]
    at = {k: j for j, k in enumerate(letters)}
    # pi(e_u) subtracts e_u's coordinate times 1 / c_u
    spill = [(at[k], c / unit[u]) for k, c in unit.items() if k != u]

    def pi(vec):
        out = {}
        for k, v in vec.items():
            if k == u:
                for j, c in spill:
                    out[j] = out.get(j, 0) - v * c
            else:
                out[at[k]] = out.get(at[k], 0) + v
        return {j: v for j, v in out.items() if v}

    return letters, pi


def _operator_tables(ua):
    """b's and B's structure constants for a unital ua, in ints over one
    denominator: (den, left, right, mid, ones).

    left[x][l] = e_x e_l and right[l][x] = e_l e_x over the basis, for a
    first factor x and a letter l; mid[l][m] = pi(e_l e_m) over the letters.
    ones[x] lists (j, terms) for pi(e_x) = sum_j p_j (letter j), with terms
    the coefficients c_k p_j of B's leading 1.  A coefficient C is stored as
    (k, C, -C), so that a sign picks a slot and multiplies nothing.
    """
    letters, pi = _bar(ua)
    basis = range(ua.dim)
    left = [[ua.product(x, l) for l in letters] for x in basis]
    right = [[ua.product(l, x) for x in basis] for l in letters]
    mid = [[pi(ua.product(l, m)) for m in letters] for l in letters]
    ones = [[(j, {k: c * p for k, c in ua.unit.items()})
             for j, p in pi({x: ONE}).items()] for x in basis]
    vectors = [vec for table in (left, right, mid) for row in table
               for vec in row]
    vectors += [vec for terms in ones for _, vec in terms]
    den = lcm(*[c.denominator for vec in vectors for c in vec.values()])

    def ints(vec):
        return tuple((k, c.numerator * (den // c.denominator),
                      -c.numerator * (den // c.denominator))
                     for k, c in vec.items())

    return (den,
            [[ints(vec) for vec in row] for row in left],
            [[ints(vec) for vec in row] for row in right],
            [[ints(vec) for vec in row] for row in mid],
            [[(j, ints(vec)) for j, vec in terms] for terms in ones])


# b~ and B~ below sum their entries in ints, scaled by the common
# denominator, and drop a position whose sum reaches zero.  Row indices are
# computed in range, so the sums go to SparseMatrix._trusted over that
# denominator.  In the reduced complex no row of C_0 is the unit's: a first
# factor times a letter lies in A, and so does the unit times a letter.

def _add(acc, hits, col):
    for base, step, terms, slot in hits:
        for term in terms:
            key = (base + term[0] * step, col)
            s = acc.get(key, 0) + term[slot]
            if s:
                acc[key] = s
            else:
                del acc[key]


def _boundary(tables, dim, rows, n):
    """b~ : C_n -> C_{n-1} for n >= 1, with dim first factors.

    Face i merges entries i and i+1 of the word w = (a_0, l_1, .., l_n) at
    column col.  Face 0 puts e_{a_0} e_{l_1} = sum C_k e_k first: row
    k L^(n-1) + col mod L^(n-1).  A middle face 1 <= i < n puts pi(e_{l_i}
    e_{l_{i+1}}) = sum C_j (letter j) at letter i: row prefix L^(n-i) +
    j L^(n-i-1) + suffix, where prefix = col div L^(n-i+1) and suffix = col
    mod L^(n-i-1) index the entries before and after the pair.  Face n puts
    e_{l_n} e_{a_0} first, before l_1 .. l_{n-1}.
    """
    den, left, right, mid, _ = tables
    letters = len(mid)
    pw = [letters ** e for e in range(n + 1)]
    # a middle face as (position, L^(n-i+1), L^(n-i), L^(n-i-1), sign slot)
    faces = [(i, pw[n - i + 1], pw[n - i], pw[n - i - 1], 1 + i % 2)
             for i in range(1, n)]
    low, wrap_slot = pw[n - 1], 1 + n % 2
    acc = {}
    words = product(range(dim), *[range(letters)] * n)
    for col, w in enumerate(words):
        hits = [(col % low, low, left[w[0]][w[1]], 1)]
        hits += [(col // high * step + col % bottom, bottom,
                  mid[w[i]][w[i + 1]], slot)
                 for i, high, step, bottom, slot in faces]
        hits.append((col % pw[n] // letters, low, right[w[n]][w[0]],
                     wrap_slot))
        _add(acc, hits, col)
    return SparseMatrix._trusted(rows, dim * pw[n], acc, den)


def _connes_B(tables, cols, rows, n):
    """B~ : C_n -> C_{n+1} for n >= 0, on the first cols words of C_n.

    The word (j, l_1, .., l_n) of n+1 letters, with pi(e_{a_0}) = sum p_j
    (letter j), has index W = j L^n + (col mod L^n).  Its rotation that
    starts at letter i has index (W mod L^(n+1-i)) L^i + W div L^(n+1-i),
    and B puts c_k p_j (-1)^{ni} at row k L^(n+1) + that index.  A periodic
    word repeats among its rotations, so their entries add up.
    """
    den, _, _, mid, ones = tables
    letters = len(mid)
    pw = [letters ** e for e in range(n + 2)]
    rotations = [(pw[n + 1 - i], pw[i], 1 + n * i % 2) for i in range(n + 1)]
    acc = {}
    for col in range(cols):
        first, rest = divmod(col, pw[n])
        for j, terms in ones[first]:
            word = j * pw[n] + rest
            _add(acc, [(word % high * step + word // high, pw[n + 1], terms,
                        slot) for high, step, slot in rotations], col)
    return SparseMatrix._trusted(rows, cols, acc, den)


class MixedComplex:
    """Chain spaces and both differentials of C(A) or Omega(A) up to
    degree n_max.

    b_tilde[n] : C_n -> C_{n-1} for 1 <= n <= n_max;
    B_tilde[n] : C_n -> C_{n+1} for 0 <= n <= n_max - 1.
    """

    __slots__ = ("algebra", "n_max", "spaces", "b_tilde", "B_tilde")

    def __init__(self, algebra, n_max, spaces, b_tilde, B_tilde):
        self.algebra = algebra
        self.n_max = n_max
        self.spaces = spaces
        self.b_tilde = b_tilde
        self.B_tilde = B_tilde


def build_mixed_complex(a, n_max):
    """C(A) for a unital a, else Omega(A), through degree n_max.

    Raises SizeCapExceeded, before building anything, when C_{n_max} has
    more than CELL_CAP cells.
    """
    if n_max < 0:
        raise DegreeOutOfRange("n_max must be nonnegative")
    check_size(a, n_max)
    ua = a if a.unit else unitize(a)
    tables = _operator_tables(ua)
    spaces = tuple(ChainSpace(cell_count(a, n)) for n in range(n_max + 1))
    b_tilde = {n: _boundary(tables, ua.dim, spaces[n - 1].dim, n)
               for n in range(1, n_max + 1)}
    B_tilde = {n: _connes_B(tables, spaces[n].dim, spaces[n + 1].dim, n)
               for n in range(n_max)}
    return MixedComplex(a, n_max, spaces, b_tilde, B_tilde)


class MixedIdentityReport:
    """Exact per-degree checks of the three mixed-complex identities.

    bb[n] checks b~ b~ = 0 out of degree n; anticommute[n] checks
    b~ B~ + B~ b~ = 0 on degree n; BB[n] checks B~ B~ = 0 out of degree n.
    witness is None when everything passes, else (identity, degree, entry).
    """

    __slots__ = ("bb", "anticommute", "BB", "witness")

    def __init__(self, bb, anticommute, BB, witness):
        self.bb = bb
        self.anticommute = anticommute
        self.BB = BB
        self.witness = witness

    @property
    def all_pass(self):
        return (all(self.bb.values()) and all(self.anticommute.values())
                and all(self.BB.values()) and self.witness is None)


def verify_mixed_identities(mc):
    bb = {}
    anti = {}
    BB = {}
    witness = None
    for n in range(2, mc.n_max + 1):
        prod = mc.b_tilde[n - 1] @ mc.b_tilde[n]
        bb[n] = prod.is_zero()
        if not bb[n] and witness is None:
            witness = ("b~b~", n, prod.first_nonzero())
    for n in range(0, mc.n_max):
        acc = mc.b_tilde[n + 1] @ mc.B_tilde[n]
        if n >= 1:
            acc = acc + mc.B_tilde[n - 1] @ mc.b_tilde[n]
        anti[n] = acc.is_zero()
        if not anti[n] and witness is None:
            witness = ("b~B~+B~b~", n, acc.first_nonzero())
    for n in range(0, mc.n_max - 1):
        prod = mc.B_tilde[n + 1] @ mc.B_tilde[n]
        BB[n] = prod.is_zero()
        if not BB[n] and witness is None:
            witness = ("B~B~", n, prod.first_nonzero())
    return MixedIdentityReport(bb, anti, BB, witness)


def _kron(x, y):
    """The Kronecker product of two sparse matrices: the products of their
    nonzero ints, at distinct positions in range, over x.den y.den."""
    return SparseMatrix._trusted(
        x.rows * y.rows, x.cols * y.cols,
        {(r1 * y.rows + r2, c1 * y.cols + c2): v1 * v2
         for (r1, c1), v1 in x.data.items()
         for (r2, c2), v2 in y.data.items()}, x.den * y.den)


def tensor_power(m, k):
    """k-fold Kronecker power of a sparse matrix (k = 0 gives the 1x1 unit)."""
    out = SparseMatrix.identity(1)
    for _ in range(k):
        out = _kron(out, m)
    return out


def induced_chain_map(f, n_max):
    """Degree-wise matrices of the chain map Omega(f.source) -> C(U).

    U is f.target when it has a unit, else unitize(f.target), and the
    target complex is the one build_mixed_complex builds for f.target.  f
    need not keep the unit, but its unital extension g : A~ -> U, with
    g(1) = 1, is an algebra map that does.  So g on the first factor and
    pi f on each bar letter commute with b~ and B~: in degree n >= 1 the map
    is g (x) (pi f)^{(x) n}, and in degree 0, where Omega^0 = A, it is f.
    f is not validated here: towers.DirectSystem validates every stage map,
    and a composite of algebra maps is an algebra map.
    """
    target = f.target if f.target.unit else unitize(f.target)
    _, pi = _bar(target)
    columns = f.matrix.columns()
    g = SparseMatrix.from_columns(target.dim, columns + [target.unit])
    pi_f = SparseMatrix.from_columns(target.dim - 1,
                                     [pi(col) for col in columns])
    maps = {0: f.matrix}
    for n in range(1, n_max + 1):
        maps[n] = _kron(g, tensor_power(pi_f, n))
    return maps
