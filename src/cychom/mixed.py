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
(degree -1) and B~ (degree +1) below.  Both are built in ints: A's table
is ints over one denominator (algebra.Algebra), the unit is
sum_k p_k e_k / q, and pi is applied as |p_u| pi, an int map
(_projection), so building makes no Fraction.

HH and HC rank the total differential D_n of Tot_n = C_n (+) C_{n-2}
(+) ..., which applies B~ to every summand but the top one, C_n; so D_n
reads B~ only through degree n - 2.  The hh, hc, hp and tower commands
rank D_1 .. D_{n_max} and build B~ through n_max - 2; identities checks
every B~ the chain spaces reach, through n_max - 1.

For A without a unit the builder runs the same formulas on A~ = unitize(A),
whose unit is the last basis vector, and drops that unit from degree 0: the
reduced complex, C_0 = A and C_n = A~ (x) A^{(x) n} with (d+1) d^n cells.
It is the complex of noncommutative differential forms Omega(A): C_n splits
into A^{(x) n+1} (first factor in A) followed by A^{(x) n} (first factor the
unit), and on that split b~(x, y) = (b x + (1 - lambda) y, -b' y) and
B~(x, y) = (0, N x), with b' the bar differential, lambda the signed cyclic
shift and N the sum of its powers.

So every command builds one of two complexes of one builder: `hh`, `hc`,
`hp`, `identities` and the final stage of `tower` build C(A) for a unital
A, and Omega(A) only for an A without a unit.  The earlier stages of
`tower` build Omega(A) with A's unit forgotten, since their maps need not
keep it (see towers._stage_complexes).  For a unital A both give the same
homology.  The identities b~^2 = 0, b~B~ + B~b~ = 0 and B~^2 = 0 hold
exactly in both and are checkable per degree.

Words are indexed lexicographically with the first factor most significant:
(a_0; l_1, ..., l_n) has index a_0 L^n + sum_t l_t L^(n-t), where L is the
number of bar letters and l_t the position of a_t among them.  So a word
gains its last letter l as index L + l, and b~ is built row by row by its
face recursion in that letter (_boundaries): with F_n the faces 0 .. n-1,

  F_1 = face 0,    F_n = F_{n-1} (x) I_L + (-1)^(n-1) (I (x) mu),
  b~_n = F_n + (-1)^n W_n,

where mu = pi o mult merges the last two letters and W_n is face n, the
wrap.  Only the mu and W terms need sums; the Kronecker product with I_L
makes row r of F_{n-1} into the L rows r L + l, each a copy with its
columns c moved to c L + l.  B~ writes each distinct rotation of a word
once, with its multiplicity (_connes_B).  Every operator is a
SparseMatrix of rows, the form elimination reads: no (row, col)-keyed
store is built.
"""

from math import lcm

from .algebra import unitize
from .errors import SizeCapExceeded, ValidationError
from .linalg import QQ, SparseMatrix

# The one size guard for chain complexes: check_size refuses a complex whose
# top chain space would hold more cells than this.  Read at call time, so it
# can be lowered for a single run.
CELL_CAP = 2_000_000

# The widest packed column of verify_mixed_identities, in bits; a sum whose
# columns would be wider is decided from its products.  Read at call time.
PACK_BITS = 1 << 12


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


def _projection(ua):
    """(letters, p, q, s, pi) for a unital ua, all in ints.

    unit = sum_k p_k e_k / q with q the lcm of its denominators (so B's
    leading 1 is sum_k p_k e_k over q), u is the least k with p_k != 0 and
    s = |p_u|; letters are the basis indices other than u.  pi takes an int
    vector v over the basis to s pi(v) over the letters.  Since
    pi(e_u) = -(1/p_u) sum_{i != u} p_i e_i, and s / p_u = sgn(p_u),

      s pi(v) = sum_{k != u} s v_k l_k - sgn(p_u) v_u sum_{i != u} p_i l_i,

    an int vector with each coefficient multiplied by s or by +-p_i, so a
    vector v over a denominator D goes to pi(v) over D s.
    """
    p, q = ua.integer_unit()
    u = min(p)
    s = abs(p[u])
    letters = [i for i in range(ua.dim) if i != u]
    at = {k: j for j, k in enumerate(letters)}
    # sgn(p_u) p_i at each letter i != u
    spill = [(at[k], c if p[u] > 0 else -c) for k, c in p.items() if k != u]

    def pi(vec):
        out = {}
        for k, v in vec.items():
            if k == u:
                for j, c in spill:
                    out[j] = out.get(j, 0) - v * c
            else:
                out[at[k]] = out.get(at[k], 0) + s * v
        return {j: v for j, v in out.items() if v}

    return letters, p, q, s, pi


def _operator_tables(ua):
    """b's and B's structure constants for a unital ua, in ints over one
    denominator: (den, left, right, mid, ones).

    left[x][l] = e_x e_l and right[l][x] = e_l e_x over the basis, for a
    first factor x and a letter l; mid[l][m] = pi(e_l e_m) over the letters.
    ones[x] lists (j, terms) for pi(e_x) = sum_j r_j (letter j), with terms
    the coefficients c_k r_j of B's leading 1.  A coefficient C is stored as
    (k, C, -C), so that a sign picks a slot and multiplies nothing.

    With D = ua.den, and q and s as in _projection, a product is an int
    vector over D, its pi one over D s, and c_k r_j an int over q s; so all
    go over den = s lcm(D, q), each times den over its own denominator.
    """
    letters, p, q, s, pi = _projection(ua)
    t, d = ua.table, ua.den
    den = s * lcm(d, q)
    side, merge, one = den // d, den // (d * s), den // (q * s)
    basis, none = range(ua.dim), {}

    def ints(vec, scale):
        return tuple((k, c * scale, -c * scale) for k, c in vec.items())

    return (den,
            [[ints(t.get((x, l), none), side) for l in letters]
             for x in basis],
            [[ints(t.get((l, x), none), side) for x in basis]
             for l in letters],
            [[ints(pi(t.get((l, m), none)), merge) for m in letters]
             for l in letters],
            [[(j, ints({k: c * r for k, c in p.items()}, one))
              for j, r in pi({x: 1}).items()] for x in basis])


# b~ and B~ below sum their entries in ints, scaled by the common
# denominator, one row at a time.  Row and column indices are computed in
# range, so the rows go to SparseMatrix._trusted over that denominator.  In
# the reduced complex no row of C_0 is the unit's: a first factor times a
# letter lies in A, and so does the unit times a letter.

def _add(row, base, terms):
    """Add v at column base + offset of row for each (offset, v) of terms,
    dropping a position whose sum reaches zero."""
    get = row.get
    for offset, v in terms:
        col = base + offset
        s = get(col, 0) + v
        if s:
            row[col] = s
        else:
            del row[col]


def _boundaries(tables, dim, spaces, n_max):
    """b~_1 .. b~_{n_max} by the face recursion, as {n: matrix}, for dim
    first factors, built row by row.

    F_n = b~_n - (-1)^n W_n is the sum of the faces 0 .. n-1.  Faces
    0 .. n-2 leave the last letter l_n in place, and a word gains its last
    letter as index L + l, so they make F_{n-1} (x) I_L: row r of F_{n-1}
    goes to row r L + l, its column c to c L + l, for every letter l.  Face
    n-1, with sign (-1)^(n-1), merges l_{n-1} = x and l_n = y into
    mid[x][y] = pi(e_x e_y) = sum C_j (letter j): row p L + j gets C_j at
    column p L^2 + x L + y, for every prefix p.  So row p L + j of F_n is
    row p of F_{n-1} moved, plus the merges into letter j, and it is built
    as one dict.  F_1 is face 0 alone, which puts e_{a_0} e_{l_1} =
    sum C_k e_k at row k.  The wrap face W_n puts e_{l_n} e_{a_0} =
    sum C_k e_k first, before l_1 .. l_{n-1}: row k L^(n-1) + rest gets C_k
    at column (a_0 L^(n-1) + rest) L + l_n.

    F_{n+1} is built from the rows of F_n before the wrap is added to them
    in place, which makes them b~_n's.
    """
    den, left, right, mid, _ = tables
    letters = len(mid)
    pair = letters * letters
    # merges[s][j]: (x L + y, C_j) for each nonzero C_j of mid[x][y], its
    # sign (-1)^s
    merges = ({}, {})
    for x in range(letters):
        for y in range(letters):
            for term in mid[x][y]:
                for s in (0, 1):
                    merges[s].setdefault(term[0], []).append(
                        (x * letters + y, term[1 + s]))
    # by row k: (a_0, l, C_k) for each nonzero C_k of e_l e_{a_0}
    wraps = {}
    for x in range(dim):
        for l in range(letters):
            for term in right[l][x]:
                wraps.setdefault(term[0], []).append((x, l, term))
    face = {}
    for x in range(dim):
        for l in range(letters):
            for term in left[x][l]:
                face.setdefault(term[0], {})[x * letters + l] = term[1]
    out = {}
    for n in range(1, n_max + 1):
        following = {}
        if n < n_max:
            adds = [merges[n % 2].get(j, ()) for j in range(letters)]
            # the column keys of F_n (x) I_L share one int each
            at_col = list(range(spaces[n + 1].dim))
            for p in range(dim * letters ** (n - 1)):
                old, base = face.get(p), p * pair
                for j, terms in enumerate(adds):
                    if old is None:
                        row = {base + xy: v for xy, v in terms}
                    else:
                        row = {at_col[c * letters + j]: v
                               for c, v in old.items()}
                        _add(row, base, terms)
                    if row:
                        following[p * letters + j] = row
        low, slot = letters ** (n - 1), 1 + n % 2
        for k, terms in wraps.items():
            offsets = [(x * low * letters + l, term[slot])
                       for x, l, term in terms]
            for rest in range(low):
                i, base = k * low + rest, rest * letters
                row = face.get(i)
                if row is None:
                    face[i] = {base + o: v for o, v in offsets}
                else:
                    _add(row, base, offsets)
                    if not row:
                        del face[i]
        out[n] = SparseMatrix._trusted(spaces[n - 1].dim, spaces[n].dim, face,
                                       den)
        face = following
    return out


def _connes_B(tables, cols, rows, n):
    """B~ : C_n -> C_{n+1} for n >= 0, on the first cols words of C_n.

    The word (j, l_1, .., l_n) of n+1 letters, with pi(e_{a_0}) = sum p_j
    (letter j), has index W = j L^n + (col mod L^n).  Its rotation that
    starts at letter i has index (W mod L^(n+1-i)) L^i + W div L^(n+1-i),
    and B puts c_k p_j (-1)^{ni} at row k L^(n+1) + that index.  Let t, the
    period of W, be the least i >= 1 whose rotation is W itself; t divides
    n+1, and the rotations repeat with period t.  Rotations i and i + t
    carry signs that differ by (-1)^{nt}, so the n+1 terms are t distinct
    rotations, each (n+1)/t times when n t is even.  When n t is odd, n and
    t are odd, so (n+1)/t is even and the copies of each rotation cancel in
    pairs.

    The words of one column differ only in j, so they hold different
    multisets of letters and no two share a rotation: every position is
    written once, with a nonzero int.
    """
    den, _, _, mid, ones = tables
    letters = len(mid)
    pw = [letters ** e for e in range(n + 2)]
    span, span_up = pw[n], pw[n + 1]
    rotations = [(pw[n + 1 - i], pw[i], 1 + n * i % 2)
                 for i in range(1, n + 1)]
    by_row = {}
    for col in range(cols):
        first, rest = divmod(col, span)
        for j, terms in ones[first]:
            word = j * span + rest
            seen = [(word, 1)]
            for high, step, slot in rotations:
                base = word % high * step + word // high
                if base == word:
                    break
                seen.append((base, slot))
            period = len(seen)
            if n * period % 2:
                continue
            times = (n + 1) // period
            for term in terms:
                top = term[0] * span_up
                for base, slot in seen:
                    v = term[slot] * times
                    row = by_row.get(top + base)
                    if row is None:
                        by_row[top + base] = {col: v}
                    else:
                        row[col] = v
    return SparseMatrix._trusted(rows, cols, by_row, den)


class MixedComplex:
    """Chain spaces and both differentials of C(A) or Omega(A) up to
    degree n_max.

    b_tilde[n] : C_n -> C_{n-1} for 1 <= n <= n_max;
    B_tilde[n] : C_n -> C_{n+1} for 0 <= n <= B_max, with B_max <= n_max - 1
    as build_mixed_complex was asked.
    """

    __slots__ = ("n_max", "spaces", "b_tilde", "B_tilde")

    def __init__(self, n_max, spaces, b_tilde, B_tilde):
        self.n_max = n_max
        self.spaces = spaces
        self.b_tilde = b_tilde
        self.B_tilde = B_tilde


def build_mixed_complex(a, n_max, B_max=None):
    """C(A) for a unital a, else Omega(A): every b~ through degree n_max,
    and B~_0 .. B~_{B_max}, B_max = n_max - 1 by default.

    The default is every B~ the chain spaces reach, which
    verify_mixed_identities checks.  A caller that only ranks D_1 ..
    D_{n_max} passes n_max - 2, since D_n reads B~ only through degree
    n - 2 (module docstring).  Raises SizeCapExceeded, before building
    anything, when C_{n_max} has more than CELL_CAP cells.
    """
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    check_size(a, n_max)
    ua = a if a.unit else unitize(a)
    tables = _operator_tables(ua)
    spaces = tuple(ChainSpace(cell_count(a, n)) for n in range(n_max + 1))
    b_tilde = _boundaries(tables, ua.dim, spaces, n_max)
    if B_max is None:
        B_max = n_max - 1
    B_tilde = {n: _connes_B(tables, spaces[n].dim, spaces[n + 1].dim, n)
               for n in range(B_max + 1)}
    return MixedComplex(n_max, spaces, b_tilde, B_tilde)


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


def _sum_first_entry(pairs, sizes):
    """None when sum_i L_i R_i = 0 over the pairs (L_i, R_i), else its least
    position and entry as (row, col, numerator, den).

    The sum goes over den, the lcm of the products L_i.den R_i.den, so the
    products of the ints of L_i and R_i get the factors scale_i = den /
    (L_i.den R_i.den).  Column k of L_i is packed, row by row of L_i, into
    one int, P_k = sum_r L[r,k] 2^(w r), and column j of the sum is the int
    T_j = sum_i scale_i sum_k R[k,j] P_k = sum_r S_r 2^(w r), summed row by
    row of R_i, whose digit S_r is den times entry (r, j).

    The width w: |S_r| <= sum_i scale_i sum_k |L_i[r,k]| |R_i[k,j]| <= M =
    sum_i scale_i max|L_i| max|R_i| c_i, with c_i the most entries in one
    row of L_i, read from sizes[id(L_i)].  With w = bits(M) + 1 every digit
    lies in (-2^(w-1), 2^(w-1)), and such signed base-2^w digits are unique:
    T_j = 0 iff every S_r is 0.  Otherwise, for r0 the least r with S_r !=
    0, T_j = 2^(w r0) (S_r0 + 2^w q) and 0 < |S_r0| < 2^w, so the lowest set
    bit of T_j lies in [w r0, w r0 + w), and S_r0 is the residue of
    T_j >> w r0 modulo 2^w taken in [-2^(w-1), 2^(w-1)).  All of it is exact
    for every size of coefficient.

    Each P_k, T_j and partial sum of T_j has at most w L_0.rows bits, and a
    column of the builder's operators spreads over nearly all of them (the
    wrap face and B's rotations reach the top rows).  So packing L_i holds
    about w L_i.rows L_i.cols bits, and it pays only while the columns are
    narrow: when w L_0.rows > PACK_BITS the sum is formed with @ and +,
    whose cost is one small multiplication per pair of entries that meet.
    """
    den = lcm(*[left.den * right.den for left, right in pairs])
    scales = [den // (left.den * right.den) for left, right in pairs]
    bound = 0
    for (left, right), scale in zip(pairs, scales):
        if left.by_row and right.by_row:
            top, row_count = sizes[id(left)]
            bound += scale * top * sizes[id(right)][0] * row_count
    w = bound.bit_length() + 1
    if pairs[0][0].rows * w > PACK_BITS:
        total = pairs[0][0] @ pairs[0][1]
        for left, right in pairs[1:]:
            total = total + left @ right
        if not total.by_row:
            return None
        row = min(total.by_row)
        col = min(total.by_row[row])
        return row, col, total.by_row[row][col], total.den
    sums = {}
    sum_at = sums.get
    for (left, right), scale in zip(pairs, scales):
        packed = {}
        get = packed.get
        for r, row in left.by_row.items():
            shift = w * r
            for k, v in row.items():
                packed[k] = get(k, 0) + (v << shift)
        for k, row in right.by_row.items():
            column = get(k)
            if column is not None:
                column *= scale
                for j, v in row.items():
                    sums[j] = sum_at(j, 0) + v * column
    first = min(((((t & -t).bit_length() - 1) // w, j)
                 for j, t in sums.items() if t), default=None)
    if first is None:
        return None
    row, col = first
    digit = (sums[col] >> w * row) & ((1 << w) - 1)
    if digit >> (w - 1):
        digit -= 1 << w
    return row, col, digit, den


def _sizes(m):
    """(largest |entry| of m, most entries in one row), 0s for zero."""
    if not m.by_row:
        return 0, 0
    return (max(max(map(abs, row.values())) for row in m.by_row.values()),
            max(map(len, m.by_row.values())))


def verify_mixed_identities(mc):
    """Check b~b~ = 0, b~B~ + B~b~ = 0 and B~B~ = 0 in every degree of mc.

    Each check decides whether a sum sum_i L_i R_i of products is zero; the
    witness is the least (row, col) entry of the first sum that is not
    (_sum_first_entry).  Column k of L_i is packed from L_i's rows into
    the int sum_r L_i[r,k] 2^(w r), and column j of the sum, from R_i's
    rows, into sum_i scale_i sum_k R_i[k,j] (packed column k), over the lcm
    of the denominators.  Every digit of that int is bounded by M =
    sum_i scale_i max|L_i| max|R_i| c_i, with c_i the most entries in one
    row of L_i, and w = bits(M) + 1, so the int is 0 exactly when the
    column is, and its lowest set bit and signed digit give the witness.  A
    sum whose packed columns would be wider than PACK_BITS (w L_i.rows
    bits) is formed with @ and + instead.  Only the witness's value is made
    a Fraction.
    """
    b, B = mc.b_tilde, mc.B_tilde
    sizes = {id(m): _sizes(m) for ops in (b, B) for m in ops.values()}
    identities = (
        ("b~b~", range(2, mc.n_max + 1), lambda n: [(b[n - 1], b[n])]),
        ("b~B~+B~b~", range(mc.n_max),
         lambda n: [(b[n + 1], B[n]), (B[n - 1], b[n])] if n
         else [(b[1], B[0])]),
        ("B~B~", range(mc.n_max - 1), lambda n: [(B[n + 1], B[n])]),
    )
    checks, witness = [], None
    for name, degrees, pairs in identities:
        passed = {}
        for n in degrees:
            entry = _sum_first_entry(pairs(n), sizes)
            passed[n] = entry is None
            if entry is not None and witness is None:
                row, col, numerator, den = entry
                witness = (name, n, (row, col, QQ(numerator, den)))
        checks.append(passed)
    return MixedIdentityReport(*checks, witness)


def _kron(x, y):
    """The Kronecker product of two sparse matrices: the products of their
    nonzero ints, at distinct positions in range, over x.den y.den."""
    right = [(r2, list(row2.items())) for r2, row2 in y.by_row.items()]
    by_row = {}
    for r1, row1 in x.by_row.items():
        top = r1 * y.rows
        parts = [(c1 * y.cols, v1) for c1, v1 in row1.items()]
        for r2, items2 in right:
            row = by_row[top + r2] = {}
            for base, v1 in parts:
                for c2, v2 in items2:
                    row[base + c2] = v1 * v2
    return SparseMatrix._trusted(x.rows * y.rows, x.cols * y.cols, by_row,
                                 x.den * y.den)


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

    Both factors are built in ints.  g = [f | 1] goes over lcm(M.den, q)
    for M = f.matrix and the unit sum_k p_k e_k / q; pi f takes column i of
    M, an int vector over M.den, to _projection's s pi, over M.den s.  Each
    position is written once and lies in range.
    """
    target = f.target if f.target.unit else unitize(f.target)
    letters, p, q, s, pi = _projection(target)
    m = f.matrix
    den = lcm(m.den, q)
    up = den // m.den
    g_rows = {r: {c: v * up for c, v in row.items()}
              for r, row in m.by_row.items()}
    for k, c in p.items():
        g_rows.setdefault(k, {})[m.cols] = c * (den // q)
    g = SparseMatrix._trusted(target.dim, m.cols + 1, g_rows, den)
    pi_rows = {}
    for i, col in enumerate(m.integer_columns()):
        for j, v in pi(col).items():
            pi_rows.setdefault(j, {})[i] = v
    pi_f = SparseMatrix._trusted(len(letters), m.cols, pi_rows, m.den * s)
    maps = {0: f.matrix}
    step = g
    for n in range(1, n_max + 1):
        step = maps[n] = _kron(step, pi_f)  # g (x) (pi f)^{(x) n}
    return maps
