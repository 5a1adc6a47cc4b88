"""Exact sparse linear algebra over arbitrary-precision rationals.

Every homology computation in this package reduces to ranks, kernels and
particular solutions of sparse matrices over Q.  Arithmetic is exact; there
is no floating point anywhere.  The scalar type QQ is fractions.Fraction.

Vectors are sparse dicts {index: rational} with zero entries absent.
All operations are pure and deterministic: elimination processes columns left
to right and picks the pivot row with the fewest stored entries (ties broken
by the lowest row index), and solve() sets free variables to zero, so the
particular solutions and bases produced are reproducible bit for bit.

Elimination is fraction-free: each row is scaled once to coprime integers
and every row operation keeps it that way, so the inner loop multiplies and
subtracts integers and never normalizes a fraction.  An integer row is a
nonzero rational multiple of the row rational elimination would hold, and
everything read off the echelon form (supports, pivots, back substitution)
is invariant under such scaling; _echelon spells the argument out.
Matrix products likewise multiply and add integers, and make a Fraction
only for a nonzero entry of the result (SparseMatrix.__matmul__).
"""

from fractions import Fraction as QQ
from math import gcd, lcm

ZERO = QQ(0)
ONE = QQ(1)


def as_rational(x):
    """Coerce an int, string 'p/q', Fraction or rational to the scalar type."""
    if isinstance(x, float):
        raise TypeError("floats are not accepted; use strings or rationals")
    return QQ(x)


def vec_eq(u, v):
    return {i: x for i, x in u.items() if x} == {i: x for i, x in v.items() if x}


class SparseMatrix:
    """Immutable sparse matrix over exact rationals.

    Entries are supplied as (row, col, value) triples; duplicate positions
    accumulate and exact zeros are dropped, so the stored representation has
    no duplicate positions and no zero entries.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, entries=()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        data = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index ({r}, {c}) out of range")
            if type(v) is not QQ:
                v = as_rational(v)
            if not v:
                continue
            key = (r, c)
            cur = data.get(key)
            if cur is None:
                data[key] = v
            else:
                s = cur + v
                if s:
                    data[key] = s
                else:
                    del data[key]
        self.data = data

    @classmethod
    def identity(cls, n):
        return cls(n, n, ((i, i, ONE) for i in range(n)))

    @classmethod
    def from_dense(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        return cls(rows, cols, ((i, j, v)
                                for i, row in enumerate(rows_list)
                                for j, v in enumerate(row)))

    @classmethod
    def from_columns(cls, rows, columns):
        """Matrix whose j-th column is the sparse vector columns[j]."""
        return cls(rows, len(columns), ((i, j, v)
                                        for j, col in enumerate(columns)
                                        for i, v in col.items()))

    @classmethod
    def _trusted(cls, rows, cols, data):
        """A matrix over data, a dict {(row, col): value} that is already a
        valid store, taken as it is.

        __init__ checks every entry: index in range, value a QQ, not zero,
        position not seen before.  Each caller passes data that meets all
        four by construction, and says why next to the call.
        """
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def from_blocks(cls, grid, row_dims, col_dims):
        """Assemble from a 2D list of blocks (None = zero block).

        Each block's shape is checked against its slot, so its entries land
        inside the slot, and slots do not overlap: the entries are in range
        and at distinct positions, and they are nonzero QQ values taken from
        valid matrices.
        """
        row_off = [0]
        for d in row_dims:
            row_off.append(row_off[-1] + d)
        col_off = [0]
        for d in col_dims:
            col_off.append(col_off[-1] + d)
        data = {}
        for bi, row_of_blocks in enumerate(grid):
            for bj, block in enumerate(row_of_blocks):
                if block is None:
                    continue
                if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
                    raise ValueError("block shape mismatch")
                ro, co = row_off[bi], col_off[bj]
                for (r, c), v in block.data.items():
                    data[(ro + r, co + c)] = v
        return cls._trusted(row_off[-1], col_off[-1], data)

    @classmethod
    def hstack(cls, blocks):
        rows = blocks[0].rows if blocks else 0
        return cls.from_blocks([list(blocks)], [rows], [b.cols for b in blocks])

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return len(self.data)

    def entries(self):
        """Sorted (row, col, value) triples."""
        return [(r, c, self.data[(r, c)]) for r, c in sorted(self.data)]

    def is_zero(self):
        return not self.data

    def first_nonzero(self):
        """Lexicographically first nonzero entry, or None; used as witness."""
        if not self.data:
            return None
        r, c = min(self.data)
        return (r, c, self.data[(r, c)])

    def column(self, j):
        """Column j as a sparse vector dict."""
        return {r: v for (r, c), v in self.data.items() if c == j}

    def columns(self):
        """All columns as sparse dicts, including zero columns."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = v
        return cols

    def apply(self, vec):
        """Matrix times sparse vector dict."""
        out = {}
        for (r, c), v in self.data.items():
            x = vec.get(c)
            if x is None:
                continue
            s = out.get(r, ZERO) + v * x
            if s:
                out[r] = s
            else:
                out.pop(r, None)
        return out

    def __neg__(self):
        # the negative of a nonzero QQ is a nonzero QQ, at the same position
        return SparseMatrix._trusted(
            self.rows, self.cols, {k: -v for k, v in self.data.items()})

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix addition")
        # both operands are valid stores of one shape; only the positions
        # they share need a sum, and a zero sum is dropped
        data = dict(self.data)
        for key, v in other.data.items():
            cur = data.get(key)
            if cur is None:
                data[key] = v
            else:
                s = cur + v
                if s:
                    data[key] = s
                else:
                    del data[key]
        return SparseMatrix._trusted(self.rows, self.cols, data)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        """The product, summed in integers.

        Each operand is scaled once by the lcm of its denominators: entries
        p/q of self become P = p (L1/q), entries r/s of other R = r (L2/s).
        Then sum (p/q)(r/s) = (sum P R) / (L1 L2) exactly, so the products
        and sums are of ints, and a QQ is made only for a nonzero sum.  Its
        position pairs a row of self with a column of other: in range.
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        lden = lcm(*[v.denominator for v in self.data.values()])
        rden = lcm(*[v.denominator for v in other.data.values()])
        left_cols = {}
        for (r, c), v in self.data.items():
            left_cols.setdefault(c, []).append(
                (r, v.numerator * (lden // v.denominator)))
        acc = {}
        for (k, j), w in other.data.items():
            hits = left_cols.get(k)
            if hits is None:
                continue
            w = w.numerator * (rden // w.denominator)
            for r, v in hits:
                key = (r, j)
                s = acc.get(key, 0) + v * w
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return SparseMatrix._trusted(self.rows, other.cols,
                                     _quotients(acc, lden * rden))

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.shape == other.shape
                and self.data == other.data)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _quotients(ints, den):
    """{key: v / den} for a dict of nonzero ints, with one QQ per distinct v.

    A QQ is immutable, so entries that hold the same value can share it.
    """
    made = {}
    out = {}
    for key, v in ints.items():
        q = made.get(v)
        if q is None:
            q = made[v] = QQ(v, den)
        out[key] = q
    return out


class Subspace:
    """A subspace of Q^ambient given by a list of independent sparse vectors.

    Equal when ambient and basis are equal, so two results of kernel_basis
    compare by value.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, basis):
        self.ambient = ambient
        self.basis = basis

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __len__(self):
        return len(self.basis)


def _primitive(row):
    """The row {col: rational} scaled to coprime integers: times the lcm of
    its denominators, then divided by the gcd of the resulting numerators."""
    den = lcm(*[v.denominator for v in row.values()])
    ints = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*ints.values())
    return {c: v // g for c, v in ints.items()} if g != 1 else ints


def _echelon(m, rhs_cols=0):
    """Row echelon form of m (its last rhs_cols columns excluded from pivots).

    Returns (pivots, rows) where pivots is a list of (row, col) in increasing
    column order and rows maps row index to its reduced sparse row dict of
    coprime integers.  Pivot rule: columns left to right; pivot row = fewest
    stored entries, ties by lowest row index.  After processing, every pivot
    row has support only in its pivot column and later ones.

    Each row starts as its primitive integer multiple (_primitive).  To clear
    column c of row r against pivot row p, with a = r[c], pval = p[c] and
    g = gcd(a, pval), the row becomes (pval/g) r - (a/g) p, whose entry at c
    is 0, and is then divided by the gcd of its entries.  If r = x R and
    p = y P for the rows R, P rational elimination holds, with x, y nonzero
    rationals, the new row is (x y P[c] / g) (R - (R[c]/P[c]) P): a nonzero
    multiple of rational elimination's update of R.  By induction every
    stored row is a nonzero rational multiple of the rational one, so:

    - supports are identical, hence the pivot rule (which reads only
      supports and row lengths) picks the same pivots in the same order;
    - the inconsistency test of solve_columns reads supports only;
    - back substitution (_back_substitute, behind kernel_basis and
      solve_columns) divides a sum of row entries by the row's own pivot
      entry, which is unchanged when the whole row is scaled, so it returns
      the same Fractions.
    """
    rows = {}
    col_rows = {}
    for (r, c), v in m.data.items():
        rows.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
    for r, row in rows.items():
        rows[r] = _primitive(row)
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
            a = rrow[c]
            g = gcd(a, pval)
            s, t = pval // g, a // g
            if s != 1:
                rrow = {cc: s * vv for cc, vv in rrow.items()}
            for cc, vv in prow.items():
                cur = rrow.get(cc)
                if cur is None:
                    # a new entry (never at c, which cancels); cc is a column
                    # of the pivot row, so col_rows already has it
                    rrow[cc] = -t * vv
                    col_rows[cc].add(r)
                else:
                    nv = cur - t * vv
                    if nv:
                        rrow[cc] = nv
                    else:
                        del rrow[cc]
            if rrow:
                g = gcd(*rrow.values())
                if g != 1:
                    rrow = {cc: vv // g for cc, vv in rrow.items()}
            rows[r] = rrow
        if len(done) == m.rows:
            break
    return pivots, rows


def _back_substitute(pivots, rows, x):
    """Fill x's pivot coordinates, last pivot first, so that every pivot
    row annihilates x: x[c] = -s / row[c], s = the row's other entries
    times x.  x starts as {f: ONE} for the kernel vector of free column f,
    or {rhs_col: -ONE} for a solution with right-hand side column rhs_col.
    """
    for r, c in reversed(pivots):
        row = rows[r]
        s = ZERO  # not 0: the row's entries are ints, and int / int is a float
        for cc, vv in row.items():
            if cc != c:
                xv = x.get(cc)
                if xv is not None:
                    s += vv * xv
        if s:
            x[c] = -s / row[c]
    return x


def rank(m):
    """Exact rank over Q."""
    pivots, _ = _echelon(m)
    return len(pivots)


def pivot_columns(m):
    """Indices of a maximal independent set of columns, scanning left to right."""
    pivots, _ = _echelon(m)
    return sorted(c for _, c in pivots)


def kernel_basis(m):
    """Deterministic basis of the null space of m.

    One basis vector per free column f (in increasing order), with entry 1 at
    f, 0 at the other free columns, and the pivot coordinates determined by
    back substitution.
    """
    pivots, rows = _echelon(m)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    return Subspace(m.cols, tuple(_back_substitute(pivots, rows, {f: ONE})
                                  for f in free_cols))


def independent_modulo(d_in, vectors):
    """(rank(d_in), the vectors independent modulo the column space of d_in).

    One elimination of [d_in | vectors].  Row operations keep every linear
    relation among the columns, so column j of an echelon form is a pivot
    exactly when it is not in the span of columns 0..j-1, whichever pivot
    rows were chosen.  Hence the pivots among d_in's own columns count its
    rank, and the pivots among the appended columns pick, left to right, the
    greedy set of vectors independent modulo the image of d_in: the same
    set a pass over [image_basis(d_in) | vectors] would keep.
    """
    vectors = list(vectors)
    stacked = SparseMatrix.hstack(
        [d_in, SparseMatrix.from_columns(d_in.rows, vectors)])
    pivots = pivot_columns(stacked)
    r = sum(1 for c in pivots if c < d_in.cols)
    return r, tuple(vectors[c - d_in.cols] for c in pivots[r:])


def image_basis(m):
    """Basis of the column space: the original columns at the pivot columns."""
    pivots, _ = _echelon(m)
    cols = sorted(c for _, c in pivots)
    all_cols = m.columns()
    return Subspace(m.rows, tuple(all_cols[c] for c in cols))


def solve(m, v):
    """A particular solution x of m x = v, or None when inconsistent.

    Free variables are set to zero under the fixed pivot order, so the
    solution is deterministic.
    """
    return solve_columns(m, [v])[0]


def solve_columns(m, vectors):
    """Solve m x = v for several right-hand sides with one elimination."""
    k = len(vectors)
    aug_entries = list(((r, c, v) for (r, c), v in m.data.items()))
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            if not (0 <= i < m.rows):
                raise ValueError("right-hand side index out of range")
            aug_entries.append((i, m.cols + j, x))
    aug = SparseMatrix(m.rows, m.cols + k, aug_entries)
    pivots, rows = _echelon(aug, rhs_cols=k)
    pivot_rows = {r for r, _ in pivots}
    # A non-pivot row with any remaining entry witnesses inconsistency for
    # the right-hand sides it touches (its m-part is fully eliminated).
    bad = set()
    for r, row in rows.items():
        if r in pivot_rows:
            continue
        for cc in row:
            if cc >= m.cols:
                bad.add(cc - m.cols)
    out = []
    for j in range(k):
        if j in bad:
            out.append(None)
            continue
        rhs_col = m.cols + j
        x = _back_substitute(pivots, rows, {rhs_col: -ONE})
        del x[rhs_col]
        out.append(x)
    return out


def invert(m):
    """Inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    cols = solve_columns(m, SparseMatrix.identity(m.rows).columns())
    if any(c is None for c in cols):
        return None
    inv = SparseMatrix.from_columns(m.rows, cols)
    return inv if (m @ inv) == SparseMatrix.identity(m.rows) else None
