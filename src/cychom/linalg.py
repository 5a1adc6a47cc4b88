"""Exact sparse linear algebra over the rationals, stored in integers.

Every homology computation in this package reduces to ranks, kernels and
particular solutions of sparse matrices over Q.  Arithmetic is exact; there
is no floating point anywhere.

A SparseMatrix holds integer numerators over one positive denominator: the
rational matrix is data / den.  The store is canonical (den >= 1, the gcd
of den and every stored numerator is 1, den == 1 for the zero matrix), so
equal rational matrices have equal stores.  Products, sums, Kronecker
products, block assembly and elimination multiply and add ints only.  The
scalar type QQ = fractions.Fraction is the API edge: matrices are built
from rationals, and entries, columns, matrix-vector products and the
vectors of back substitution come out as QQ.  Vectors are sparse dicts
{index: rational} with zero entries absent.

All operations are pure and deterministic: elimination processes columns left
to right and picks the pivot row with the fewest stored entries (ties broken
by the lowest row index), and solve() sets free variables to zero, so the
particular solutions and bases produced are reproducible bit for bit.
Elimination is fraction-free; _echelon spells out why its integer rows give
what rational elimination would.
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
    """Immutable sparse matrix over Q: the nonzero ints data over den.

    data maps (row, col) to a nonzero int and den is a positive int; the
    store is canonical (see the module docstring).  Entries are supplied as
    (row, col, rational) triples; duplicate positions accumulate and zeros
    are dropped.
    """

    __slots__ = ("rows", "cols", "data", "den")

    def __init__(self, rows, cols, entries=()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        values = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index ({r}, {c}) out of range")
            if type(v) is not int and type(v) is not QQ:
                v = as_rational(v)
            if v:
                values[(r, c)] = values.get((r, c), 0) + v
        den = lcm(*[v.denominator for v in values.values()])
        self._store(rows, cols, {key: v.numerator * (den // v.denominator)
                                 for key, v in values.items() if v}, den)

    def _store(self, rows, cols, data, den):
        self.rows = rows
        self.cols = cols
        if den != 1:
            g = gcd(den, *data.values())
            if g != 1:
                den //= g
                data = {key: v // g for key, v in data.items()}
        self.data = data
        self.den = den

    @classmethod
    def _trusted(cls, rows, cols, data, den=1):
        """The matrix data / den, for data a dict {(row, col): nonzero int}
        with every position in range, and den > 0.

        __init__ checks every entry: index in range, value rational and not
        zero, position not seen before.  Each caller passes data that meets
        all of these by construction, and says why next to the call.  Only
        the common factor of den and data is divided out here.
        """
        m = cls.__new__(cls)
        m._store(rows, cols, data, den)
        return m

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, {(i, i): 1 for i in range(n)})

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
    def from_blocks(cls, grid, row_dims, col_dims):
        """Assemble from a 2D list of blocks (None = zero block).

        Each block's shape is checked against its slot, so its entries land
        inside the slot, and slots do not overlap: the entries are in range
        and at distinct positions.  They go over the lcm of the blocks'
        denominators, and only a block whose den differs is rescaled.
        """
        row_off = [0]
        for d in row_dims:
            row_off.append(row_off[-1] + d)
        col_off = [0]
        for d in col_dims:
            col_off.append(col_off[-1] + d)
        den = lcm(*[b.den for row in grid for b in row if b is not None])
        data = {}
        for bi, row_of_blocks in enumerate(grid):
            for bj, block in enumerate(row_of_blocks):
                if block is None:
                    continue
                if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
                    raise ValueError("block shape mismatch")
                ro, co = row_off[bi], col_off[bj]
                scale = den // block.den
                for (r, c), v in block.data.items():
                    data[(ro + r, co + c)] = v * scale if scale != 1 else v
        return cls._trusted(row_off[-1], col_off[-1], data, den)

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
        return [(r, c, QQ(self.data[(r, c)], self.den))
                for r, c in sorted(self.data)]

    def is_zero(self):
        return not self.data

    def first_nonzero(self):
        """Lexicographically first nonzero entry, or None; used as witness."""
        if not self.data:
            return None
        r, c = min(self.data)
        return (r, c, QQ(self.data[(r, c)], self.den))

    def columns(self):
        """All columns as sparse dicts, including zero columns."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = QQ(v, self.den)
        return cols

    def apply(self, vec):
        """Matrix times sparse vector dict."""
        out = {}
        for (r, c), v in self.data.items():
            x = vec.get(c)
            if x is not None:
                out[r] = out.get(r, ZERO) + v * x
        return {r: s / self.den for r, s in out.items() if s}

    def __neg__(self):
        # the negatives of a canonical store's ints, at the same positions
        return SparseMatrix._trusted(
            self.rows, self.cols, {k: -v for k, v in self.data.items()},
            self.den)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix addition")
        # both operands go over the lcm of their denominators; only the
        # positions they share need a sum, and a zero sum is dropped
        den = lcm(self.den, other.den)
        up, up_other = den // self.den, den // other.den
        data = {k: v * up for k, v in self.data.items()}
        for key, v in other.data.items():
            s = data.get(key, 0) + v * up_other
            if s:
                data[key] = s
            else:
                del data[key]
        return SparseMatrix._trusted(self.rows, self.cols, data, den)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        """The product, summed in integers over the product of the
        denominators.  A sum is keyed by row * other.cols + col, so the
        zero sums are dropped and the keys split once, at the end."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = other.cols
        left_cols = {}
        for (r, c), v in self.data.items():
            left_cols.setdefault(c, []).append((r * cols, v))
        acc = {}
        for (k, j), w in other.data.items():
            for at, v in left_cols.get(k, ()):
                acc[at + j] = acc.get(at + j, 0) + v * w
        data = {divmod(at, cols): s for at, s in acc.items() if s}
        return SparseMatrix._trusted(self.rows, cols, data,
                                     self.den * other.den)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.shape == other.shape
                and self.den == other.den and self.data == other.data)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _echelon(m, rhs_cols=0):
    """Row echelon form of m (its last rhs_cols columns excluded from pivots).

    Returns (pivots, rows) where pivots is a list of (row, col) in increasing
    column order and rows maps row index to its reduced sparse row dict of
    coprime integers.  Pivot rule: columns left to right; pivot row = fewest
    stored entries, ties by lowest row index.  After processing, every pivot
    row has support only in its pivot column and later ones.

    A stored row of m is den times the rational row, and each row starts
    divided by the gcd of its entries: a nonzero multiple of the rational
    row, in coprime integers.  To clear column c of row r against pivot row
    p, with a = r[c], pval = p[c] and g = gcd(a, pval), the row becomes
    (pval/g) r - (a/g) p, whose entry at c is 0, and is then divided by the
    gcd of its entries.  If r = x R and p = y P for the rows R, P rational
    elimination holds, with x, y nonzero rationals, the new row is
    (x y P[c] / g) (R - (R[c]/P[c]) P): a nonzero multiple of rational
    elimination's update of R.  By induction every stored row is a nonzero
    rational multiple of the rational one, so:

    - supports are identical, hence the pivot rule (which reads only
      supports and row lengths) picks the same pivots in the same order;
    - the inconsistency test of solve_columns reads supports only;
    - back substitution (_back_substitute, behind kernel_basis and
      solve_columns) divides a sum of a row's entries by the same row's
      pivot entry, a quotient no scaling of the row changes, so it returns
      the same Fractions.
    """
    rows = {}
    col_rows = {}
    for (r, c), v in m.data.items():
        rows.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
    for r, row in rows.items():
        g = gcd(*row.values())
        if g != 1:
            rows[r] = {c: v // g for c, v in row.items()}
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
    """Deterministic basis of the null space of m, a tuple of sparse vectors.

    One basis vector per free column f (in increasing order), with entry 1 at
    f, 0 at the other free columns, and the pivot coordinates determined by
    back substitution.
    """
    pivots, rows = _echelon(m)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    return tuple(_back_substitute(pivots, rows, {f: ONE}) for f in free_cols)


def independent_modulo(d_in, vectors):
    """(rank d_in, the vectors kept by a left-to-right pass modulo col d_in).

    A vector is kept when it is not in the span of col d_in and the vectors
    before it, so the kept ones are a basis of (col d_in + span vectors)
    modulo col d_in.  One elimination of [d_in | vectors]: row operations
    keep every linear relation among the columns, so column j of an echelon
    form is a pivot exactly when it is not in the span of columns 0..j-1,
    whichever pivot rows were chosen.  Hence the pivots among d_in's own
    columns count its rank, and those among the appended columns are the
    kept vectors.
    """
    vectors = list(vectors)
    stacked = SparseMatrix.hstack(
        [d_in, SparseMatrix.from_columns(d_in.rows, vectors)])
    pivots = pivot_columns(stacked)
    r = sum(1 for c in pivots if c < d_in.cols)
    return r, tuple(vectors[c - d_in.cols] for c in pivots[r:])


def image_basis(m):
    """Basis of the column space, a tuple of sparse vectors: the original
    columns at the pivot columns."""
    pivots, _ = _echelon(m)
    cols = sorted(c for _, c in pivots)
    all_cols = m.columns()
    return tuple(all_cols[c] for c in cols)


def solve(m, v):
    """A particular solution x of m x = v, or None when inconsistent.

    Free variables are set to zero under the fixed pivot order, so the
    solution is deterministic.
    """
    return solve_columns(m, [v])[0]


def solve_columns(m, vectors):
    """Solve m x = v for several right-hand sides with one elimination.

    m.data holds den M, so with L the lcm of the right-hand sides'
    denominators, the augmented matrix [M | v] is L [den M | den v] over
    L den, in ints.
    """
    k = len(vectors)
    scale = lcm(*[x.denominator for vec in vectors for x in vec.values()])
    data = {key: v * scale for key, v in m.data.items()}
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            if not (0 <= i < m.rows):
                raise ValueError("right-hand side index out of range")
            if x:
                data[(i, m.cols + j)] = \
                    x.numerator * (scale // x.denominator) * m.den
    aug = SparseMatrix._trusted(m.rows, m.cols + k, data, scale * m.den)
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
