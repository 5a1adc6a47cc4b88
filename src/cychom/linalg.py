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

All operations are pure and deterministic: elimination inserts the rows
highest index first, reducing each only against the pivot rows its leading
columns meet, and solve() sets free variables to zero, so the particular
solutions and bases produced are reproducible bit for bit.  Elimination is
fraction-free; _echelon spells out why its integer rows give what rational
elimination would.
"""

from collections import defaultdict
from fractions import Fraction as QQ
from itertools import accumulate
from math import gcd, lcm

ZERO = QQ(0)
ONE = QQ(1)


def as_rational(x):
    """Coerce an int, string 'p/q', Fraction or rational to the scalar type."""
    if isinstance(x, float):
        raise TypeError("floats are not accepted; use strings or rationals")
    return QQ(x)


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
    def from_blocks(cls, blocks, row_dims, col_dims, dropped=()):
        """Assemble from {(block_row, block_col): block}; absent blocks are
        zero.  The rows in dropped are left out as the blocks are placed,
        and the others kept in order.

        Each key is checked to name a slot and each block's shape against
        that slot, so its entries land inside the slot, and slots do not
        overlap; a kept row moves to a distinct row below the number kept.
        So the entries are in range and at distinct positions.  They go
        over the lcm of the blocks' denominators, and only a block whose
        den differs is rescaled.  Every caller drops rows in the span of
        the rows kept, which keeps the row space, hence the kernel and the
        pivot columns of any echelon form.
        """
        row_off = list(accumulate(row_dims, initial=0))
        col_off = list(accumulate(col_dims, initial=0))
        # index[r] is the row that row r moves to, or None if it is dropped
        rows = row_off[-1]
        index = list(range(rows))
        if dropped:
            if min(dropped) < 0 or max(dropped) >= rows:
                raise ValueError("dropped row out of range")
            # a kept row moves up past the rows dropped above it
            kept = bytearray(b"\1") * rows
            for r in dropped:
                kept[r] = 0
            index = list(accumulate(kept, initial=-1))[1:]
            for r in dropped:
                index[r] = None
            rows = kept.count(1)
        den = lcm(*[b.den for b in blocks.values()])
        data = {}
        for (bi, bj), block in blocks.items():
            if not (0 <= bi < len(row_dims) and 0 <= bj < len(col_dims)):
                raise ValueError("block slot out of range")
            if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
                raise ValueError("block shape mismatch")
            ro, co = row_off[bi], col_off[bj]
            scale = den // block.den
            for (r, c), v in block.data.items():
                if (i := index[ro + r]) is not None:
                    data[(i, co + c)] = v * scale if scale != 1 else v
        return cls._trusted(rows, col_off[-1], data, den)

    @classmethod
    def hstack(cls, blocks):
        rows = blocks[0].rows if blocks else 0
        return cls.from_blocks({(0, j): b for j, b in enumerate(blocks)},
                               [rows], [b.cols for b in blocks])

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

    def columns(self):
        """All columns as sparse dicts, including zero columns."""
        return [{r: QQ(v, self.den) for r, v in col.items()}
                for col in self.integer_columns()]

    def integer_columns(self):
        """The stored ints of every column as sparse dicts: column j is
        integer_columns()[j] / den."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = v
        return cols

    def apply(self, vec):
        """Matrix times sparse vector dict."""
        out = {}
        for (r, c), v in self.data.items():
            x = vec.get(c)
            if x is not None:
                out[r] = out.get(r, ZERO) + v * x
        return {r: s / self.den for r, s in out.items() if s}

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

    def __matmul__(self, other):
        """The product, summed in integers over the product of the
        denominators, one column at a time: column j sums column k of self
        times other[k, j] for every k, so each sum is one column long
        whatever order the entries are stored in, and its zeros are dropped
        before the next column starts."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        left_cols, right_cols = {}, {}
        for (r, k), v in self.data.items():
            left_cols.setdefault(k, []).append((r, v))
        for (k, j), w in other.data.items():
            right_cols.setdefault(j, []).append((k, w))
        data = {}
        for j, column in right_cols.items():
            acc = {}
            for k, w in column:
                for r, v in left_cols.get(k, ()):
                    acc[r] = acc.get(r, 0) + v * w
            for r, s in acc.items():
                if s:
                    data[r, j] = s
        return SparseMatrix._trusted(self.rows, other.cols, data,
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
    coprime integers.  Rule: rows are inserted one at a time, highest row
    index first.  While the row's leading (least) column c lies below
    cols - rhs_cols and already has a pivot row, c is cleared against that
    row.  A row that reaches a free leading column becomes its pivot row;
    a row that empties, or keeps only right-hand-side columns, is a
    non-pivot row.  So every pivot row's least column is its pivot column.

    A stored row of m is den times the rational row, and each row starts
    divided by the gcd of its entries: a nonzero multiple of the rational
    row, in coprime integers.  To clear column c of row r against pivot row
    p, with a = r[c], pval = p[c] and g = gcd(a, pval), the row becomes
    (pval/g) r - (a/g) p, whose entry at c is 0, and is then divided by the
    gcd of its entries.  If r = x R and p = y P for the rows R, P that
    rational insertion in the same order holds, with x, y nonzero
    rationals, the new row is (x y P[c] / g) (R - (R[c]/P[c]) P): a nonzero
    multiple of rational insertion's update of R.  By induction every
    stored row is a nonzero rational multiple of the rational one, so:

    - supports are identical, hence the rule (which reads only leading
      columns) picks the same pivots in the same order;
    - the inconsistency test of solve_columns reads supports only;
    - back substitution (_back_substitute, behind kernel_basis and
      solve_columns) divides a sum of a row's entries by the same row's
      pivot entry, a quotient no scaling of the row changes.

    Any echelon form of the row space has the same pivot columns, and with
    the free coordinates at zero back substitution has one solution, so
    the insertion order decides the speed, not the results.  Descending row
    index keeps fill near the least measured (test_linalg.py bounds it);
    by row length or ascending index it grows several times over.
    """
    rows = defaultdict(dict)
    for (r, c), v in m.data.items():
        rows[r][c] = v
    pivot_limit = m.cols - rhs_cols
    pivot_rows = {}
    for r in sorted(rows, reverse=True):
        row = rows[r]
        g = gcd(*row.values())
        while row:
            if g != 1:
                for cc in row:
                    row[cc] //= g
            c = min(row)
            if c >= pivot_limit:
                break
            p = pivot_rows.get(c)
            if p is None:
                pivot_rows[c] = r
                break
            prow = rows[p]
            pval = prow[c]
            a = row[c]
            g = gcd(a, pval)
            s, t = pval // g, a // g
            if s != 1:
                for cc in row:
                    row[cc] *= s
            get = row.get
            for cc, vv in prow.items():
                nv = get(cc, 0) - t * vv
                if nv:
                    row[cc] = nv
                else:
                    del row[cc]
            g = gcd(*row.values())
    return [(r, c) for c, r in sorted(pivot_rows.items())], rows


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
    return [c for _, c in pivots]


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
    """Solve m x = v for several right-hand sides with one elimination of
    the augmented matrix [m | vectors]."""
    k = len(vectors)
    aug = SparseMatrix.hstack([m, SparseMatrix.from_columns(m.rows, vectors)])
    pivots, rows = _echelon(aug, rhs_cols=k)
    pivot_rows = {r for r, _ in pivots}
    # A non-pivot row with any remaining entry witnesses inconsistency for
    # the right-hand sides it touches: its reduction stopped only once no
    # entry of its m-part was left.
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
    # solve_columns is exact, so column j solves m x = e_j and m @ inv = I
    return SparseMatrix.from_columns(m.rows, cols)
