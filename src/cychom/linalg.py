"""Exact sparse linear algebra over the rationals, stored in integers.

Every homology computation in this package reduces to ranks, kernels and
particular solutions of sparse matrices over Q.  Arithmetic is exact; there
is no floating point anywhere.

A SparseMatrix stores its integer numerators by row, {row: {col: nonzero
int}} with no empty row, over one positive denominator: the rational
matrix is by_row / den.  The store is canonical (den >= 1, the gcd of den
and every stored numerator is 1, den == 1 for the zero matrix), so equal
rational matrices have equal stores.  Products, sums, Kronecker products,
block assembly and elimination multiply and add ints only, a row at a
time: a product sums rows of its right factor, as row-wise sparse formats
do (Gustavson, ACM TOMS 4, 1978), and elimination reduces copies of the
rows.  data, the same ints keyed by (row, col), is a view built afresh on
each read, for the tests and bench/tracing.py; the package never reads it.
The scalar type QQ = fractions.Fraction is the API edge: matrices are built
from rationals, and entries, columns, matrix-vector products and the
vectors of back substitution come out as QQ.  Vectors are sparse dicts
{index: rational} with zero entries absent.

All operations are pure and deterministic: elimination inserts the rows
highest index first, reducing each only against the pivot rows its leading
columns meet, and solve() sets free variables to zero, so the particular
solutions and bases produced are reproducible bit for bit.  Elimination is
fraction-free; _echelon spells out why its integer rows give what rational
elimination would.

A BlockMatrix is a block matrix left in its blocks, less some rows, and
the only block form here: elimination takes its rows straight from the
blocks, each under its index in the whole block matrix, so no assembled
copy of it is made or kept.
"""

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


def _flat(by_row):
    """The entries of by_row as {(row, col): int}: the data view."""
    return {(r, c): v for r, row in by_row.items() for c, v in row.items()}


class SparseMatrix:
    """Immutable sparse matrix over Q: the nonzero ints by_row over den.

    by_row maps each row with an entry to its {col: nonzero int} and den is
    a positive int; the store is canonical (see the module docstring).
    Entries are supplied as (row, col, rational) triples; duplicate
    positions accumulate and zeros are dropped.  data, the (row, col)-keyed
    form of the store, is a view built afresh on each read.
    """

    __slots__ = ("rows", "cols", "by_row", "den")

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
                row = values.setdefault(r, {})
                row[c] = row.get(c, 0) + v
        den = lcm(*[v.denominator for row in values.values()
                    for v in row.values()])
        by_row = {}
        for r, row in values.items():
            ints = {c: v.numerator * (den // v.denominator)
                    for c, v in row.items() if v}
            if ints:
                by_row[r] = ints
        self._store(rows, cols, by_row, den)

    def _store(self, rows, cols, by_row, den):
        self.rows = rows
        self.cols = cols
        if den != 1:
            # stop at the first row that leaves no common factor
            g = den
            for row in by_row.values():
                g = gcd(g, *row.values())
                if g == 1:
                    break
            else:
                den //= g
                by_row = {r: {c: v // g for c, v in row.items()}
                          for r, row in by_row.items()}
        self.by_row = by_row
        self.den = den

    @classmethod
    def _trusted(cls, rows, cols, by_row, den=1):
        """The matrix by_row / den, for by_row a dict {row: {col: nonzero
        int}} with no empty row and every position in range, and den > 0.

        __init__ checks every entry: index in range, value rational and not
        zero, position not seen before.  Each caller passes rows that meet
        all of these by construction, and says why next to the call.  Only
        the common factor of den and the entries is divided out here.  The
        row dicts become the matrix's own, so no caller changes them after.
        """
        m = cls.__new__(cls)
        m._store(rows, cols, by_row, den)
        return m

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, {i: {i: 1} for i in range(n)})

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

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return sum(map(len, self.by_row.values()))

    @property
    def data(self):
        """The store as {(row, col): int}, built on each read and not kept:
        the flat view tests and bench/tracing.py compare."""
        return _flat(self.by_row)

    def entries(self):
        """Sorted (row, col, value) triples."""
        return [(r, c, QQ(v, self.den)) for r in sorted(self.by_row)
                for c, v in sorted(self.by_row[r].items())]

    def columns(self):
        """All columns as sparse dicts, including zero columns."""
        return [{r: QQ(v, self.den) for r, v in col.items()}
                for col in self.integer_columns()]

    def integer_columns(self):
        """The stored ints of every column as sparse dicts: column j is
        integer_columns()[j] / den."""
        cols = [dict() for _ in range(self.cols)]
        for r, row in self.by_row.items():
            for c, v in row.items():
                cols[c][r] = v
        return cols

    def row_dicts(self):
        """The stored ints of every nonzero row, {row: {col: int}}: row r
        is row_dicts()[r] / den.  Copies of the rows, fresh on every call,
        which _echelon reduces in place."""
        return {r: dict(row) for r, row in self.by_row.items()}

    def apply(self, vec):
        """Matrix times sparse vector dict."""
        get = vec.get
        out = {}
        for r, row in self.by_row.items():
            s = ZERO
            for c, v in row.items():
                x = get(c)
                if x is not None:
                    s += v * x
            if s:
                out[r] = s / self.den
        return out

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix addition")
        # both operands go over the lcm of their denominators; only the
        # positions they share need a sum, a zero sum is dropped, and so is
        # a row that empties
        den = lcm(self.den, other.den)
        up, up_other = den // self.den, den // other.den
        by_row = {r: {c: v * up for c, v in row.items()}
                  for r, row in self.by_row.items()}
        for r, row in other.by_row.items():
            mine = by_row.get(r)
            if mine is None:
                by_row[r] = {c: v * up_other for c, v in row.items()}
                continue
            for c, v in row.items():
                s = mine.get(c, 0) + v * up_other
                if s:
                    mine[c] = s
                else:
                    del mine[c]
            if not mine:
                del by_row[r]
        return SparseMatrix._trusted(self.rows, self.cols, by_row, den)

    def __matmul__(self, other):
        """The product, summed in integers over the product of the
        denominators, one row at a time: row r sums self[r, k] times row k
        of other for every k, so each sum is one row long, and its zeros
        are dropped before the next row starts."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        right = other.by_row
        by_row = {}
        for r, row in self.by_row.items():
            acc = {}
            get = acc.get
            for k, v in row.items():
                other_row = right.get(k)
                if other_row is not None:
                    for j, w in other_row.items():
                        acc[j] = get(j, 0) + v * w
            acc = {j: s for j, s in acc.items() if s}
            if acc:
                by_row[r] = acc
        return SparseMatrix._trusted(self.rows, other.cols, by_row,
                                     self.den * other.den)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.shape == other.shape
                and self.den == other.den and self.by_row == other.by_row)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class BlockMatrix:
    """A block matrix {(block_row, block_col): block}, less the rows in
    dropped, left in its blocks; absent blocks are zero.

    The constructor checks that each key names a slot, each block's shape
    that slot's, and each dropped row a row, so rows, cols and shape are
    right from the start.  rank, pivot_columns and kernel_basis take a
    BlockMatrix as they take a SparseMatrix: _echelon reads row_dicts(),
    which places the blocks' rows straight into rows of the whole, so no
    assembled copy is made, and none is kept.  den and data, which
    bench/tracing.py reads, are views of the placed rows.
    """

    __slots__ = ("_blocks", "_row_off", "_col_off", "_dropped", "rows",
                 "cols")

    def __init__(self, blocks, row_dims, col_dims, dropped=()):
        row_off = list(accumulate(row_dims, initial=0))
        col_off = list(accumulate(col_dims, initial=0))
        dropped = frozenset(dropped)
        if dropped and (min(dropped) < 0 or max(dropped) >= row_off[-1]):
            raise ValueError("dropped row out of range")
        for (bi, bj), block in blocks.items():
            if not (0 <= bi < len(row_dims) and 0 <= bj < len(col_dims)):
                raise ValueError("block slot out of range")
            if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
                raise ValueError("block shape mismatch")
        self._blocks = blocks
        self._row_off = row_off
        self._col_off = col_off
        self._dropped = dropped
        self.rows = row_off[-1] - len(dropped)
        self.cols = col_off[-1]

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def den(self):
        """The lcm of the blocks' denominators, which row_dicts() is
        over; the common factor of it and the placed rows, which dropped
        rows can leave, is not divided out."""
        return lcm(*[b.den for b in self._blocks.values()])

    @property
    def data(self):
        """The placed rows as {(row, col): int}, each under its index in
        the whole block matrix, built on each read and not kept."""
        return _flat(self.row_dicts())

    def row_dicts(self):
        """The entries as {row: {col: int}}, over the lcm of the blocks'
        denominators, fresh on every call.  Rows keep their index in the
        whole block matrix; a dropped row is never placed, so no index of
        the kept rows is needed.  The checked slots and shapes put every
        entry inside its slot, and slots do not overlap: the entries are in
        range and at distinct positions.  Each block row is placed as a new
        dict, a plain copy in the first block column when its den is the
        lcm, so _echelon never reduces a row of a block in place."""
        den = self.den
        dropped = self._dropped
        rows = {}
        for (bi, bj), block in self._blocks.items():
            ro, co = self._row_off[bi], self._col_off[bj]
            scale = den // block.den
            for r, row in block.by_row.items():
                if (i := ro + r) in dropped:
                    continue
                if co or scale != 1:
                    row = {co + c: v * scale for c, v in row.items()}
                else:
                    row = dict(row)
                have = rows.get(i)
                if have is None:
                    rows[i] = row
                else:
                    have.update(row)
        return rows


def _echelon(m, rhs_cols=0):
    """Row echelon form of m (its last rhs_cols columns excluded from pivots).

    m is a SparseMatrix or a BlockMatrix, whose rows m.row_dicts() gives.
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
    rows = m.row_dicts()
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


def _beside(m, vectors):
    """[m | vectors] as a BlockMatrix, the vectors its last columns."""
    return BlockMatrix({(0, 0): m, (0, 1): SparseMatrix.from_columns(
        m.rows, vectors)}, [m.rows], [m.cols, len(vectors)])


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
    pivots = pivot_columns(_beside(d_in, vectors))
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
    pivots, rows = _echelon(_beside(m, vectors), rhs_cols=k)
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
