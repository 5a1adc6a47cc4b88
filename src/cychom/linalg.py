"""Exact sparse linear algebra over arbitrary-precision rationals.

Every homology computation in this package reduces to ranks, kernels and
particular solutions of sparse matrices over Q.  Arithmetic is exact; there
is no floating point anywhere.  The scalar type is gmpy2.mpq when available
(an order of magnitude faster) and fractions.Fraction otherwise; the two are
interchangeable in arithmetic, comparison and hashing.

Vectors are sparse dicts {index: rational} with zero entries absent.
All operations are pure and deterministic: elimination processes columns left
to right and picks the pivot row with the fewest stored entries (ties broken
by the lowest row index), and solve() sets free variables to zero, so the
particular solutions and bases produced are reproducible bit for bit.
"""

from dataclasses import dataclass

from .errors import CompositionNonzero

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)


def as_rational(x):
    """Coerce an int, string 'p/q', Fraction or rational to the scalar type."""
    if isinstance(x, float):
        raise TypeError("floats are not accepted; use strings or rationals")
    return QQ(x)


def vec_add(u, v):
    w = dict(u)
    for i, x in v.items():
        s = w.get(i, ZERO) + x
        if s:
            w[i] = s
        else:
            w.pop(i, None)
    return w


def vec_sub(u, v):
    return vec_add(u, vec_scale(v, -ONE))


def vec_scale(u, c):
    if not c:
        return {}
    return {i: c * x for i, x in u.items()}


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
    def zeros(cls, rows, cols):
        return cls(rows, cols)

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
        """Assemble from a 2D list of blocks (None = zero block)."""
        row_off = [0]
        for d in row_dims:
            row_off.append(row_off[-1] + d)
        col_off = [0]
        for d in col_dims:
            col_off.append(col_off[-1] + d)

        def gen():
            for bi, row_of_blocks in enumerate(grid):
                for bj, block in enumerate(row_of_blocks):
                    if block is None:
                        continue
                    if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
                        raise ValueError("block shape mismatch")
                    ro, co = row_off[bi], col_off[bj]
                    for (r, c), v in block.data.items():
                        yield ro + r, co + c, v

        return cls(row_off[-1], col_off[-1], gen())

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

    def transpose(self):
        return SparseMatrix(self.cols, self.rows,
                            ((c, r, v) for (r, c), v in self.data.items()))

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

    def scale(self, c):
        c = as_rational(c)
        return SparseMatrix(self.rows, self.cols,
                            ((r, cc, c * v) for (r, cc), v in self.data.items()))

    def __neg__(self):
        return self.scale(-ONE)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix addition")

        def gen():
            for (r, c), v in self.data.items():
                yield r, c, v
            for (r, c), v in other.data.items():
                yield r, c, v

        return SparseMatrix(self.rows, self.cols, gen())

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        left_cols = {}
        for (r, c), v in self.data.items():
            left_cols.setdefault(c, []).append((r, v))
        acc = {}
        for (k, j), w in other.data.items():
            hits = left_cols.get(k)
            if hits is None:
                continue
            for r, v in hits:
                key = (r, j)
                s = acc.get(key, ZERO) + v * w
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return SparseMatrix(self.rows, other.cols,
                            ((r, c, v) for (r, c), v in acc.items()))

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.shape == other.shape
                and self.data == other.data)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def to_dense(self):
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.data.items():
            out[r][c] = v
        return out


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient given by a list of independent sparse vectors."""

    ambient: int
    basis: tuple

    def __len__(self):
        return len(self.basis)


def _echelon(m, rhs_cols=0):
    """Row echelon form of m (its last rhs_cols columns excluded from pivots).

    Returns (pivots, rows) where pivots is a list of (row, col) in increasing
    column order and rows maps row index to its reduced sparse row dict.
    Pivot rule: columns left to right; pivot row = fewest stored entries,
    ties by lowest row index.  After processing, every pivot row has support
    only in its pivot column and later ones.
    """
    rows = {}
    col_rows = {}
    for (r, c), v in m.data.items():
        rows.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
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
            f = rrow[c] / pval
            for cc, vv in prow.items():
                cur = rrow.get(cc)
                nv = (cur - f * vv) if cur is not None else -f * vv
                if nv:
                    rrow[cc] = nv
                    if cc != c:
                        col_rows.setdefault(cc, set()).add(r)
                else:
                    if cur is not None:
                        del rrow[cc]
        if len(done) == m.rows:
            break
    return pivots, rows


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
    basis = []
    for f in free_cols:
        vec = {f: ONE}
        for r, c in reversed(pivots):
            row = rows[r]
            s = ZERO
            for cc, vv in row.items():
                if cc == c:
                    continue
                x = vec.get(cc)
                if x is not None:
                    s += vv * x
            if s:
                vec[c] = -s / row[c]
        basis.append(vec)
    return Subspace(m.cols, tuple(basis))


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
        x = {}
        for r, c in reversed(pivots):
            row = rows[r]
            s = row.get(rhs_col, ZERO)
            for cc, vv in row.items():
                if cc == c or cc >= m.cols:
                    continue
                xv = x.get(cc)
                if xv is not None:
                    s -= vv * xv
            if s:
                x[c] = s / row[c]
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


def homology_dimension(d_in, d_out):
    """dim ker(d_out) - rank(d_in) for consecutive differentials.

    Convention: d_out maps C_n to C_{n-1} and d_in maps C_{n+1} to C_n, so
    cols(d_out) = rows(d_in) = dim C_n.  Raises CompositionNonzero when
    d_out . d_in != 0, which signals a broken complex upstream.
    """
    if d_out.cols != d_in.rows:
        raise ValueError("differentials not composable: cols(d_out) != rows(d_in)")
    comp = d_out @ d_in
    if not comp.is_zero():
        witness = comp.first_nonzero()
        raise CompositionNonzero(f"d_out . d_in has nonzero entry {witness}")
    return (d_out.cols - rank(d_out)) - rank(d_in)
