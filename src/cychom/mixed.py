"""The mixed complex of noncommutative differential forms, as sparse matrices.

For an algebra A (unital or not), the chain space in degree n >= 1 is
Omega^n = A^{(n+1) tensor} (+) A^{(n tensor)}, written (top, bottom), and
Omega^0 = A.  On tensor powers the operators are

  b'(a_1 x ... x a_n) = sum_{i=1}^{n-1} (-1)^{i+1} a_1 x ... x a_i a_{i+1} x ... x a_n
  b  = b' + the wrap term (-1)^{n-1} a_n a_1 x a_2 x ... x a_{n-1}
  lambda(a_1 x ... x a_n) = (-1)^{n-1} a_n x a_1 x ... x a_{n-1}
  N = sum_{i=0}^{n-1} lambda^i

and the two differentials are the block matrices

  b~(x, y) = (b x + (1 - lambda) y, -b' y)        (degree -1)
  B~(x, y) = (0, N x)                             (degree +1)

In degree 0/1 this specializes to b~(x, y) = b(x) into Omega^0 = A and
B~(a) = (0, a) into Omega^1.  The identities b~^2 = 0, b~B~ + B~b~ = 0,
B~^2 = 0 hold exactly and are checkable per degree.

Tensor words are indexed lexicographically with the first factor most
significant, so the word (i_1, ..., i_n) has index sum i_t * dim^(n-t).
"""

from dataclasses import dataclass
from itertools import product

from .errors import DegreeOutOfRange, SizeCapExceeded
from .linalg import ONE, SparseMatrix

DEFAULT_CELL_CAP = 2_000_000


def word_to_index(word, dim):
    i = 0
    for a in word:
        i = i * dim + a
    return i


def index_to_word(i, n, dim):
    word = [0] * n
    for t in range(n - 1, -1, -1):
        i, word[t] = divmod(i, dim)
    return tuple(word)


@dataclass(frozen=True)
class ChainSpace:
    """Dimensions of Omega^n: top = A^{(n+1)}, bottom = A^{(n)} (none at n=0)."""

    degree: int
    top_dim: int
    bottom_dim: int

    @property
    def dim(self):
        return self.top_dim + self.bottom_dim


def chain_space(algebra_dim, n):
    top = algebra_dim ** (n + 1)
    bottom = algebra_dim ** n if n >= 1 else 0
    return ChainSpace(n, top, bottom)


def _face_sum(a, n, wrap):
    """b' on A^{(n tensor)}, plus the wrap term of b when wrap is set."""
    if n < 1:
        raise DegreeOutOfRange("b and b' are defined for n >= 1")
    d = a.dim
    if n == 1:
        return SparseMatrix(0, d)

    def gen():
        for w in product(range(d), repeat=n):
            col = word_to_index(w, d)
            for i in range(1, n):
                sign = ONE if i % 2 == 1 else -ONE
                for k, c in a.product(w[i - 1], w[i]).items():
                    target = w[:i - 1] + (k,) + w[i + 1:]
                    yield word_to_index(target, d), col, sign * c
            if wrap:
                sign = ONE if (n - 1) % 2 == 0 else -ONE
                for k, c in a.product(w[n - 1], w[0]).items():
                    target = (k,) + w[1:n - 1]
                    yield word_to_index(target, d), col, sign * c

    return SparseMatrix(d ** (n - 1), d ** n, gen())


def hochschild_b(a, n):
    """b on A^{(n tensor)} -> A^{(n-1 tensor)}; n = 1 maps to the zero space."""
    return _face_sum(a, n, wrap=True)


def bar_bprime(a, n):
    """b' on A^{(n tensor)}: the alternating sum without the wrap term."""
    return _face_sum(a, n, wrap=False)


def cyclic_lambda(a, n):
    """The signed cyclic shift on A^{(n tensor)}; lambda^n = identity."""
    if n < 1:
        raise DegreeOutOfRange("cyclic_lambda defined for n >= 1")
    d = a.dim
    sign = ONE if (n - 1) % 2 == 0 else -ONE

    def gen():
        for w in product(range(d), repeat=n):
            target = (w[n - 1],) + w[:n - 1]
            yield word_to_index(target, d), word_to_index(w, d), sign

    return SparseMatrix(d ** n, d ** n, gen())


def norm_N(a, n):
    """N = sum of lambda^i for i = 0..n-1 on A^{(n tensor)}."""
    if n < 1:
        raise DegreeOutOfRange("norm_N defined for n >= 1")
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


@dataclass(frozen=True, eq=False)
class MixedComplex:
    """Chain spaces and both differentials of Omega(A~) up to degree n_max.

    b_tilde[n] : Omega^n -> Omega^{n-1} for 1 <= n <= n_max;
    B_tilde[n] : Omega^n -> Omega^{n+1} for 0 <= n <= n_max - 1.
    """

    algebra: object
    n_max: int
    spaces: tuple
    b_tilde: dict
    B_tilde: dict

    def space(self, n):
        return self.spaces[n]


def build_mixed_complex(a, n_max, cell_cap=DEFAULT_CELL_CAP):
    """Assemble all chain spaces and differentials up to degree n_max."""
    if n_max < 0:
        raise DegreeOutOfRange("n_max must be nonnegative")
    top_cells = a.dim ** (n_max + 1) + (a.dim ** n_max if n_max >= 1 else 0)
    if top_cells > cell_cap:
        raise SizeCapExceeded(
            f"chain space in degree {n_max} has {top_cells} cells; cap {cell_cap}")
    spaces = tuple(chain_space(a.dim, n) for n in range(n_max + 1))
    b_tilde = {}
    B_tilde = {}
    for n in range(1, n_max + 1):
        src, dst = spaces[n], spaces[n - 1]
        one_minus_lambda = (SparseMatrix.identity(a.dim ** n)
                            - cyclic_lambda(a, n))
        if n == 1:
            grid = [[hochschild_b(a, 2), one_minus_lambda]]
            row_dims = [dst.top_dim]
        else:
            grid = [[hochschild_b(a, n + 1), one_minus_lambda],
                    [None, -bar_bprime(a, n)]]
            row_dims = [dst.top_dim, dst.bottom_dim]
        b_tilde[n] = SparseMatrix.from_blocks(
            grid, row_dims, [src.top_dim, src.bottom_dim])
    for n in range(0, n_max):
        src, dst = spaces[n], spaces[n + 1]
        norm = norm_N(a, n + 1)
        if n == 0:
            grid = [[SparseMatrix.zeros(dst.top_dim, src.top_dim)], [norm]]
            col_dims = [src.top_dim]
        else:
            grid = [[None, None], [norm, None]]
            col_dims = [src.top_dim, src.bottom_dim]
        B_tilde[n] = SparseMatrix.from_blocks(
            grid, [dst.top_dim, dst.bottom_dim], col_dims)
    return MixedComplex(a, n_max, spaces, b_tilde, B_tilde)


@dataclass(frozen=True)
class MixedIdentityReport:
    """Exact per-degree checks of the three mixed-complex identities.

    bb[n] checks b~ b~ = 0 out of degree n; anticommute[n] checks
    b~ B~ + B~ b~ = 0 on degree n; BB[n] checks B~ B~ = 0 out of degree n.
    witness is None when everything passes, else (identity, degree, entry).
    """

    bb: dict
    anticommute: dict
    BB: dict
    witness: tuple | None

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


def tensor_power(m, k):
    """k-fold Kronecker power of a sparse matrix (k = 0 gives the 1x1 unit)."""
    out = SparseMatrix.identity(1)
    for _ in range(k):
        cur = {}
        for (r1, c1), v1 in out.data.items():
            for (r2, c2), v2 in m.data.items():
                cur[(r1 * m.rows + r2, c1 * m.cols + c2)] = v1 * v2
        out = SparseMatrix(out.rows * m.rows, out.cols * m.cols,
                           ((r, c, v) for (r, c), v in cur.items()))
    return out


def induced_chain_map(f, n_max):
    """Degree-wise matrices f^{(n+1 tensor)} (+) f^{(n tensor)} on Omega^n.

    Validates multiplicativity first; the result commutes with b~ and B~.
    """
    f.validate()
    maps = {}
    src_d, dst_d = f.source.dim, f.target.dim
    for n in range(0, n_max + 1):
        top = tensor_power(f.matrix, n + 1)
        if n == 0:
            maps[n] = top
            continue
        bottom = tensor_power(f.matrix, n)
        maps[n] = SparseMatrix.from_blocks(
            [[top, None], [None, bottom]],
            [dst_d ** (n + 1), dst_d ** n], [src_d ** (n + 1), src_d ** n])
    return maps
