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

from itertools import product
from math import lcm

from .errors import DegreeOutOfRange, SizeCapExceeded
from .linalg import ONE, SparseMatrix, _quotients

# The one size guard for chain complexes: build_mixed_complex refuses a
# complex whose top chain space would hold more cells than this.  Read at
# call time, so it can be lowered for a single run.
CELL_CAP = 2_000_000


class ChainSpace:
    """Dimensions of Omega^n: top = A^{(n+1)}, bottom = A^{(n)} (none at n=0)."""

    __slots__ = ("degree", "top_dim", "bottom_dim")

    def __init__(self, degree, top_dim, bottom_dim):
        self.degree = degree
        self.top_dim = top_dim
        self.bottom_dim = bottom_dim

    @property
    def dim(self):
        return self.top_dim + self.bottom_dim


def chain_space(algebra_dim, n):
    top = algebra_dim ** (n + 1)
    bottom = algebra_dim ** n if n >= 1 else 0
    return ChainSpace(n, top, bottom)


# b, b' and N below sum their entries in ints, scaled by a common
# denominator, and drop a position whose sum reaches zero; lambda is a
# permutation.  Row indices are computed in range, so the entries go to
# SparseMatrix._trusted as nonzero QQ.

def _face_sum(a, n, wrap):
    """b' on A^{(n tensor)}, plus the wrap term of b when wrap is set.

    Face i merges letters i and i+1 of the word at column col: for e_x e_y
    = sum c_k e_k it hits prefix * d^(n-i) + k * d^(n-i-1) + suffix, where
    prefix = col // d^(n-i+1) and suffix = col mod d^(n-i-1) index the
    letters before and after the pair.  The wrap term sends the word to
    k * d^(n-2) + middle, for e_{w_n} e_{w_1} = sum c_k e_k.
    """
    if n < 1:
        raise DegreeOutOfRange("b and b' are defined for n >= 1")
    d = a.dim
    if n == 1:
        return SparseMatrix(0, d)
    den = lcm(*[c.denominator for vec in a.table.values() for c in vec.values()])
    # e_x e_y as (k, C, -C) with C = den * c_k: both signs are taken once
    signed = [[tuple((k, c.numerator * (den // c.denominator),
                      -c.numerator * (den // c.denominator))
                     for k, c in a.product(x, y).items())
               for y in range(d)] for x in range(d)]
    pw = [d ** e for e in range(n + 1)]
    # face i as (letter index, d^(n-i+1), d^(n-i), d^(n-i-1), sign slot)
    faces = [(i - 1, pw[n - i + 1], pw[n - i], pw[n - i - 1], 2 - i % 2)
             for i in range(1, n)]
    wrap_slot = 1 if (n - 1) % 2 == 0 else 2
    acc = {}
    for col, w in enumerate(product(range(d), repeat=n)):
        hits = [(col // high * mid + col % low, low, signed[w[at]][w[at + 1]],
                 slot) for at, high, mid, low, slot in faces]
        if wrap:
            hits.append((col % pw[n - 1] // d, pw[n - 2],
                         signed[w[n - 1]][w[0]], wrap_slot))
        for base, step, terms, slot in hits:
            for term in terms:
                key = (base + term[0] * step, col)
                s = acc.get(key, 0) + term[slot]
                if s:
                    acc[key] = s
                else:
                    del acc[key]
    return SparseMatrix._trusted(pw[n - 1], pw[n], _quotients(acc, den))


def hochschild_b(a, n):
    """b on A^{(n tensor)} -> A^{(n-1 tensor)}; n = 1 maps to the zero space."""
    return _face_sum(a, n, wrap=True)


def bar_bprime(a, n):
    """b' on A^{(n tensor)}: the alternating sum without the wrap term."""
    return _face_sum(a, n, wrap=False)


def cyclic_lambda(a, n):
    """The signed cyclic shift on A^{(n tensor)}; lambda^n = identity.

    It moves the last letter to the front: column i goes to row
    (i mod d) * d^(n-1) + i div d, a permutation.
    """
    if n < 1:
        raise DegreeOutOfRange("cyclic_lambda defined for n >= 1")
    d = a.dim
    top = d ** (n - 1)
    sign = ONE if (n - 1) % 2 == 0 else -ONE
    return SparseMatrix._trusted(d ** n, d ** n, {
        (i % d * top + i // d, i): sign for i in range(d ** n)})


def norm_N(a, n):
    """N = sum of lambda^i for i = 0..n-1 on A^{(n tensor)}.

    The n rotations of a periodic word repeat, so their signs add up.
    """
    if n < 1:
        raise DegreeOutOfRange("norm_N defined for n >= 1")
    d = a.dim
    top = d ** (n - 1)
    step = 1 if (n - 1) % 2 == 0 else -1
    acc = {}
    for col in range(d ** n):
        cur, sign = col, 1
        for _ in range(n):
            key = (cur, col)
            s = acc.get(key, 0) + sign
            if s:
                acc[key] = s
            else:
                del acc[key]
            cur = cur % d * top + cur // d
            sign *= step
    return SparseMatrix._trusted(d ** n, d ** n, _quotients(acc, 1))


class MixedComplex:
    """Chain spaces and both differentials of Omega(A~) up to degree n_max.

    b_tilde[n] : Omega^n -> Omega^{n-1} for 1 <= n <= n_max;
    B_tilde[n] : Omega^n -> Omega^{n+1} for 0 <= n <= n_max - 1.
    """

    __slots__ = ("algebra", "n_max", "spaces", "b_tilde", "B_tilde")

    def __init__(self, algebra, n_max, spaces, b_tilde, B_tilde):
        self.algebra = algebra
        self.n_max = n_max
        self.spaces = spaces
        self.b_tilde = b_tilde
        self.B_tilde = B_tilde


def build_mixed_complex(a, n_max):
    """Assemble all chain spaces and differentials up to degree n_max.

    Raises SizeCapExceeded, before building anything, when Omega^{n_max}
    has more than CELL_CAP cells.
    """
    if n_max < 0:
        raise DegreeOutOfRange("n_max must be nonnegative")
    top_cells = a.dim ** (n_max + 1) + (a.dim ** n_max if n_max >= 1 else 0)
    if top_cells > CELL_CAP:
        raise SizeCapExceeded(
            f"chain space in degree {n_max} has {top_cells} cells; cap {CELL_CAP}")
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
