"""Hochschild, cyclic, and periodic cyclic homology of an algebra over Q.

Every function here reads a mixed complex (C, b~, B~) from mixed.py, C(A)
or Omega(A), and works on either.  Hochschild homology is the homology of
(C, b~).  Cyclic homology is the homology of the total complex
Tot_n = C_n (+) C_{n-2} (+) ... with differential D = b~ + B~, where B~ is
not applied to the top summand (its image would leave the truncation).

Every command ranks the complex mixed.build_mixed_complex builds: Connes'
normalized complex C(A) for a unital A, with d (d-1)^n cells in degree n,
and Omega(A) only for an A without a unit.  The hh, hc and identities
commands build it for A; the hp command is a one-stage tower
(towers.continuity_check), so it ranks C(A), as every tower's final stage
does.  Only an earlier tower stage builds Omega(A) with a unit forgotten.

Periodic cyclic homology is only ever reported through the stabilization
route: once HH_n = 0 has been verified for all n > N up to the truncation
depth, the cyclic dimensions repeat with period two above N and the
repeating values are the periodic ones.  periodic_via_stabilization states
that rule once, for one algebra or a tower of them, and is the only code
that decides or words a refusal; the tool refuses rather than guesses.  Its
PeriodicReport is built whole with every stage's certificate, and every
certificate records how far vanishing was actually checked.

Every report is built from the pivot columns of its differentials
(report_from_pivots), and every command finds them the same way:
hochschild_and_cyclic eliminates only D_1 .. D_{max_degree+1}, once each,
and reads the pivots of b~_n off those of D_n (total_rank_split).
hochschild_homology and cyclic_homology are its two halves, so hh, hc, hp
and every tower stage eliminate the same matrices, whether or not HP is
then established; no command computes a cycle space.

Each D_n is eliminated from its blocks (a linalg.BlockMatrix), never
assembled, without the rows that D_{n-1} D_n = 0 proves dependent.  Let P
be the pivot columns of D_{n-1} and Q the other columns of Tot_{n-1}.  The
columns of D_{n-1} at P are independent, so D_{n-1}[:, P] has a left
inverse L, and D_{n-1} D_n = 0 gives D_n[P, :] = -L D_{n-1}[:, Q] D_n[Q, :]:
the rows of D_n at P are combinations of its rows at Q.  Leaving them out
keeps the row space, hence the null space, every linear relation among the
columns and the pivot columns, so no report changes; only the fill-in
those rows carried is gone.  A tower leaves out rows of its filtration
matrix the same way, with d F = F d for its chain map F in place of
d d = 0 for the rows of the final stage (towers._image_filtration); so
every report carries the pivot columns of its differentials, not only
their ranks.  Only two functions solve: homology_representatives, which
names classes, for kernel vectors, and lift_to_periodic, for each
b~ f_{2k+2} = -B~ f_{2k} of a lift.  Every Tot_n chain is a flat vector
in total_differential's layout, C_n first.

All dimension counts come from exact ranks, so a report either holds on the
nose or the run fails loudly.
"""

from bisect import bisect_left

from .errors import NoCertificate, ValidationError
from .linalg import (ONE, BlockMatrix, SparseMatrix, independent_modulo,
                     kernel_basis, pivot_columns, solve)


# ---------------------------------------------------------------- total complex

def total_components(n):
    """Degrees of the summands of Tot_n, descending: n, n-2, ..., 1 or 0."""
    return tuple(range(n, -1, -2))


def chain_degrees(theory, n):
    """Degrees of the summands of the degree-n chain space: (n,) for HH,
    those of Tot_n for HC."""
    return (n,) if theory == "HH" else total_components(n)


def differential_blocks(mc, theory, n):
    """(blocks, row degrees, column degrees) of the degree-n differential,
    n >= 1: b~ for HH, D = b~ + B~ for HC.

    blocks maps (row summand, column summand) to the differential's b~ and
    B~ blocks only, as linalg.BlockMatrix takes them; every other
    block is zero.  Summand i is C_{n-2i} of the source and C_{n-1-2i} of
    the target, so b~ stays in summand i and B~ moves it to i - 1.
    """
    src, dst = chain_degrees(theory, n), chain_degrees(theory, n - 1)
    blocks = {}
    for i, q in enumerate(src):
        if q >= 1:
            blocks[i, i] = mc.b_tilde[q]
        if i:
            blocks[i - 1, i] = mc.B_tilde[q]
    return blocks, dst, src


def _total_blocks(mc, n):
    """(blocks, row dims, column dims) of D = b~ + B~ from Tot_n to
    Tot_{n-1}, as linalg.BlockMatrix takes them."""
    if n < 1 or n > mc.n_max:
        raise ValidationError(f"total differential needs 1 <= n <= {mc.n_max}")
    blocks, dst, src = differential_blocks(mc, "HC", n)
    return (blocks, [mc.spaces[q].dim for q in dst],
            [mc.spaces[q].dim for q in src])


def total_differential(mc, n):
    """D = b~ + B~ from Tot_n to Tot_{n-1}, assembled: the only assembly
    of a block matrix in the package."""
    view = BlockMatrix(*_total_blocks(mc, n))
    # the view drops no rows, so its placed rows are nonempty, in range and
    # under D's own row indices
    return SparseMatrix._trusted(view.rows, view.cols, view.row_dicts(),
                                 view.den)


def total_rank_split(mc, n, dependent):
    """(pivot columns of b~_n, pivot columns of D_n) from one elimination.

    dependent is the pivot columns of D_{n-1}, () for n = 1; the rows of
    D_n there are combinations of its other rows (module docstring), so
    D_n is eliminated from its blocks without them, and the pivot columns
    are those of the whole D_n.

    _total_blocks puts the C_n summand first and applies no B~ to it,
    so the first dim C_n columns of D_n are exactly [b~_n; 0].
    Row operations keep every linear relation among the columns, so column
    j of an echelon form is a pivot exactly when it is not in the span of
    columns 0..j-1, whichever pivot rows were chosen (independent_modulo
    relies on the same fact).  Hence the pivots below dim C_n are those of
    [b~_n; 0], which are those of b~_n, and their counts are rank b~_n and
    rank D_n.
    """
    pivots = tuple(pivot_columns(BlockMatrix(*_total_blocks(mc, n),
                                             dependent)))
    return pivots[:bisect_left(pivots, mc.spaces[n].dim)], pivots


# ------------------------------------------------------------------- reports

class HomologyReport:
    """Per-degree dimensions for one theory, "HH" or "HC".

    dims[n] is the degree-n dimension and space_dims[n] = dim C_n for
    0 <= n <= max_degree, and boundary_pivots[n] the pivot columns of d_n,
    in increasing order, for 0 <= n <= max_degree + 1, () for d_0 = 0; so
    boundary_ranks[n] = rank d_n.  A tower keeps the pivots, not only the
    ranks: the rows of its filtration matrix at the pivot columns of d_n
    and d_{n-1} are dependent, and it drops them
    (towers._image_filtration).
    """

    __slots__ = ("theory", "max_degree", "dims", "space_dims",
                 "boundary_pivots")

    def __init__(self, theory, max_degree, dims, space_dims,
                 boundary_pivots):
        self.theory = theory
        self.max_degree = max_degree
        self.dims = dims
        self.space_dims = space_dims
        self.boundary_pivots = boundary_pivots

    @property
    def boundary_ranks(self):
        return tuple(len(p) for p in self.boundary_pivots)


def chain_dim(mc, theory, n):
    """dim C_n for HH, dim Tot_n for HC."""
    return sum(mc.spaces[q].dim for q in chain_degrees(theory, n))


def differential(mc, theory, n):
    """The degree-n differential, n >= 1: b~ for HH, D for HC."""
    return mc.b_tilde[n] if theory == "HH" else total_differential(mc, n)


def report_from_pivots(mc, theory, max_degree, pivots):
    """The HH or HC report through max_degree from pivots[n], the pivot
    columns of d_n.

    pivots runs over 0 <= n <= max_degree + 1, with pivots[0] = () (d_0 =
    0); H_n = dim C_n - rank d_n - rank d_{n+1}.
    """
    ranks = [len(p) for p in pivots]
    space_dims = [chain_dim(mc, theory, n) for n in range(max_degree + 1)]
    dims = []
    for n, space in enumerate(space_dims):
        d = space - ranks[n] - ranks[n + 1]
        if d < 0:
            raise ValidationError(f"negative homology dimension at degree {n}")
        dims.append(d)
    return HomologyReport(theory, max_degree, tuple(dims),
                          tuple(space_dims), tuple(pivots))


def _require_depth(mc, max_degree):
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative")
    if mc.n_max < max_degree + 1:
        raise ValidationError(
            f"mixed complex truncated at {mc.n_max}; degree {max_degree} "
            f"needs the differential at {max_degree + 1}")


def hochschild_and_cyclic(mc, max_degree):
    """(HH report, HC report) from one elimination per Tot differential.

    D_n is eliminated once for 1 <= n <= max_degree + 1, in order, and its
    pivots give those of b~_n as well (total_rank_split): Tot_n puts its
    C_n summand first at every degree, so no b~_n is eliminated on its own.
    Each D_n goes without its rows at the pivot columns of D_{n-1}, which
    D_{n-1} D_n = 0 makes combinations of the rest (module docstring); its
    pivot columns, and so both reports, are those of the whole D_n.
    """
    _require_depth(mc, max_degree)
    b, d = [()], [()]
    for n in range(1, max_degree + 2):
        b_pivots, d_pivots = total_rank_split(mc, n, d[-1])
        b.append(b_pivots)
        d.append(d_pivots)
    return (report_from_pivots(mc, "HH", max_degree, b),
            report_from_pivots(mc, "HC", max_degree, d))


def hochschild_homology(mc, max_degree):
    """HH_0 .. HH_{max_degree}, the HH report of hochschild_and_cyclic; mc
    must reach one degree beyond the top."""
    return hochschild_and_cyclic(mc, max_degree)[0]


def cyclic_homology(mc, max_degree):
    """HC_0 .. HC_{max_degree}, the HC report of hochschild_and_cyclic."""
    return hochschild_and_cyclic(mc, max_degree)[1]


def homology_representatives(mc, theory, degree):
    """Independent class representatives at one degree of one theory.

    theory is "HH" (cycles in C_degree modulo b~-boundaries) or "HC"
    (cycles in Tot_degree modulo total boundaries, as flat vectors).
    """
    if degree < 0 or degree + 1 > mc.n_max:
        raise ValidationError(
            f"representatives at degree {degree} need depth {degree + 1}")
    cycles = (tuple({i: ONE} for i in range(mc.spaces[0].dim)) if degree == 0
              else kernel_basis(differential(mc, theory, degree)))
    return independent_modulo(differential(mc, theory, degree + 1), cycles)[1]


# ------------------------------------------------------------- stabilization

class StabilizationCertificate:
    """Evidence that HH vanishes above some bound, up to the truncation.

    vanishing_bound is the least N with HH_n = 0 for N < n <= checked_through.
    Built with the stage's HC report, it also records the cyclic degrees N
    stabilizes and whether HC repeats two degrees up at each, None where
    that is truncated; hh --certificate passes none, so those four are None.
    """

    __slots__ = ("vanishing_bound", "verified_degrees", "checked_through",
                 "even_degree", "odd_degree", "even_repeat_equal",
                 "odd_repeat_equal")

    def __init__(self, vanishing_bound, verified_degrees, checked_through,
                 even_degree, odd_degree, even_repeat_equal,
                 odd_repeat_equal):
        self.vanishing_bound = vanishing_bound
        self.verified_degrees = verified_degrees
        self.checked_through = checked_through
        self.even_degree = even_degree
        self.odd_degree = odd_degree
        self.even_repeat_equal = even_repeat_equal
        self.odd_repeat_equal = odd_repeat_equal


def stabilization_certificate(hh, hc=None):
    """Least N <= max_degree - 2 with HH_n = 0 for N < n <= max_degree.

    Reads the HH report hh through its max_degree, and the HC report hc of
    the same complex, when given, at the degrees N stabilizes: the least
    even degree above N and the odd one after it.  Returns None when no
    such bound exists within the truncation; callers render that as
    NOT_ESTABLISHED.  The certificate claims nothing beyond the degrees
    actually checked.
    """
    max_degree = hh.max_degree
    bound = max((n for n in range(1, max_degree + 1) if hh.dims[n]),
                default=0)
    if bound > max_degree - 2:
        return None
    degrees = repeats = (None, None)
    if hc is not None:
        even = 2 * (bound // 2 + 1)
        degrees = (even, even + 1)
        repeats = tuple(hc.dims[q + 2] == hc.dims[q] if q + 2 <= max_degree
                        else None for q in degrees)
    return StabilizationCertificate(
        bound, tuple(range(bound + 1, max_degree + 1)), max_degree,
        *degrees, *repeats)


class PeriodicReport:
    """HP of every stage of a tower, read under one common vanishing bound.

    common_bound is the largest stage bound and even_degree, odd_degree the
    cyclic degrees it stabilizes; dims[i] is stage i's (HP_even, HP_odd),
    and certificates[i] its own StabilizationCertificate.
    """

    __slots__ = ("common_bound", "even_degree", "odd_degree", "dims",
                 "certificates")

    def __init__(self, common_bound, even_degree, odd_degree, dims,
                 certificates):
        self.common_bound = common_bound
        self.even_degree = even_degree
        self.odd_degree = odd_degree
        self.dims = dims
        self.certificates = certificates


def periodic_via_stabilization(hh_reports, hc_reports):
    """The PeriodicReport of stages under a common bound, or refusal.

    A single algebra is one stage; a tower lists its stages in order, each
    with the HH and HC reports of hochschild_and_cyclic.  Each stage needs
    its own certificate (stabilization_certificate), and the common bound
    is the largest of theirs.  HP is read at the cyclic degrees the common
    bound stabilizes, so it holds only when they fit under the truncation;
    periodic dimensions are never extrapolated.  Otherwise this raises
    NoCertificate, naming the first stage without a certificate if there
    is one.  This is the only code that decides or words an HP refusal.

    Each stage's certificate is its own: its bound, and the degrees that
    bound stabilizes.  HC there must equal HC at the common degrees
    (ValidationError otherwise).
    """
    max_degree = hh_reports[0].max_degree
    certs = tuple(stabilization_certificate(hh, hc)
                  for hh, hc in zip(hh_reports, hc_reports))
    for i, cert in enumerate(certs):
        if cert is None:
            raise NoCertificate(f"stage {i} has no vanishing certificate "
                                f"within {max_degree}")
    # the common bound is the largest, and stabilizes where its stage does
    top = max(certs, key=lambda cert: cert.vanishing_bound)
    common, even_deg, odd_deg = (top.vanishing_bound, top.even_degree,
                                 top.odd_degree)
    # every bound is at most max_degree - 2, but the odd degree the common
    # one stabilizes may still lie past the truncation
    if odd_deg > max_degree:
        raise NoCertificate(
            f"common bound {common} stabilizes at degrees {even_deg}, "
            f"{odd_deg}, beyond truncation {max_degree}")
    dims = tuple((hc.dims[cert.even_degree], hc.dims[cert.odd_degree])
                 for cert, hc in zip(certs, hc_reports))
    if any(pair != (hc.dims[even_deg], hc.dims[odd_deg])
           for pair, hc in zip(dims, hc_reports)):
        raise ValidationError(
            "stabilized cyclic dimensions disagree between the stage "
            "bound and the common bound")
    return PeriodicReport(common, even_deg, odd_deg, dims, certs)


# ------------------------------------------------------------------- lifting

class EvenLift:
    """An even cycle extended through the periodicity tower.

    components[2k] solves b~ f_{2k+2} = -B~ f_{2k} for all consecutive even
    degrees from the starting degree up to top_degree; space_dims[q] =
    dim C_q.
    """

    __slots__ = ("top_degree", "components", "space_dims")

    def __init__(self, top_degree, components, space_dims):
        self.top_degree = top_degree
        self.components = components
        self.space_dims = space_dims

    def truncate(self, n):
        """The flat Tot_n vector, in total_differential's layout, made of
        the components of degree <= n; n is even and at most top_degree."""
        flat, at = {}, 0
        for q in total_components(n):
            for i, v in self.components.get(q, {}).items():
                flat[at + i] = v
            at += self.space_dims[q]
        return flat


class ObstructedLift:
    """A failed extension step, with the cycle that witnesses the failure.

    The solve at chain degree `degree` was inconsistent; `witness` is an
    exact b~-cycle in degree witness_degree that is provably not a boundary,
    so the Hochschild homology there is nonzero.  partial holds the
    components found before the failure.
    """

    __slots__ = ("degree", "witness_degree", "witness", "partial")

    def __init__(self, degree, witness_degree, witness, partial):
        self.degree = degree
        self.witness_degree = witness_degree
        self.witness = witness
        self.partial = partial


def lift_to_periodic(c, degree, mc):
    """Extend an even cycle upward by solving b~ f_{2k+2} = -B~ f_{2k}.

    c is a flat Tot_degree vector in total_differential's layout (the C_degree
    summand first), with D c = 0 for the D_degree the ranks use.  Returns an
    EvenLift reaching the largest even degree <= mc.n_max, or an
    ObstructedLift at the first inconsistent solve.
    """
    top = mc.n_max - mc.n_max % 2
    if degree % 2 or not 0 <= degree <= top:
        raise ValidationError(f"lift starts from an even degree <= {top}")
    dims = tuple(mc.spaces[q].dim for q in range(top + 1))
    comps, at = {}, 0
    for q in total_components(degree):
        part = {i - at: v for i, v in c.items() if at <= i < at + dims[q] and v}
        if part:
            comps[q] = part
        at += dims[q]
    if any(not 0 <= i < at for i in c):
        raise ValidationError(f"coordinate out of range in Tot_{degree}")
    if degree and total_differential(mc, degree).apply(c):
        raise ValidationError(f"D_{degree} is nonzero on the chain")
    for k in range(degree // 2, top // 2):
        witness = mc.B_tilde[2 * k].apply(comps.get(2 * k, {}))
        rhs = {i: -v for i, v in witness.items()}
        found = solve(mc.b_tilde[2 * k + 2], rhs)
        if found is None:
            return ObstructedLift(degree=2 * k + 2, witness_degree=2 * k + 1,
                                  witness=witness, partial=comps)
        if found:
            comps[2 * k + 2] = found
    return EvenLift(top_degree=top, components=comps, space_dims=dims)
