"""Hochschild, cyclic, and periodic cyclic homology of an algebra over Q.

Every function here reads a mixed complex (C, b~, B~) from mixed.py, C(A)
or Omega(A), and works on either.  Hochschild homology is the homology of
(C, b~).  Cyclic homology is the homology of the total complex
Tot_n = C_n (+) C_{n-2} (+) ... with differential D = b~ + B~, where B~ is
not applied to the top summand (its image would leave the truncation).

The hh and hc commands rank Omega(A), built with A's unit forgotten
(omega_complex), although the normalized complex C(A) of a unital A is
smaller: the benchmark's own test pins Omega's elimination plan for hh, and
C(Q[Z/2]) would repeat an elimination there.  The hp command is a one-stage
tower (towers.continuity_check), so it ranks C(A), as every tower stage's
final complex does.

Periodic cyclic homology is only ever reported through the stabilization
route: once HH_n = 0 has been verified for all n > N up to the truncation
depth, the cyclic dimensions repeat with period two above N and the
repeating values are the periodic ones.  periodic_via_stabilization states
that rule once, for one algebra or a tower of them, and words every
refusal; the tool refuses rather than guesses, and every certificate records
how far vanishing was actually checked.

Every report is built from the ranks of its differentials
(report_from_ranks), and a run eliminates each differential once:
hochschild_homology ranks b~_n, and cyclic_homology D_n, for
1 <= n <= max_degree + 1.  HP needs both theories on one mixed complex:
hochschild_and_cyclic ranks b~_1 .. b~_{max_degree}; while HP can still be
established (hp_can_hold) it then eliminates D_{max_degree+1} once, which
yields rank b~_{max_degree+1} as well (total_rank_split), and ranks
D_1 .. D_{max_degree}; otherwise it ranks b~_{max_degree+1} and makes no
HC report.  Every stage of a tower, and so hp, goes through
hochschild_and_cyclic; no command computes a cycle space.  Only
homology_representatives, which names classes, solves for kernel vectors.

All dimension counts come from exact ranks, so a report either holds on the
nose or the run fails loudly.
"""

from .algebra import forget_unit
from .errors import DegreeOutOfRange, NoCertificate, NotACycle, ValidationError
from .linalg import (ONE, SparseMatrix, independent_modulo, kernel_basis,
                     pivot_columns, rank, solve)
from .mixed import build_mixed_complex


# ---------------------------------------------------------------- total complex

def total_components(n):
    """Degrees of the summands of Tot_n, descending: n, n-2, ..., 1 or 0."""
    return tuple(range(n, -1, -2))


def chain_degrees(theory, n):
    """Degrees of the summands of the degree-n chain space: (n,) for HH,
    those of Tot_n for HC."""
    return (n,) if theory == "HH" else total_components(n)


def differential_blocks(mc, theory, n):
    """(grid, row degrees, column degrees) of the degree-n differential,
    n >= 1: b~ for HH, D = b~ + B~ for HC, one block per pair of summands."""
    src, dst = chain_degrees(theory, n), chain_degrees(theory, n - 1)
    pos = {q: i for i, q in enumerate(dst)}
    grid = [[None] * len(src) for _ in dst]
    for si, q in enumerate(src):
        if q >= 1:
            grid[pos[q - 1]][si] = mc.b_tilde[q]
        if q + 1 in pos:
            grid[pos[q + 1]][si] = mc.B_tilde[q]
    return grid, dst, src


def total_differential(mc, n):
    """D = b~ + B~ from Tot_n to Tot_{n-1} as one block matrix."""
    if n < 1 or n > mc.n_max:
        raise DegreeOutOfRange(f"total differential needs 1 <= n <= {mc.n_max}")
    grid, dst, src = differential_blocks(mc, "HC", n)
    return SparseMatrix.from_blocks(
        grid,
        [mc.spaces[q].dim for q in dst],
        [mc.spaces[q].dim for q in src])


def total_rank_split(mc, n):
    """(rank b~_n, rank D_n) from one elimination of D_n.

    total_differential puts the C_n summand first and applies no B~ to it,
    so the first dim C_n columns of D_n are exactly [b~_n; 0].
    Row operations keep every linear relation among the columns, so column
    j of an echelon form is a pivot exactly when it is not in the span of
    columns 0..j-1, whichever pivot rows were chosen (independent_modulo
    relies on the same fact).  Hence the pivots below dim C_n count
    rank [b~_n; 0] = rank b~_n, and all the pivots count rank D_n.
    """
    pivots = pivot_columns(total_differential(mc, n))
    top = mc.spaces[n].dim
    return sum(1 for c in pivots if c < top), len(pivots)


class TotChainIndex:
    """A chain in Tot_n, stored per summand: components[q] lives in C_q."""

    __slots__ = ("degree", "components")

    def __init__(self, degree, components):
        self.degree = degree
        self.components = components

    def component(self, q):
        return self.components.get(q, {})


def check_tot_chain(mc, chain):
    """Validate parities, degree range, and coordinate ranges."""
    for q, vec in chain.components.items():
        if q < 0 or q > chain.degree or (q - chain.degree) % 2 != 0:
            raise ValidationError(
                f"component degree {q} invalid in Tot_{chain.degree}")
        if q > mc.n_max:
            raise DegreeOutOfRange(f"component degree {q} beyond truncation")
        d = mc.spaces[q].dim
        for i in vec:
            if not 0 <= i < d:
                raise ValidationError(f"coordinate {i} out of range in degree {q}")


# ------------------------------------------------------------------- reports

class HomologyReport:
    """Per-degree dimensions for one theory.

    theory is "HH", "HC", or "HP".  For HH and HC, dims[n] is the degree-n
    dimension and space_dims[n] = dim C_n for 0 <= n <= max_degree, and
    boundary_ranks[n] = rank d_n for 0 <= n <= max_degree + 1.  For HP, dims
    is the pair (even, odd) and certificate carries the stabilization data.
    """

    __slots__ = ("theory", "max_degree", "dims", "space_dims",
                 "boundary_ranks", "certificate")

    def __init__(self, theory, max_degree, dims, space_dims=None,
                 boundary_ranks=None, certificate=None):
        self.theory = theory
        self.max_degree = max_degree
        self.dims = dims
        self.space_dims = space_dims
        self.boundary_ranks = boundary_ranks
        self.certificate = certificate


def chain_dim(mc, theory, n):
    """dim C_n for HH, dim Tot_n for HC."""
    return sum(mc.spaces[q].dim for q in chain_degrees(theory, n))


def differential(mc, theory, n):
    """The degree-n differential, n >= 1: b~ for HH, D for HC."""
    return mc.b_tilde[n] if theory == "HH" else total_differential(mc, n)


def report_from_ranks(mc, theory, max_degree, ranks):
    """The HH or HC report through max_degree from ranks[n] = rank d_n.

    ranks runs over 0 <= n <= max_degree + 1, with ranks[0] = 0 (d_0 = 0);
    H_n = dim C_n - rank d_n - rank d_{n+1}.
    """
    space_dims = [chain_dim(mc, theory, n) for n in range(max_degree + 1)]
    dims = []
    for n, space in enumerate(space_dims):
        d = space - ranks[n] - ranks[n + 1]
        if d < 0:
            raise ValidationError(f"negative homology dimension at degree {n}")
        dims.append(d)
    return HomologyReport(theory, max_degree, tuple(dims),
                          space_dims=tuple(space_dims),
                          boundary_ranks=tuple(ranks))


def omega_complex(a, n_max):
    """Omega(A) through degree n_max: the complex hh and hc rank.

    It is built with A's unit forgotten.  For a unital A the normalized
    complex C(A), which hp ranks, has the same homology with d (d-1)^n cells
    in place of (d+1) d^n, but
    bench/tests/test_bench.py::test_traced_hh_counts_exactly pins Omega's
    plan for hh cyclic2 -d2: 3 eliminations, none repeated.  In C(Q[Z/2])
    b~_1 and b~_3 are the same zero 2x2 matrix, which the tracer counts as a
    repeat.  ROADMAP item 1 restates that test; hh and hc move to C(A) after
    it.
    """
    return build_mixed_complex(forget_unit(a), n_max)


def _require_depth(mc, max_degree):
    if max_degree < 0:
        raise DegreeOutOfRange("max_degree must be nonnegative")
    if mc.n_max < max_degree + 1:
        raise DegreeOutOfRange(
            f"mixed complex truncated at {mc.n_max}; degree {max_degree} "
            f"needs the differential at {max_degree + 1}")


def _ranked(theory, mc, max_degree):
    _require_depth(mc, max_degree)
    ranks = [0] + [rank(differential(mc, theory, n))
                   for n in range(1, max_degree + 2)]
    return report_from_ranks(mc, theory, max_degree, ranks)


def hochschild_homology(mc, max_degree):
    """HH_0 .. HH_{max_degree}; mc must reach one degree beyond the top."""
    return _ranked("HH", mc, max_degree)


def cyclic_homology(mc, max_degree):
    """HC_0 .. HC_{max_degree} from the total complex."""
    return _ranked("HC", mc, max_degree)


def hochschild_and_cyclic(mc, max_degree, floor=0):
    """(HH report, HC report or None) for an HP report that follows.

    floor is the least vanishing bound HP is held to: 0 for one algebra,
    and along a tower the earlier stages' largest bound.  b~_1 ..
    b~_{max_degree} are ranked first, since the refusal rule needs HH_1 ..
    HH_{max_degree-1}.  Taking HH_{max_degree} as 0, if HP can still be
    established above the larger of floor and their vanishing bound, one
    elimination of D_{max_degree+1} gives rank b~_{max_degree+1} as well
    (total_rank_split), and D_1 .. D_{max_degree} are ranked for the HC
    report.  Otherwise b~_{max_degree+1} is ranked and no HC report is
    made, so a refusal eliminates what hochschild_homology would.
    """
    _require_depth(mc, max_degree)
    top = max_degree + 1
    b = [0] + [rank(mc.b_tilde[n]) for n in range(1, top)]
    below = [mc.spaces[n].dim - b[n] - b[n + 1] for n in range(max_degree)]
    if not hp_can_hold(max(floor, vanishing_bound(below, max_degree - 1)),
                       max_degree):
        b.append(rank(mc.b_tilde[top]))
        return report_from_ranks(mc, "HH", max_degree, b), None
    b_top, d_top = total_rank_split(mc, top)
    d = [0] + [rank(total_differential(mc, n)) for n in range(1, top)]
    return (report_from_ranks(mc, "HH", max_degree, b + [b_top]),
            report_from_ranks(mc, "HC", max_degree, d + [d_top]))


def homology_representatives(mc, theory, degree):
    """Independent class representatives at one degree of one theory.

    theory is "HH" (cycles in C_degree modulo b~-boundaries) or "HC"
    (cycles in Tot_degree modulo total boundaries, as flat vectors).
    """
    if degree < 0 or degree + 1 > mc.n_max:
        raise DegreeOutOfRange(
            f"representatives at degree {degree} need depth {degree + 1}")
    cycles = (tuple({i: ONE} for i in range(mc.spaces[0].dim)) if degree == 0
              else kernel_basis(differential(mc, theory, degree)))
    return independent_modulo(differential(mc, theory, degree + 1), cycles)[1]


# ------------------------------------------------------------- stabilization

class StabilizationCertificate:
    """Evidence that HH vanishes above some bound, up to the truncation.

    vanishing_bound is the least N with HH_n = 0 for N < n <= checked_through;
    the remaining fields are filled in when the certificate is used to report
    periodic dimensions (which cyclic degrees were read off, and whether the
    period-two repeats that fit under the truncation were verified equal).
    """

    __slots__ = ("vanishing_bound", "verified_degrees", "checked_through",
                 "even_degree", "odd_degree", "even_repeat_equal",
                 "odd_repeat_equal")

    def __init__(self, vanishing_bound, verified_degrees, checked_through,
                 even_degree=None, odd_degree=None, even_repeat_equal=None,
                 odd_repeat_equal=None):
        self.vanishing_bound = vanishing_bound
        self.verified_degrees = verified_degrees
        self.checked_through = checked_through
        self.even_degree = even_degree
        self.odd_degree = odd_degree
        self.even_repeat_equal = even_repeat_equal
        self.odd_repeat_equal = odd_repeat_equal


def vanishing_bound(dims, through):
    """Least N >= 0 with dims[n] = 0 for N < n <= through."""
    return max((n for n in range(1, through + 1) if dims[n]), default=0)


def stabilized_degrees(bound):
    """The cyclic degrees (even, odd) read off above a vanishing bound."""
    even = 2 * (bound // 2 + 1)
    return even, even + 1


def hp_can_hold(bound, max_degree):
    """Whether HP can be read above a vanishing bound within max_degree.

    The stabilized odd degree must fit under the truncation.  It is at
    least bound + 2, so this also keeps the bound within the certificate's
    own limit, max_degree - 2.
    """
    return stabilized_degrees(bound)[1] <= max_degree


def stabilization_certificate(hh):
    """Least N <= max_degree - 2 with HH_n = 0 for N < n <= max_degree.

    Reads the HH report hh through its max_degree.  Returns None when no
    such bound exists within the truncation; callers render that as
    NOT_ESTABLISHED.  The certificate never claims anything beyond the
    degrees actually checked.
    """
    max_degree = hh.max_degree
    bound = vanishing_bound(hh.dims, max_degree)
    if bound > max_degree - 2:
        return None
    return StabilizationCertificate(
        vanishing_bound=bound,
        verified_degrees=tuple(range(bound + 1, max_degree + 1)),
        checked_through=max_degree)


def periodic_via_stabilization(hh_reports, hc_reports):
    """One HP report (even, odd) per stage, under a common bound, or refusal.

    A single algebra is one stage; a tower lists its stages in order.  Each
    stage's vanishing bound is the least N with HH_n = 0 for N < n <=
    max_degree, and the common bound is the largest.  HP is read at the
    cyclic degrees the common bound stabilizes, so it holds only when they
    fit under the truncation (hp_can_hold); periodic dimensions are never
    extrapolated.  Otherwise this raises NoCertificate, naming the first
    stage whose own bound exceeds max_degree - 2, if one does.

    Each stage's certificate is its own: its bound, and the degrees that
    bound stabilizes.  HC there must equal HC at the common degrees
    (ValidationError otherwise).  hc_reports are read only past the refusal,
    so an entry may be None where hochschild_and_cyclic made none.
    """
    max_degree = hh_reports[0].max_degree
    bounds = [vanishing_bound(hh.dims, max_degree) for hh in hh_reports]
    common = max(bounds)
    even_deg, odd_deg = stabilized_degrees(common)
    if not hp_can_hold(common, max_degree):
        for i, bound in enumerate(bounds):
            if bound > max_degree - 2:
                raise NoCertificate(f"stage {i} has no vanishing certificate "
                                    f"within {max_degree}")
        raise NoCertificate(
            f"common bound {common} stabilizes at degrees {even_deg}, "
            f"{odd_deg}, beyond truncation {max_degree}")
    reports = []
    for bound, hc in zip(bounds, hc_reports):
        even, odd = stabilized_degrees(bound)
        dims = (hc.dims[even], hc.dims[odd])
        if dims != (hc.dims[even_deg], hc.dims[odd_deg]):
            raise ValidationError(
                "stabilized cyclic dimensions disagree between the stage "
                "bound and the common bound")
        # whether HC repeats two degrees up, None where that is truncated
        even_repeat, odd_repeat = (
            hc.dims[q + 2] == hc.dims[q] if q + 2 <= max_degree else None
            for q in (even, odd))
        cert = StabilizationCertificate(
            bound, tuple(range(bound + 1, max_degree + 1)), max_degree,
            even_degree=even, odd_degree=odd, even_repeat_equal=even_repeat,
            odd_repeat_equal=odd_repeat)
        reports.append(
            HomologyReport("HP", max_degree, dims, certificate=cert))
    return tuple(reports)


# ------------------------------------------------------------------- lifting

class EvenLift:
    """An even cycle extended through the periodicity tower.

    components[2k] solves b~ f_{2k+2} = -B~ f_{2k} for all consecutive even
    degrees from base_degree up to top_degree.
    """

    __slots__ = ("base_degree", "top_degree", "components")

    def __init__(self, base_degree, top_degree, components):
        self.base_degree = base_degree
        self.top_degree = top_degree
        self.components = components

    def truncate(self, n):
        """The Tot_n chain made of the components of degree <= n."""
        return TotChainIndex(
            n, {q: dict(v) for q, v in self.components.items() if q <= n})


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


def _check_even_cycle(mc, chain):
    """(b~+B~)-cycle test for an even Tot chain, reported per odd degree."""
    check_tot_chain(mc, chain)
    for q in range(1, chain.degree, 2):
        res = mc.b_tilde[q + 1].apply(chain.component(q + 1))
        for i, v in mc.B_tilde[q - 1].apply(chain.component(q - 1)).items():
            s = res.get(i, 0) + v
            if s:
                res[i] = s
            else:
                res.pop(i, None)
        if res:
            raise NotACycle(
                f"b~ f_{q + 1} + B~ f_{q - 1} nonzero in degree {q}")


def lift_to_periodic(c, mc, top_degree=None):
    """Extend an even cycle upward by solving b~ f_{2k+2} = -B~ f_{2k}.

    c is a TotChainIndex of even total degree.  Returns an EvenLift reaching
    top_degree (default: the largest even degree the truncation supports),
    or an ObstructedLift at the first inconsistent solve.
    """
    if c.degree % 2 != 0:
        raise DegreeOutOfRange("lift starts from an even total degree")
    top = top_degree
    if top is None:
        top = mc.n_max if mc.n_max % 2 == 0 else mc.n_max - 1
    if top % 2 != 0 or top < c.degree or top > mc.n_max:
        raise DegreeOutOfRange(f"invalid lift target degree {top}")
    _check_even_cycle(mc, c)
    comps = {q: dict(v) for q, v in c.components.items() if v}
    for k in range(c.degree // 2, top // 2):
        witness = mc.B_tilde[2 * k].apply(comps.get(2 * k, {}))
        rhs = {i: -v for i, v in witness.items()}
        found = solve(mc.b_tilde[2 * k + 2], rhs)
        if found is None:
            return ObstructedLift(degree=2 * k + 2, witness_degree=2 * k + 1,
                                  witness=witness, partial=comps)
        if found:
            comps[2 * k + 2] = found
    return EvenLift(base_degree=c.degree, top_degree=top, components=comps)
