"""Hochschild, cyclic, and periodic cyclic homology of an algebra over Q.

Hochschild homology is the homology of (Omega, b~).  Cyclic homology is the
homology of the total complex Tot_n = Omega^n (+) Omega^{n-2} (+) ... with
differential D = b~ + B~, where B~ is not applied to the top summand (its
image would leave the truncation).  Periodic cyclic homology is only ever
reported through the stabilization route: once HH_n = 0 has been verified
for all n > N up to the truncation depth, the cyclic dimensions repeat with
period two above N and the repeating values are the periodic ones.  Without
such a certificate the tool refuses rather than guesses; every certificate
records how far vanishing was actually checked.  When HP follows HH on one
mixed complex, the top degree is eliminated once, as D, for both theories
(hochschild_homology's hp_floor).

All dimension counts come from exact ranks, so a report either holds on the
nose or the run fails loudly.
"""

from dataclasses import dataclass, replace

from .errors import DegreeOutOfRange, NoCertificate, NotACycle, ValidationError
from .linalg import (ONE, SparseMatrix, independent_modulo, kernel_basis,
                     pivot_columns, rank, solve)
from .mixed import build_mixed_complex


# ---------------------------------------------------------------- total complex

def total_components(n):
    """Degrees of the summands of Tot_n, descending: n, n-2, ..., 1 or 0."""
    return tuple(range(n, -1, -2))


def total_dim(mc, n):
    return sum(mc.spaces[q].dim for q in total_components(n))


def total_differential(mc, n):
    """D = b~ + B~ from Tot_n to Tot_{n-1} as one block matrix."""
    if n < 1 or n > mc.n_max:
        raise DegreeOutOfRange(f"total differential needs 1 <= n <= {mc.n_max}")
    src = total_components(n)
    dst = total_components(n - 1)
    pos = {q: i for i, q in enumerate(dst)}
    grid = [[None] * len(src) for _ in dst]
    for si, q in enumerate(src):
        if q >= 1:
            grid[pos[q - 1]][si] = mc.b_tilde[q]
        if q + 1 in pos:
            grid[pos[q + 1]][si] = mc.B_tilde[q]
    return SparseMatrix.from_blocks(
        grid,
        [mc.spaces[q].dim for q in dst],
        [mc.spaces[q].dim for q in src])


def total_rank_split(mc, n):
    """(rank b~_n, rank D_n) from one elimination of D_n.

    total_differential puts the Omega^n summand first and applies no B~ to
    it, so the first dim Omega^n columns of D_n are exactly [b~_n; 0].
    Row operations keep every linear relation among the columns, so column
    j of an echelon form is a pivot exactly when it is not in the span of
    columns 0..j-1, whichever pivot rows were chosen (independent_modulo
    relies on the same fact).  Hence the pivots below dim Omega^n count
    rank [b~_n; 0] = rank b~_n, and all the pivots count rank D_n.
    """
    pivots = pivot_columns(total_differential(mc, n))
    top = mc.spaces[n].dim
    return sum(1 for c in pivots if c < top), len(pivots)


@dataclass(frozen=True, eq=False)
class TotChainIndex:
    """A chain in Tot_n, stored per summand: components[q] lives in Omega^q."""

    degree: int
    components: dict

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

@dataclass(frozen=True, eq=False)
class HomologyReport:
    """Per-degree dimensions for one theory, with optional extras.

    theory is "HH", "HC", or "HP".  For HH and HC, dims[n] is the degree-n
    dimension for 0 <= n <= max_degree.  For HP, dims is the pair
    (even, odd) and certificate carries the stabilization data.
    total_top_rank is rank D_{max_degree+1} when an HH run with hp_floor
    eliminated it (see hochschild_homology), else None.
    """

    theory: str
    max_degree: int
    dims: tuple
    space_dims: tuple | None = None
    boundary_ranks: tuple | None = None
    representatives: dict | None = None
    certificate: object | None = None
    total_top_rank: int | None = None


def differential(mc, theory, n):
    """The degree-n differential of HH (b~) or HC (D); n = 0 maps to zero."""
    if theory == "HH":
        return mc.b_tilde[n] if n >= 1 else SparseMatrix(0, mc.spaces[0].dim)
    if theory == "HC":
        return (total_differential(mc, n) if n >= 1
                else SparseMatrix(0, total_dim(mc, 0)))
    raise ValidationError(f"unknown theory {theory!r}")


def _class_representatives(d_out, d_in):
    """rank(d_in) and cycles of d_out independent modulo the image of d_in."""
    cycles = (kernel_basis(d_out).basis if d_out.rows
              else [{i: ONE} for i in range(d_out.cols)])
    return independent_modulo(d_in, cycles)


def _require_depth(mc, max_degree):
    if max_degree < 0:
        raise DegreeOutOfRange("max_degree must be nonnegative")
    if mc.n_max < max_degree + 1:
        raise DegreeOutOfRange(
            f"mixed complex truncated at {mc.n_max}; degree {max_degree} "
            f"needs the differential at {max_degree + 1}")


def _homology(theory, max_degree, space_dims, diffs, representatives,
              top_rank=None):
    """Dimensions, and optionally class representatives, of a chain complex.

    space_dims[n] is dim C_n and diffs[n] : C_n -> C_{n-1} for
    1 <= n <= max_degree + 1.  Without representatives, each differential is
    eliminated once, by rank; top_rank, when given, is called with the ranks
    once those of d_1 .. d_{max_degree} are in, and returns
    rank(d_{max_degree+1}) in place of that elimination (diffs then need no
    top entry).  With representatives, degree n costs kernel_basis(d_n)
    (none at n = 0, where every chain is a cycle) and one
    independent_modulo(d_{n+1}, cycles), which also yields rank(d_{n+1}).
    """
    top = max_degree + 1
    ranks = [0] * (top + 1)
    reps = {} if representatives else None
    for n in range(top):
        if representatives:
            d_out = diffs[n] if n >= 1 else SparseMatrix(0, space_dims[0])
            ranks[n + 1], reps[n] = _class_representatives(d_out, diffs[n + 1])
        elif n + 1 == top and top_rank is not None:
            ranks[top] = top_rank(ranks)
        else:
            ranks[n + 1] = rank(diffs[n + 1])
    dims = []
    for n in range(top):
        d = space_dims[n] - ranks[n] - ranks[n + 1]
        if d < 0:
            raise ValidationError(f"negative homology dimension at degree {n}")
        dims.append(d)
    return HomologyReport(theory, max_degree, tuple(dims),
                          space_dims=tuple(space_dims[:top]),
                          boundary_ranks=tuple(ranks), representatives=reps)


def hochschild_homology(a, max_degree, mc=None, representatives=False,
                        hp_floor=None):
    """HH_0 .. HH_{max_degree}; builds one guard degree beyond the top.

    hp_floor is for a caller that reports HP next from the same mixed
    complex, held to a vanishing bound of at least hp_floor (0 for one
    algebra; along a tower, the earlier stages' largest bound).  HP then
    needs HC, whose top differential D_{max_degree+1} contains [b~; 0]
    (total_rank_split).  So once b~_1 .. b~_{max_degree} are ranked, and
    while HP can still be established, D_{max_degree+1} is eliminated in
    place of b~_{max_degree+1}, and the report keeps its rank as
    total_top_rank for cyclic_homology.  "Can still be established" takes
    HH_{max_degree} as 0: neither refusal rule of periodic_via_stabilization
    may apply to the vanishing bound of HH_1 .. HH_{max_degree-1} and
    hp_floor.  When one applies already, b~_{max_degree+1} is ranked as
    without hp_floor, so a refusal eliminates what it would without it.
    Lower degrees rank b~, because the rules need their dimensions first;
    each costs about 1/dim A of the top degree.
    """
    if mc is None:
        mc = build_mixed_complex(a, max_degree + 1)
    _require_depth(mc, max_degree)
    top = max_degree + 1
    space_dims = [mc.spaces[n].dim for n in range(top + 1)]
    total = []

    def top_rank(ranks):
        below = [space_dims[n] - ranks[n] - ranks[n + 1]
                 for n in range(max_degree)]
        bound = max(hp_floor, vanishing_bound(below, max_degree - 1))
        # the refusal rules of stabilization_certificate and
        # periodic_via_stabilization
        if (bound > max_degree - 2
                or stabilized_degrees(bound)[1] > max_degree):
            return rank(mc.b_tilde[top])
        b_rank, d_rank = total_rank_split(mc, top)
        total.append(d_rank)
        return b_rank

    report = _homology("HH", max_degree, space_dims, mc.b_tilde,
                       representatives,
                       top_rank if hp_floor is not None else None)
    return replace(report, total_top_rank=total[0]) if total else report


def cyclic_homology(a, max_degree, mc=None, representatives=False,
                    top_rank=None):
    """HC_0 .. HC_{max_degree} from the total complex.

    top_rank is rank D_{max_degree+1} when it is known already (an HH
    report's total_top_rank); D_{max_degree+1} is then neither assembled
    nor eliminated.  It is not read with representatives, which need
    D_{max_degree+1} itself.
    """
    if mc is None:
        mc = build_mixed_complex(a, max_degree + 1)
    _require_depth(mc, max_degree)
    space_dims = [total_dim(mc, n) for n in range(max_degree + 2)]
    known = top_rank is not None and not representatives
    last = max_degree if known else max_degree + 1
    diffs = {n: total_differential(mc, n) for n in range(1, last + 1)}
    return _homology("HC", max_degree, space_dims, diffs, representatives,
                     (lambda ranks: top_rank) if known else None)


def homology_representatives(mc, theory, degree):
    """Independent class representatives at one degree of one theory.

    theory is "HH" (cycles in Omega^degree modulo b~-boundaries) or "HC"
    (cycles in Tot_degree modulo total boundaries, as flat vectors).
    """
    if degree < 0 or degree + 1 > mc.n_max:
        raise DegreeOutOfRange(
            f"representatives at degree {degree} need depth {degree + 1}")
    return _class_representatives(differential(mc, theory, degree),
                                  differential(mc, theory, degree + 1))[1]


# ------------------------------------------------------------- stabilization

@dataclass(frozen=True)
class StabilizationCertificate:
    """Evidence that HH vanishes above some bound, up to the truncation.

    vanishing_bound is the least N with HH_n = 0 for N < n <= checked_through;
    the remaining fields are filled in when the certificate is used to report
    periodic dimensions (which cyclic degrees were read off, and whether the
    period-two repeats that fit under the truncation were verified equal).
    """

    vanishing_bound: int
    verified_degrees: tuple
    checked_through: int
    even_degree: int | None = None
    odd_degree: int | None = None
    even_repeat_equal: bool | None = None
    odd_repeat_equal: bool | None = None


def vanishing_bound(dims, through):
    """Least N >= 0 with dims[n] = 0 for N < n <= through."""
    return max((n for n in range(1, through + 1) if dims[n]), default=0)


def stabilized_degrees(bound):
    """The cyclic degrees (even, odd) read off above a vanishing bound."""
    even = 2 * (bound // 2 + 1)
    return even, even + 1


def stabilization_certificate(a, max_degree, mc=None, hh_report=None):
    """Least N <= max_degree - 2 with HH_n = 0 for N < n <= max_degree.

    Returns None when no such bound exists within the truncation; callers
    render that as NOT_ESTABLISHED.  The certificate never claims anything
    beyond the degrees actually checked.
    """
    hh = hh_report
    if hh is None:
        hh = hochschild_homology(a, max_degree, mc=mc)
    if hh.max_degree < max_degree:
        raise DegreeOutOfRange("HH report shallower than requested bound")
    bound = vanishing_bound(hh.dims, max_degree)
    if bound > max_degree - 2:
        return None
    return StabilizationCertificate(
        vanishing_bound=bound,
        verified_degrees=tuple(range(bound + 1, max_degree + 1)),
        checked_through=max_degree)


def periodic_via_stabilization(a, max_degree, mc=None, hh_report=None,
                               hc_report=None):
    """HP report (even, odd) through the vanishing certificate, or refusal.

    Raises NoCertificate when vanishing is not established within the
    truncation, or when the stabilized cyclic degrees do not fit under it;
    periodic dimensions are never extrapolated.  Without hc_report, HC
    reuses the HH report's total_top_rank.
    """
    if mc is None:
        mc = build_mixed_complex(a, max_degree + 1)
    hh = hh_report
    if hh is None:
        hh = hochschild_homology(a, max_degree, mc=mc, hp_floor=0)
    cert = stabilization_certificate(a, max_degree, hh_report=hh)
    if cert is None:
        raise NoCertificate(
            f"Hochschild homology does not vanish above any bound "
            f"<= {max_degree - 2} within truncation {max_degree}")
    even_deg, odd_deg = stabilized_degrees(cert.vanishing_bound)
    if odd_deg > max_degree:
        raise NoCertificate(
            f"stabilized cyclic degrees {even_deg}, {odd_deg} exceed "
            f"truncation {max_degree}; deepen the computation")
    hc = hc_report
    if hc is None:
        hc = cyclic_homology(a, max_degree, mc=mc,
                             top_rank=hh.total_top_rank)
    even, odd = hc.dims[even_deg], hc.dims[odd_deg]
    even_repeat = (hc.dims[even_deg + 2] == even
                   if even_deg + 2 <= max_degree else None)
    odd_repeat = (hc.dims[odd_deg + 2] == odd
                  if odd_deg + 2 <= max_degree else None)
    cert = replace(cert, even_degree=even_deg, odd_degree=odd_deg,
                   even_repeat_equal=even_repeat, odd_repeat_equal=odd_repeat)
    return HomologyReport("HP", max_degree, (even, odd), certificate=cert)


# ------------------------------------------------------------------- lifting

@dataclass(frozen=True, eq=False)
class EvenLift:
    """An even cycle extended through the periodicity tower.

    components[2k] solves b~ f_{2k+2} = -B~ f_{2k} for all consecutive even
    degrees from base_degree up to top_degree.
    """

    base_degree: int
    top_degree: int
    components: dict

    def truncate(self, n):
        """The Tot_n chain made of the components of degree <= n."""
        return TotChainIndex(
            n, {q: dict(v) for q, v in self.components.items() if q <= n})


@dataclass(frozen=True, eq=False)
class ObstructedLift:
    """A failed extension step, with the cycle that witnesses the failure.

    The solve at chain degree `degree` was inconsistent; `witness` is an
    exact b~-cycle in degree witness_degree that is provably not a boundary,
    so the Hochschild homology there is nonzero.  partial holds the
    components found before the failure.
    """

    degree: int
    witness_degree: int
    witness: dict
    partial: dict


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
