"""Hochschild, cyclic, and periodic cyclic homology of an algebra over Q.

Hochschild homology is the homology of (Omega, b~).  Cyclic homology is the
homology of the total complex Tot_n = Omega^n (+) Omega^{n-2} (+) ... with
differential D = b~ + B~, where B~ is not applied to the top summand (its
image would leave the truncation).  Periodic cyclic homology is only ever
reported through the stabilization route: once HH_n = 0 has been verified
for all n > N up to the truncation depth, the cyclic dimensions repeat with
period two above N and the repeating values are the periodic ones.  Without
such a certificate the tool refuses rather than guesses; every certificate
records how far vanishing was actually checked.

All dimension counts come from exact ranks, so a report either holds on the
nose or the run fails loudly.
"""

from dataclasses import dataclass, replace

from .errors import (DegreeOutOfRange, NoCertificate, NotABoundingChain,
                     NotACycle, ValidationError)
from .linalg import (ONE, SparseMatrix, independent_modulo, kernel_basis,
                     rank, solve, vec_eq, vec_sub)
from .mixed import DEFAULT_CELL_CAP, build_mixed_complex


# ---------------------------------------------------------------- total complex

def total_components(n):
    """Degrees of the summands of Tot_n, descending: n, n-2, ..., 1 or 0."""
    return tuple(range(n, -1, -2))


def total_offsets(mc, n):
    """Starting coordinate of each summand inside the flat Tot_n vector."""
    offsets = {}
    at = 0
    for q in total_components(n):
        offsets[q] = at
        at += mc.spaces[q].dim
    return offsets


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


def embed_total(mc, chain):
    """Flatten a TotChainIndex to coordinates of the block Tot vector."""
    check_tot_chain(mc, chain)
    offsets = total_offsets(mc, chain.degree)
    flat = {}
    for q, vec in chain.components.items():
        off = offsets[q]
        for i, v in vec.items():
            if v:
                flat[off + i] = v
    return flat


def split_total(mc, n, flat):
    """Inverse of embed_total: split a flat Tot_n vector by summand."""
    comps = {}
    bounds = []
    at = 0
    for q in total_components(n):
        bounds.append((at, at + mc.spaces[q].dim, q))
        at += mc.spaces[q].dim
    for i, v in flat.items():
        if not v:
            continue
        for lo, hi, q in bounds:
            if lo <= i < hi:
                comps.setdefault(q, {})[i - lo] = v
                break
        else:
            raise ValidationError(f"coordinate {i} outside Tot_{n}")
    return TotChainIndex(n, comps)


# ------------------------------------------------------------------- reports

@dataclass(frozen=True, eq=False)
class HomologyReport:
    """Per-degree dimensions for one theory, with optional extras.

    theory is "HH", "HC", or "HP".  For HH and HC, dims[n] is the degree-n
    dimension for 0 <= n <= max_degree.  For HP, dims is the pair
    (even, odd) and certificate carries the stabilization data.
    """

    theory: str
    max_degree: int
    dims: tuple
    space_dims: tuple | None = None
    boundary_ranks: tuple | None = None
    representatives: dict | None = None
    certificate: object | None = None


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


def _homology(theory, max_degree, space_dims, diffs, representatives):
    """Dimensions, and optionally class representatives, of a chain complex.

    space_dims[n] is dim C_n and diffs[n] : C_n -> C_{n-1} for
    1 <= n <= max_degree + 1.  Without representatives, each differential is
    eliminated once, by rank.  With them, degree n costs kernel_basis(d_n)
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
                        cell_cap=DEFAULT_CELL_CAP):
    """HH_0 .. HH_{max_degree}; builds one guard degree beyond the top."""
    if mc is None:
        mc = build_mixed_complex(a, max_degree + 1, cell_cap)
    _require_depth(mc, max_degree)
    space_dims = [mc.spaces[n].dim for n in range(max_degree + 2)]
    return _homology("HH", max_degree, space_dims, mc.b_tilde,
                     representatives)


def cyclic_homology(a, max_degree, mc=None, representatives=False,
                    cell_cap=DEFAULT_CELL_CAP):
    """HC_0 .. HC_{max_degree} from the total complex."""
    if mc is None:
        mc = build_mixed_complex(a, max_degree + 1, cell_cap)
    _require_depth(mc, max_degree)
    space_dims = [total_dim(mc, n) for n in range(max_degree + 2)]
    diffs = {n: total_differential(mc, n) for n in range(1, max_degree + 2)}
    return _homology("HC", max_degree, space_dims, diffs, representatives)


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
    bound = 0
    for n in range(1, max_degree + 1):
        if hh.dims[n]:
            bound = n
    if bound > max_degree - 2:
        return None
    return StabilizationCertificate(
        vanishing_bound=bound,
        verified_degrees=tuple(range(bound + 1, max_degree + 1)),
        checked_through=max_degree)


def periodic_via_stabilization(a, max_degree, mc=None, hh_report=None,
                               hc_report=None, cell_cap=DEFAULT_CELL_CAP):
    """HP report (even, odd) through the vanishing certificate, or refusal.

    Raises NoCertificate when vanishing is not established within the
    truncation, or when the stabilized cyclic degrees do not fit under it;
    periodic dimensions are never extrapolated.
    """
    if mc is None:
        mc = build_mixed_complex(a, max_degree + 1, cell_cap)
    cert = stabilization_certificate(a, max_degree, mc=mc, hh_report=hh_report)
    if cert is None:
        raise NoCertificate(
            f"Hochschild homology does not vanish above any bound "
            f"<= {max_degree - 2} within truncation {max_degree}")
    n_star = cert.vanishing_bound // 2 + 1
    even_deg, odd_deg = 2 * n_star, 2 * n_star + 1
    if odd_deg > max_degree:
        raise NoCertificate(
            f"stabilized cyclic degrees {even_deg}, {odd_deg} exceed "
            f"truncation {max_degree}; deepen the computation")
    hc = hc_report
    if hc is None:
        hc = cyclic_homology(a, max_degree, mc=mc)
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
        if q >= 1:
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


def extend_bounding_chain(lift, h, mc):
    """Extend an odd chain h with (b~+B~) h = lift truncated at h's degree.

    h is a TotChainIndex of odd total degree 2n+1 whose total boundary equals
    the truncation of the even lift to Tot_{2n}.  Solves
    b~ h_{2k+3} = f_{2k+2} - B~ h_{2k+1} degree by degree up to the lift's
    top; returns the extended TotChainIndex or an ObstructedLift.
    """
    if h.degree % 2 == 0:
        raise DegreeOutOfRange("bounding chain must have odd total degree")
    if lift.top_degree + 1 > mc.n_max:
        raise DegreeOutOfRange(
            f"extension to degree {lift.top_degree + 1} exceeds truncation "
            f"{mc.n_max}; truncate the lift first")
    check_tot_chain(mc, h)
    n = (h.degree - 1) // 2
    for j in range(0, n + 1):
        got = mc.b_tilde[2 * j + 1].apply(h.component(2 * j + 1))
        if j >= 1:
            for i, v in mc.B_tilde[2 * j - 1].apply(
                    h.component(2 * j - 1)).items():
                s = got.get(i, 0) + v
                if s:
                    got[i] = s
                else:
                    got.pop(i, None)
        want = lift.components.get(2 * j, {})
        if not vec_eq(got, want):
            raise NotABoundingChain(
                f"b~ h_{2 * j + 1} + B~ h_{2 * j - 1} != f_{2 * j}")
    comps = {q: dict(v) for q, v in h.components.items() if v}
    for k in range(n, lift.top_degree // 2):
        rhs = vec_sub(lift.components.get(2 * k + 2, {}),
                      mc.B_tilde[2 * k + 1].apply(comps.get(2 * k + 1, {})))
        found = solve(mc.b_tilde[2 * k + 3], rhs)
        if found is None:
            return ObstructedLift(degree=2 * k + 3, witness_degree=2 * k + 2,
                                  witness=rhs, partial=comps)
        if found:
            comps[2 * k + 3] = found
    return TotChainIndex(lift.top_degree + 1, comps)


# ----------------------------------------------------- class membership tests

def is_hochschild_boundary(mc, n, vec):
    """Whether a b~-cycle in Omega^n bounds; raises NotACycle otherwise."""
    if n >= 1 and mc.b_tilde[n].apply(vec):
        raise NotACycle(f"vector is not a b~-cycle in degree {n}")
    if n + 1 > mc.n_max:
        raise DegreeOutOfRange("boundary test needs one degree of headroom")
    return solve(mc.b_tilde[n + 1], vec) is not None


def is_cyclic_boundary(mc, chain):
    """Whether a D-cycle in Tot_n bounds; raises NotACycle otherwise."""
    n = chain.degree
    flat = embed_total(mc, chain)
    if n >= 1 and total_differential(mc, n).apply(flat):
        raise NotACycle(f"chain is not a cycle in Tot_{n}")
    if n + 1 > mc.n_max:
        raise DegreeOutOfRange("boundary test needs one degree of headroom")
    return solve(total_differential(mc, n + 1), flat) is not None


def cyclic_homologous(mc, x, y):
    """Whether two Tot cycles of equal degree differ by a total boundary."""
    if x.degree != y.degree:
        raise DegreeOutOfRange("chains live in different total degrees")
    diff = {}
    degrees = set(x.components) | set(y.components)
    for q in degrees:
        v = vec_sub(x.component(q), y.component(q))
        if v:
            diff[q] = v
    return is_cyclic_boundary(mc, TotChainIndex(x.degree, diff))


# ------------------------------------------------------------------- Morita

@dataclass(frozen=True)
class MoritaReport:
    """Degree-wise comparison of HH for A and the k x k matrices over A."""

    matrix_size: int
    dims_base: tuple
    dims_matrix: tuple
    equal: tuple

    @property
    def all_equal(self):
        return all(self.equal)


def morita_compare(a, k, max_degree, cell_cap=DEFAULT_CELL_CAP):
    """HH dims of A versus M_k(A), degree by degree."""
    from .algebra import matrix_algebra
    base = hochschild_homology(a, max_degree, cell_cap=cell_cap)
    big = hochschild_homology(matrix_algebra(a, k), max_degree,
                              cell_cap=cell_cap)
    equal = tuple(x == y for x, y in zip(base.dims, big.dims))
    return MoritaReport(k, base.dims, big.dims, equal)
