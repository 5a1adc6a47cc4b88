"""Finite chains of algebra inclusions and continuity of their homology.

A DirectSystem is an ordered list of algebras with injective multiplicative
maps between consecutive stages; the final stage plays the role of the limit.
The continuity statements verified here are image-filtration statements: the
classes coming from earlier stages sit inside the homology of the final
stage, the filtration grows with the stage, and the last stage fills it.

Periodic continuity is gated the same way single-algebra reports are: every
stage must carry a vanishing certificate, a common bound is taken, and the
periodic dimensions are read off at the stabilized cyclic degrees.

The tower command builds each stage's mixed complex once: hp_continuity_check
takes the HH continuity result's complexes and reports.  The final stage
builds the normalized complex C(A_m) when it has a unit.  An earlier stage's
map need not keep the unit, so an earlier stage builds Omega(A_i) with its
unit forgotten, and mixed.induced_chain_map carries it into the final stage
through the map's unital extension A_i~ -> A_m.  Every stage passes the one
size guard, mixed.check_size, before any stage is built.  Per theory (HH for
continuity_check, HC for the HP step that follows), an earlier stage costs
kernel_basis(d_n) for 1 <= n <= max_degree, which gives its cycle space Z_n
and rank d_n = dim C_n - dim Z_n, and one rank(d_{max_degree+1}).  Each
filtration entry at degree n is one independent_modulo of the stage's
pushed Z_n against the final stage's d_{n+1}, run only where the stage's
H_n is nonzero.  The final stage is ranked once for both theories by
homology.hochschild_and_cyclic, held to the earlier stages' largest
vanishing bound: b~_1 .. b~_{max_degree}, then, while HP can still be
established, D_{max_degree+1} (which also gives rank b~_{max_degree+1}) and
D_1 .. D_{max_degree}, else b~_{max_degree+1}.
"""

from .algebra import (AlgebraHom, forget_unit, group_algebra, hecke_algebra,
                      hecke_inclusion)
from .errors import CertMissing, NotAChain, NotInjective, ValidationError
from .homology import (chain_dim, cycle_basis, differential,
                       hochschild_and_cyclic, hp_can_hold,
                       periodic_via_stabilization, report_from_ranks,
                       stabilization_certificate, stabilized_degrees,
                       total_components, vanishing_bound)
from .linalg import SparseMatrix, independent_modulo, rank
from .mixed import build_mixed_complex, check_size, induced_chain_map


class DirectSystem:
    """Stages A_1 -> A_2 -> ... -> A_m with composites to the final stage.

    Every map is validated to be multiplicative and injective at
    construction; to_final[i] is the composite A_i -> A_m (identity at the
    last stage), so consistency of composites holds by construction.
    """

    __slots__ = ("stages", "maps", "to_final")

    def __init__(self, stages, maps):
        stages = tuple(stages)
        maps = tuple(maps)
        if not stages:
            raise ValidationError("a direct system needs at least one stage")
        if len(maps) != len(stages) - 1:
            raise ValidationError(
                f"{len(stages)} stages need {len(stages) - 1} maps")
        for i, f in enumerate(maps):
            if f.matrix.cols != stages[i].dim or \
                    f.matrix.rows != stages[i + 1].dim:
                raise ValidationError(f"map {i} has the wrong shape")
            f.validate()
            if not f.is_injective():
                raise NotInjective(f"stage map {i} is not injective")
        self.stages = stages
        self.maps = maps
        final = stages[-1]
        to_final = [identity_hom(final)]
        for i in range(len(maps) - 1, -1, -1):
            to_final.append(to_final[-1].compose(maps[i]))
        self.to_final = tuple(reversed(to_final))

    def __len__(self):
        return len(self.stages)

    def __repr__(self):
        dims = ", ".join(str(a.dim) for a in self.stages)
        return f"DirectSystem(dims=[{dims}])"


def identity_hom(a):
    return AlgebraHom(a, a, SparseMatrix.identity(a.dim))


def hecke_tower(g, chain):
    """Stages hecke_algebra(G, K_i) along a decreasing subgroup chain.

    chain lists the element sets K_1 >= K_2 >= ... and must end with the
    trivial subgroup, where the stage is the full group algebra.
    """
    chain = [sorted(set(k)) for k in chain]
    if not chain:
        raise NotAChain("empty subgroup chain")
    for i in range(len(chain) - 1):
        if not set(chain[i + 1]) <= set(chain[i]):
            raise NotAChain(f"subgroup {i + 1} is not contained in subgroup {i}")
    if chain[-1] != [g.identity]:
        raise NotAChain("chain must end at the trivial subgroup")
    stages = [hecke_algebra(g, k)[0] for k in chain[:-1]]
    stages.append(group_algebra(g))
    maps = [hecke_inclusion(g, chain[i], chain[i + 1],
                            source=stages[i], target=stages[i + 1])
            for i in range(len(chain) - 1)]
    return DirectSystem(stages, maps)


def _induced_total_map(maps, src_mc, dst_mc, n):
    """Block-diagonal chain map on Tot_n from degree-wise chain maps."""
    comps = total_components(n)
    grid = [[None] * len(comps) for _ in comps]
    for i, q in enumerate(comps):
        grid[i][i] = maps[q]
    return SparseMatrix.from_blocks(
        grid,
        [dst_mc.spaces[q].dim for q in comps],
        [src_mc.spaces[q].dim for q in comps])


def _stage_complexes(ds, n_max):
    """Every stage's mixed complex, in stage order.

    A stage map need not keep the unit (the Hecke corner embedding sends 1
    to 1/2 e0 + 1/2 e2), so an earlier stage builds Omega(A_i), its unit
    forgotten, and induced_chain_map reaches the final stage's C(A_m)
    through the unital extension of the map.  Neither bounds the other: a
    stage isomorphic to the final one has (d+1) d^n cells in degree n
    against d (d-1)^n.  So every stage passes the size guard before any is
    built, and a refusal costs no build.
    """
    algebras = [forget_unit(a) for a in ds.stages[:-1]] + [ds.stages[-1]]
    for a in algebras:
        check_size(a, n_max)
    return tuple(build_mixed_complex(a, n_max) for a in algebras)


def _push(chain_maps, src_mc, dst_mc, theory, n, vectors):
    """Images of degree-n chains of one stage in the final stage."""
    push = (chain_maps[n] if theory == "HH"
            else _induced_total_map(chain_maps, src_mc, dst_mc, n))
    return [push.apply(v) for v in vectors]


def _cycle_spaces(mc, theory, max_degree):
    """An earlier stage's report and its cycle spaces Z_0 .. Z_{max_degree}.

    kernel_basis(d_n) gives Z_n and rank d_n = dim C_n - dim Z_n for
    1 <= n <= max_degree; one rank(d_{max_degree+1}) completes the report.
    """
    cycles = [cycle_basis(mc, theory, n) for n in range(max_degree + 1)]
    ranks = [chain_dim(mc, theory, n) - len(z) for n, z in enumerate(cycles)]
    ranks.append(rank(differential(mc, theory, max_degree + 1)))
    return report_from_ranks(mc, theory, max_degree, ranks), cycles


def _image_filtration(ds, mcs, stages, final, theory, degrees):
    """Rows per stage: image dimensions in the final stage at each degree.

    stages holds each earlier stage's (report, cycle spaces), final the
    final stage's report.  The image of H_n(A_i) in H_n(A_m) is
    (f(Z_n) + B_n) / B_n, with B_n the image of the final stage's d_{n+1},
    so an entry is the number of pushed cycles independent modulo B_n: one
    elimination, run only when the stage's H_n is nonzero (its image is 0
    otherwise).  The final stage's row is its own dimensions.
    """
    chain_maps = [induced_chain_map(f, max(degrees))
                  for f in ds.to_final[:-1]]
    columns = []
    for n in degrees:
        d_in = (differential(mcs[-1], theory, n + 1)
                if any(r.dims[n] for r, _ in stages) else None)
        column = []
        for maps, mc, (report, cycles) in zip(chain_maps, mcs, stages):
            if report.dims[n]:
                pushed = _push(maps, mc, mcs[-1], theory, n, cycles[n])
                column.append(len(independent_modulo(d_in, pushed)[1]))
            else:
                column.append(0)
        column.append(final.dims[n])
        columns.append(column)
    return tuple(zip(*columns))


class ContinuityReport:
    """Image filtration of stage Hochschild homology inside the final stage.

    image_filtration[i][n] is the dimension of the image of stage i's
    degree-n homology in the final stage; the last row is the final stage's
    own dimensions, since it maps by the identity.  complexes and
    stage_reports keep each stage's mixed complex and HH report, and
    final_hc the final stage's HC report (None where HP cannot hold), so
    that hp_continuity_check can reuse them.
    """

    __slots__ = ("max_degree", "final_dims", "image_filtration", "complexes",
                 "stage_reports", "final_hc")

    def __init__(self, max_degree, final_dims, image_filtration, complexes,
                 stage_reports, final_hc):
        self.max_degree = max_degree
        self.final_dims = final_dims
        self.image_filtration = image_filtration
        self.complexes = complexes
        self.stage_reports = stage_reports
        self.final_hc = final_hc

    @property
    def monotone(self):
        for n in range(self.max_degree + 1):
            dims = [row[n] for row in self.image_filtration]
            if any(a > b for a, b in zip(dims, dims[1:])):
                return False
        return True


def continuity_check(ds, max_degree):
    """Image filtration of every stage's Hochschild homology in the final one.

    The final stage is ranked for the HP report that hp_continuity_check
    makes next: hochschild_and_cyclic, held to the earlier stages' largest
    vanishing bound.
    """
    mcs = _stage_complexes(ds, max_degree + 1)
    stages = [_cycle_spaces(mc, "HH", max_degree) for mc in mcs[:-1]]
    floor = max((vanishing_bound(r.dims, max_degree) for r, _ in stages),
                default=0)
    hh, hc = hochschild_and_cyclic(mcs[-1], max_degree, floor)
    filtration = _image_filtration(ds, mcs, stages, hh, "HH",
                                   range(max_degree + 1))
    return ContinuityReport(max_degree, hh.dims, filtration, mcs,
                            tuple(r for r, _ in stages) + (hh,), hc)


class HpContinuityReport:
    """Stage-wise periodic dimensions under a common vanishing bound.

    stage_even/stage_odd are the periodic dimensions per stage, read at the
    common stabilized degrees; the filtrations are image dimensions of stage
    cyclic homology inside the final stage at those two degrees.
    """

    __slots__ = ("common_bound", "even_degree", "odd_degree",
                 "checked_through", "certificates", "stage_even", "stage_odd",
                 "even_filtration", "odd_filtration")

    def __init__(self, common_bound, even_degree, odd_degree, checked_through,
                 certificates, stage_even, stage_odd, even_filtration,
                 odd_filtration):
        self.common_bound = common_bound
        self.even_degree = even_degree
        self.odd_degree = odd_degree
        self.checked_through = checked_through
        self.certificates = certificates
        self.stage_even = stage_even
        self.stage_odd = stage_odd
        self.even_filtration = even_filtration
        self.odd_filtration = odd_filtration

    @property
    def monotone(self):
        return (all(a <= b for a, b in
                    zip(self.even_filtration, self.even_filtration[1:]))
                and all(a <= b for a, b in
                        zip(self.odd_filtration, self.odd_filtration[1:])))


def hp_continuity_check(ds, hh_continuity):
    """Periodic dimensions along the tower under a common certificate.

    hh_continuity is the result of continuity_check(ds, max_degree); its
    stages' mixed complexes and HH reports, and the final stage's HC report,
    are reused, and max_degree is read from it.  Every stage must admit a
    vanishing certificate within max_degree; the common bound is the
    largest stage bound, and the periodic dimensions of all stages are read
    at the degrees stabilized by that common bound.  Raises CertMissing
    when any stage lacks a certificate or the stabilized degrees do not fit
    under the truncation.
    """
    max_degree = hh_continuity.max_degree
    mcs, hh_reports = hh_continuity.complexes, hh_continuity.stage_reports
    certs = []
    for i, hh in enumerate(hh_reports):
        cert = stabilization_certificate(hh)
        if cert is None:
            raise CertMissing(
                f"stage {i} has no vanishing certificate within {max_degree}")
        certs.append(cert)
    common = max(c.vanishing_bound for c in certs)
    even_deg, odd_deg = stabilized_degrees(common)
    if not hp_can_hold(common, max_degree):
        raise CertMissing(
            f"common bound {common} stabilizes at degrees {even_deg}, "
            f"{odd_deg}, beyond truncation {max_degree}")
    stages = [_cycle_spaces(mc, "HC", max_degree) for mc in mcs[:-1]]
    hc_reports = [r for r, _ in stages] + [hh_continuity.final_hc]
    for hh, hc in zip(hh_reports, hc_reports):
        hp = periodic_via_stabilization(hh, hc)
        if hp.dims != (hc.dims[even_deg], hc.dims[odd_deg]):
            raise ValidationError(
                "stabilized cyclic dimensions disagree between the stage "
                "bound and the common bound")
    filtration = _image_filtration(ds, mcs, stages, hc_reports[-1], "HC",
                                   (even_deg, odd_deg))
    return HpContinuityReport(
        common_bound=common, even_degree=even_deg, odd_degree=odd_deg,
        checked_through=max_degree, certificates=tuple(certs),
        stage_even=tuple(hc.dims[even_deg] for hc in hc_reports),
        stage_odd=tuple(hc.dims[odd_deg] for hc in hc_reports),
        even_filtration=tuple(row[0] for row in filtration),
        odd_filtration=tuple(row[1] for row in filtration))
