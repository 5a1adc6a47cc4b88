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
takes the HH continuity result's complexes and reports.  Per theory and
degree n, an earlier stage costs kernel_basis(d_n) and one
independent_modulo(d_{n+1}) for its representatives, the final stage one
rank(d_{n+1}), and each filtration entry one independent_modulo of the
pushed representatives against the final stage's d_{n+1}.
homology_of_stages also needs the final stage's representatives and solves
once per degree for every stage.
"""

from dataclasses import dataclass, field
from itertools import islice

from .algebra import AlgebraHom, group_algebra, hecke_algebra, hecke_inclusion
from .errors import CertMissing, NotAChain, NotInjective, ValidationError
from .homology import (cyclic_homology, differential, hochschild_homology,
                       periodic_via_stabilization, stabilization_certificate,
                       total_components)
from .linalg import SparseMatrix, independent_modulo, solve_columns
from .mixed import build_mixed_complex, induced_chain_map


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


def constant_system(a, length):
    """The system A -> A -> ... -> A along identity maps."""
    if length < 1:
        raise ValidationError("length must be at least 1")
    return DirectSystem([a] * length, [identity_hom(a)] * (length - 1))


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


def _push(chain_maps, src_mc, dst_mc, theory, n, vectors):
    """Images of degree-n chains of one stage in the final stage."""
    push = (chain_maps[n] if theory == "HH"
            else _induced_total_map(chain_maps, src_mc, dst_mc, n))
    return [push.apply(v) for v in vectors]


def _stage_reports(ds, mcs, theory, max_degree):
    """One report per stage; all but the final one carry representatives."""
    compute = hochschild_homology if theory == "HH" else cyclic_homology
    last = len(ds) - 1
    return tuple(compute(a, max_degree, mc=mc, representatives=i < last)
                 for i, (a, mc) in enumerate(zip(ds.stages, mcs)))


def _image_filtration(ds, mcs, reports, theory, degrees):
    """Rows per stage: image dimensions in the final stage at each degree.

    An earlier stage's entry is the number of its pushed representatives
    independent modulo the final stage's boundaries, one elimination each;
    the final stage's row is its own dimensions.
    """
    chain_maps = [induced_chain_map(f, max(degrees))
                  for f in ds.to_final[:-1]]
    columns = []
    for n in degrees:
        d_in = differential(mcs[-1], theory, n + 1)
        column = []
        for i, maps in enumerate(chain_maps):
            reps = reports[i].representatives[n]
            pushed = _push(maps, mcs[i], mcs[-1], theory, n, reps)
            column.append(len(independent_modulo(d_in, pushed)[1])
                          if reps else 0)
        column.append(reports[-1].dims[n])
        columns.append(column)
    return tuple(zip(*columns))


@dataclass(frozen=True, eq=False)
class TowerHomology:
    """Per-stage reports plus the maps induced on homology into the final stage.

    induced[i][n] expresses the pushforward of stage i's degree-n class
    representatives in the final stage's representative basis.
    """

    theory: str
    max_degree: int
    reports: tuple
    induced: tuple


def homology_of_stages(ds, theory, max_degree):
    """Stage-by-stage reports and induced maps on homology.

    Induced maps are computed by pushing representative cycles through the
    composite chain map and solving, in one solve per degree for all stages,
    against the final stage's boundaries plus representatives; the
    coordinates on the representative block are unique, so the matrices are
    well-defined.
    """
    if theory not in ("HH", "HC"):
        raise ValidationError(f"unknown theory {theory!r}")
    compute = hochschild_homology if theory == "HH" else cyclic_homology
    mcs = [build_mixed_complex(a, max_degree + 1) for a in ds.stages]
    reports = tuple(compute(a, max_degree, mc=mc, representatives=True)
                    for a, mc in zip(ds.stages, mcs))
    chain_maps = [induced_chain_map(f, max_degree) for f in ds.to_final]
    induced = tuple({} for _ in ds.stages)
    for n in range(max_degree + 1):
        d_in = differential(mcs[-1], theory, n + 1)
        basis = reports[-1].representatives[n]
        stacked = SparseMatrix.hstack(
            [d_in, SparseMatrix.from_columns(d_in.rows, list(basis))])
        pushed = [_push(maps, mcs[i], mcs[-1], theory, n,
                        reports[i].representatives[n])
                  for i, maps in enumerate(chain_maps)]
        sols = iter(solve_columns(stacked, [v for vs in pushed for v in vs]))
        for i, vs in enumerate(pushed):
            cols = []
            for sol in islice(sols, len(vs)):
                if sol is None:
                    raise ValidationError(
                        "pushed class escaped the final homology basis")
                cols.append({k - d_in.cols: v for k, v in sol.items()
                             if k >= d_in.cols})
            induced[i][n] = SparseMatrix.from_columns(len(basis), cols)
    return TowerHomology(theory, max_degree, reports, induced)


@dataclass(frozen=True)
class ContinuityReport:
    """Image filtration of stage homology inside the final stage.

    image_filtration[i][n] is the dimension of the image of stage i's
    degree-n homology in the final stage; the last row is the final stage's
    own dimensions, since it maps by the identity.  complexes and
    stage_reports keep each stage's mixed complex and report, so that
    hp_continuity_check can reuse them.
    """

    theory: str
    max_degree: int
    final_dims: tuple
    image_filtration: tuple
    complexes: tuple = field(repr=False, compare=False)
    stage_reports: tuple = field(repr=False, compare=False)

    @property
    def monotone(self):
        for n in range(self.max_degree + 1):
            dims = [row[n] for row in self.image_filtration]
            if any(a > b for a, b in zip(dims, dims[1:])):
                return False
        return True


def continuity_check(ds, theory, max_degree):
    """Image filtration of every stage's homology in the final stage."""
    if theory not in ("HH", "HC"):
        raise ValidationError(f"unknown theory {theory!r}")
    mcs = tuple(build_mixed_complex(a, max_degree + 1) for a in ds.stages)
    reports = _stage_reports(ds, mcs, theory, max_degree)
    filtration = _image_filtration(ds, mcs, reports, theory,
                                   range(max_degree + 1))
    return ContinuityReport(theory, max_degree, reports[-1].dims,
                            filtration, mcs, reports)


@dataclass(frozen=True)
class HpContinuityReport:
    """Stage-wise periodic dimensions under a common vanishing bound.

    stage_even/stage_odd are the periodic dimensions per stage, read at the
    common stabilized degrees; the filtrations are image dimensions of stage
    cyclic homology inside the final stage at those two degrees.
    """

    common_bound: int
    even_degree: int
    odd_degree: int
    checked_through: int
    certificates: tuple
    stage_even: tuple
    stage_odd: tuple
    even_filtration: tuple
    odd_filtration: tuple

    @property
    def final_even(self):
        return self.stage_even[-1]

    @property
    def final_odd(self):
        return self.stage_odd[-1]

    @property
    def monotone(self):
        return (all(a <= b for a, b in
                    zip(self.even_filtration, self.even_filtration[1:]))
                and all(a <= b for a, b in
                        zip(self.odd_filtration, self.odd_filtration[1:])))


def hp_continuity_check(ds, max_degree, hh_continuity=None):
    """Periodic dimensions along the tower under a common certificate.

    Every stage must admit a vanishing certificate within max_degree; the
    common bound is the largest stage bound, and the periodic dimensions of
    all stages are read at the degrees stabilized by that common bound.
    Raises CertMissing when any stage lacks a certificate or the stabilized
    degrees do not fit under the truncation.  The stages' mixed complexes
    and HH reports come from hh_continuity, the result of
    continuity_check(ds, "HH", max_degree), which is computed when not given.
    """
    cont = hh_continuity or continuity_check(ds, "HH", max_degree)
    if (cont.theory, cont.max_degree) != ("HH", max_degree):
        raise ValidationError(
            f"hp_continuity_check needs the HH continuity at {max_degree}")
    mcs, hh_reports = cont.complexes, cont.stage_reports
    certs = []
    for i, (a, hh) in enumerate(zip(ds.stages, hh_reports)):
        cert = stabilization_certificate(a, max_degree, hh_report=hh)
        if cert is None:
            raise CertMissing(
                f"stage {i} has no vanishing certificate within {max_degree}")
        certs.append(cert)
    common = max(c.vanishing_bound for c in certs)
    even_deg = 2 * (common // 2 + 1)
    odd_deg = even_deg + 1
    if odd_deg > max_degree:
        raise CertMissing(
            f"common bound {common} stabilizes at degrees {even_deg}, "
            f"{odd_deg}, beyond truncation {max_degree}")
    hc_reports = _stage_reports(ds, mcs, "HC", max_degree)
    for a, mc, hh, hc in zip(ds.stages, mcs, hh_reports, hc_reports):
        hp = periodic_via_stabilization(a, max_degree, mc=mc,
                                        hh_report=hh, hc_report=hc)
        if hp.dims != (hc.dims[even_deg], hc.dims[odd_deg]):
            raise ValidationError(
                "stabilized cyclic dimensions disagree between the stage "
                "bound and the common bound")
    filtration = _image_filtration(ds, mcs, hc_reports, "HC",
                                   (even_deg, odd_deg))
    return HpContinuityReport(
        common_bound=common, even_degree=even_deg, odd_degree=odd_deg,
        checked_through=max_degree, certificates=tuple(certs),
        stage_even=tuple(hc.dims[even_deg] for hc in hc_reports),
        stage_odd=tuple(hc.dims[odd_deg] for hc in hc_reports),
        even_filtration=tuple(row[0] for row in filtration),
        odd_filtration=tuple(row[1] for row in filtration))
