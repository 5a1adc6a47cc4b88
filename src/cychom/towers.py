"""Finite chains of algebra inclusions and continuity of their homology.

A DirectSystem is an ordered list of algebras with injective multiplicative
maps between consecutive stages; the final stage plays the role of the limit.
The continuity statements verified here are image-filtration statements: the
classes coming from earlier stages sit inside the homology of the final
stage, the filtration grows with the stage, and the last stage fills it.

Periodic continuity is gated by the rule single-algebra reports follow,
homology.periodic_via_stabilization: a common vanishing bound is taken over
the stages, and the periodic dimensions are read off at the cyclic degrees
it stabilizes; its PeriodicReport is all hp_continuity_check reports but
the image filtration there.  The hp command is the one-stage case.

The tower command builds each stage's mixed complex once.  The final stage
builds the normalized complex C(A_m) when it has a unit.  An earlier stage's
map need not keep the unit, so an earlier stage builds Omega(A_i) with its
unit forgotten, and mixed.induced_chain_map, built once per earlier stage,
carries it into the final stage through the map's unital extension
A_i~ -> A_m.  Every stage passes the one size guard, mixed.check_size,
before any stage is built.

Every stage, earlier and final, is ranked once for both theories by
homology.hochschild_and_cyclic: D_1 .. D_{max_degree+1}, one elimination
each, which also give rank b~_1 .. b~_{max_degree+1}.  A filtration entry
at degree n is one more rank, of a block matrix built from the final
stage's d_{n+1}, the chain map and the stage's d_n (_image_filtration),
run only where the stage's H_n is nonzero.  No cycle space or class
representative is computed.  hp_continuity_check reuses the continuity
report's HC reports, complexes and chain maps, and ranks only the two
periodic filtration degrees, none for a one-stage tower.

That block matrix is M = [[D, F], [0, d]], with D the final stage's
d_{n+1}, F the chain map and d the stage's d_n, and two sets of its rows
are combinations of the others, so M is eliminated from its blocks (a
linalg.BlockMatrix) without them, and never assembled.
The top rows at the pivot columns of the final stage's d_n: F is a chain
map, so d_n [D, F] = F [0, d], and the columns of d_n at its pivots have a
left inverse.  The bottom rows at the pivot columns of the stage's
d_{n-1}: d_{n-1} d_n = 0, the argument by which homology drops rows of
D_n.  The reports carry every d_n's pivot columns for this.
"""

from .algebra import AlgebraHom, forget_unit, hecke_algebra, hecke_inclusion
from .errors import ValidationError
from .homology import (differential_blocks, hochschild_and_cyclic,
                       periodic_via_stabilization)
from .linalg import BlockMatrix, SparseMatrix, rank
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
                raise ValidationError(f"stage map {i} is not injective")
        self.stages = stages
        self.maps = maps
        final = stages[-1]
        to_final = [identity_hom(final)]
        for i in range(len(maps) - 1, -1, -1):
            to_final.append(to_final[-1].compose(maps[i]))
        self.to_final = tuple(reversed(to_final))

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
        raise ValidationError("empty subgroup chain")
    for i in range(len(chain) - 1):
        if not set(chain[i + 1]) <= set(chain[i]):
            raise ValidationError(f"subgroup {i + 1} is not contained in subgroup {i}")
    if chain[-1] != [g.identity]:
        raise ValidationError("chain must end at the trivial subgroup")
    stages = [hecke_algebra(g, k) for k in chain]
    maps = [hecke_inclusion(g, chain[i], chain[i + 1],
                            source=stages[i], target=stages[i + 1])
            for i in range(len(chain) - 1)]
    return DirectSystem(stages, maps)


def _stage_complexes(ds, n_max):
    """Every stage's mixed complex, in stage order.

    A stage map need not keep the unit (the Hecke corner embedding sends 1
    to 1/2 e0 + 1/2 e2), so an earlier stage builds Omega(A_i), its unit
    forgotten, and induced_chain_map reaches the final stage's C(A_m)
    through the unital extension of the map.  Neither bounds the other: a
    stage isomorphic to the final one has (d+1) d^n cells in degree n
    against d (d-1)^n.  So every stage passes the size guard before any is
    built, and a refusal costs no build.  Every stage is ranked through
    D_{n_max}, which reads B~ only through degree n_max - 2, so B~ is built
    that far.
    """
    algebras = [forget_unit(a) for a in ds.stages[:-1]] + [ds.stages[-1]]
    for a in algebras:
        check_size(a, n_max)
    return tuple(build_mixed_complex(a, n_max, n_max - 2) for a in algebras)


def _image_filtration(mcs, chain_maps, reports, theory, degrees):
    """Rows per stage: image dimensions in the final stage at each degree.

    reports holds every stage's report for theory, the final stage's last,
    and chain_maps each earlier stage's induced_chain_map.  The final
    stage's row is its own dimensions.  An earlier stage's entry at degree
    n is 0 where its H_n is 0, else one rank.  With D = d_{n+1} of the final
    stage, F the chain map in degree n and d = d_n of the stage, the image
    of H_n(A_i) in H_n(A_m) is (F Z_n + col D) / col D, Z_n = ker d.  Let

        M = [[D, F],
             [0, d]].

    Projecting col M onto its lower coordinates gives col d, and M (x, y)
    projects to 0 exactly when d y = 0, so the kernel of the projection is
    col [D | F K] with K spanning Z_n.  Hence rank M = rank d +
    rank [D | F K], and the image has dimension rank [D | F K] - rank D =
    rank M - rank d - rank D, both subtracted ranks read off the reports'
    boundary_ranks.  At n = 0, d = 0 and M = [D | F].

    M is one linalg.BlockMatrix of the complexes' b~ and B~ blocks
    (homology.differential_blocks) and, for HC, F block diagonal over the
    summands of Tot_n: only those blocks are passed, and rank places them
    straight into rows.  The view leaves out two sets of M's rows, so no
    row of them is placed.  Each is a combination of the rows kept, so
    the row space and rank M stay.
    With P the pivot columns of a differential and Q the others, its
    columns at P have a left inverse L (homology's module docstring).

    - Top rows, at the pivot columns of the final stage's d_n.  F is a
      chain map, so d^f_n [D, F] = [d^f_n d^f_{n+1}, F_{n-1} d_n] =
      F_{n-1} [0, d], and the top rows at P are
      L (F_{n-1} [0, d] - d^f_n[:, Q] [D, F][Q, :]): combinations of the
      bottom rows and the other top rows.
    - Bottom rows, at the pivot columns of the stage's d_{n-1}.  There
      d_{n-1} d_n = 0 makes the rows [0, d] at P combinations of the other
      rows [0, d], as in homology.

    The dropped bottom rows are combinations of kept ones, so the dropped
    top rows are too.  Both sets are read off the reports'
    boundary_pivots; for HH, d_n's pivots are D_n's below dim C_n
    (homology.total_rank_split).
    """
    final_mc, final = mcs[-1], reports[-1]
    columns = []
    for n in degrees:
        top, here, above = differential_blocks(final_mc, theory, n + 1)
        left = len(above)
        column = []
        for maps, mc, report in zip(chain_maps, mcs, reports):
            if not report.dims[n]:
                column.append(0)
                continue
            blocks = dict(top)
            blocks.update(((p, left + p), maps[q]) for p, q in enumerate(here))
            row_dims = [final_mc.spaces[q].dim for q in here]
            dependent = list(final.boundary_pivots[n])
            if n:
                low, below, _ = differential_blocks(mc, theory, n)
                blocks.update(((len(here) + r, left + c), block)
                              for (r, c), block in low.items())
                offset = sum(row_dims)
                dependent += [offset + r for r in report.boundary_pivots[n - 1]]
                row_dims += [mc.spaces[q].dim for q in below]
            m = BlockMatrix(
                blocks, row_dims, [final_mc.spaces[q].dim for q in above]
                + [mc.spaces[q].dim for q in here], dependent)
            column.append(rank(m)
                          - report.boundary_ranks[n]
                          - final.boundary_ranks[n + 1])
        column.append(final.dims[n])
        columns.append(column)
    return tuple(zip(*columns))


def _nondecreasing(*columns):
    """Whether no column of image dimensions shrinks from stage to stage."""
    return all(a <= b for column in columns
               for a, b in zip(column, column[1:]))


class ContinuityReport:
    """Image filtration of stage Hochschild homology inside the final stage.

    image_filtration[i][n] is the dimension of the image of stage i's
    degree-n homology in the final stage; the last row is the final stage's
    own dimensions, since it maps by the identity.  complexes, chain_maps
    (one per earlier stage), hh_reports and hc_reports keep what
    hp_continuity_check reuses.
    """

    __slots__ = ("image_filtration", "complexes", "chain_maps", "hh_reports",
                 "hc_reports")

    def __init__(self, image_filtration, complexes, chain_maps, hh_reports,
                 hc_reports):
        self.image_filtration = image_filtration
        self.complexes = complexes
        self.chain_maps = chain_maps
        self.hh_reports = hh_reports
        self.hc_reports = hc_reports

    @property
    def final_dims(self):
        return self.hh_reports[-1].dims

    @property
    def monotone(self):
        return _nondecreasing(*zip(*self.image_filtration))


def continuity_check(ds, max_degree):
    """Image filtration of every stage's Hochschild homology in the final one.

    Every stage is ranked for both theories by hochschild_and_cyclic, so
    the HC reports that hp_continuity_check reads cost no second
    elimination.
    """
    mcs = _stage_complexes(ds, max_degree + 1)
    hh_reports, hc_reports = zip(*(hochschild_and_cyclic(mc, max_degree)
                                   for mc in mcs))
    chain_maps = tuple(induced_chain_map(f, max_degree)
                       for f in ds.to_final[:-1])
    filtration = _image_filtration(mcs, chain_maps, hh_reports, "HH",
                                   range(max_degree + 1))
    return ContinuityReport(filtration, mcs, chain_maps, hh_reports,
                            hc_reports)


class HpContinuityReport:
    """The stages' PeriodicReport and the image filtrations at its degrees.

    even_filtration and odd_filtration are the image dimensions of stage
    cyclic homology inside the final stage at periodic.even_degree and
    periodic.odd_degree.
    """

    __slots__ = ("periodic", "even_filtration", "odd_filtration")

    def __init__(self, periodic, even_filtration, odd_filtration):
        self.periodic = periodic
        self.even_filtration = even_filtration
        self.odd_filtration = odd_filtration

    @property
    def monotone(self):
        return _nondecreasing(self.even_filtration, self.odd_filtration)


def hp_continuity_check(cont):
    """Periodic dimensions along the tower under a common certificate.

    cont is the result of continuity_check(ds, max_degree); its stages'
    complexes, chain maps and HH and HC reports are reused, so only the two
    filtration degrees are ranked here.  homology.periodic_via_stabilization
    reads every stage's HP at the degrees the common bound stabilizes, or
    raises NoCertificate.
    """
    periodic = periodic_via_stabilization(cont.hh_reports, cont.hc_reports)
    filtration = _image_filtration(
        cont.complexes, cont.chain_maps, cont.hc_reports, "HC",
        (periodic.even_degree, periodic.odd_degree))
    return HpContinuityReport(periodic, *zip(*filtration))
