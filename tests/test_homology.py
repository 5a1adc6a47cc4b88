"""Homology dimensions, certificates, and lifting."""

import random

import pytest

from conftest import hh_dims
from cychom.algebra import matrix_algebra
from cychom.catalog import dual_numbers, ground_field, unimodular_scramble
from cychom.errors import NoCertificate, ValidationError
from cychom.homology import (EvenLift, HomologyReport, ObstructedLift,
                             cyclic_homology, hochschild_homology,
                             homology_representatives, lift_to_periodic,
                             periodic_via_stabilization, report_from_pivots,
                             stabilization_certificate, total_components,
                             total_differential)
from cychom.linalg import (QQ, SparseMatrix, image_basis, kernel_basis,
                           pivot_columns, rank, solve)
from cychom.mixed import build_mixed_complex

# dimension tables pinned ahead of the engine by the independent rank
# oracle in tests/oracles.py (rerun there; quoted here for direct use)
EXPECTED_HH = {
    "ground": (1, 0, 0, 0, 0, 0),
    "dual": (2, 1, 1, 1, 1, 1),
    "z2": (2, 0, 0, 0, 0, 0),
    "z3": (3, 0, 0, 0, 0, 0),
    "z4": (4, 0, 0, 0, 0, 0),
    "m2q": (1, 0, 0, 0, 0, 0),
    "hecke_s3_s2": (2, 0, 0, 0, 0, 0),
    "rand3": (3, 1, 1, 1),
}
EXPECTED_HC = {
    "ground": (1, 0, 1, 0, 1, 0),
    "dual": (2, 0, 2, 0, 2, 0),
    "z2": (2, 0, 2, 0, 2, 0),
    "z3": (3, 0, 3, 0, 3, 0),
    "z4": (4, 0, 4, 0, 4, 0),
    "m2q": (1, 0, 1, 0, 1, 0),
    "hecke_s3_s2": (2, 0, 2, 0, 2, 0),
    "rand3": (3, 0, 3, 0),
}


def test_dimension_tables(homology_reports):
    for name, want in EXPECTED_HH.items():
        got = homology_reports(name, "HH", len(want) - 1)
        assert got.dims == want, name
    for name, want in EXPECTED_HC.items():
        got = homology_reports(name, "HC", len(want) - 1)
        assert got.dims == want, name


def test_hc0_equals_hh0(homology_reports):
    for name in EXPECTED_HH:
        hh = homology_reports(name, "HH", 0)
        hc = homology_reports(name, "HC", 0)
        assert hh.dims[0] == hc.dims[0], name


def test_report_bookkeeping(homology_reports):
    rep = homology_reports("dual", "HH", 3)
    assert rep.theory == "HH" and rep.max_degree == 3
    assert len(rep.dims) == 4
    assert len(rep.boundary_ranks) == 5
    assert rep.space_dims == (2, 6, 12, 24)
    for n in range(4):
        assert rep.space_dims[n] == (rep.dims[n] + rep.boundary_ranks[n]
                                     + rep.boundary_ranks[n + 1])


def test_total_differential_blocks(mixed_complexes):
    mc = mixed_complexes("dual")
    assert total_differential(mc, 1) == mc.b_tilde[1]
    d2 = SparseMatrix.hstack([mc.b_tilde[2], mc.B_tilde[0]])
    assert total_differential(mc, 2) == d2
    # D squared is zero
    for n in (2, 3, 4):
        prod = total_differential(mc, n) @ total_differential(mc, n + 1)
        assert not prod.data
    # Tot_4 stacks Omega^4, Omega^2 and Omega^0, starting at 0, 48 and 60
    assert [mc.spaces[q].dim for q in total_components(4)] == [48, 12, 2]


def test_shallow_complex_rejected():
    a = dual_numbers()
    mc = build_mixed_complex(a, 2)
    for compute in (hochschild_homology, cyclic_homology):
        with pytest.raises(ValidationError,
                           match=r"truncated at 2; degree 2 needs the "
                                 r"differential at 3"):
            compute(mc, 2)


def test_representatives_are_independent_cycles(mixed_complexes,
                                                homology_reports):
    mc = mixed_complexes("dual")
    hh = homology_reports("dual", "HH", 3)
    for n in range(4):
        reps = homology_representatives(mc, "HH", n)
        assert len(reps) == hh.dims[n]
        for vec in reps:
            if n >= 1:
                assert mc.b_tilde[n].apply(vec) == {}
        # independent modulo boundaries: stacking them on a basis of the
        # boundary space must raise the rank by exactly their number
        cols = []
        if n + 1 <= mc.n_max:
            cols = list(mc.b_tilde[n + 1].columns())
        base = SparseMatrix.from_columns(mc.spaces[n].dim, cols)
        r0 = rank(base)
        stacked = SparseMatrix.from_columns(mc.spaces[n].dim,
                                            cols + list(reps))
        assert rank(stacked) == r0 + len(reps)
    hc = homology_reports("dual", "HC", 2)
    assert len(homology_representatives(mc, "HC", 2)) == hc.dims[2] == 2


def _three_step_representatives(d_out, d_in):
    """Cycles kept by a pivot pass over [image basis | kernel basis]."""
    cycles = kernel_basis(d_out)
    bounds = image_basis(d_in)
    stacked = SparseMatrix.from_columns(d_in.rows,
                                        list(bounds) + list(cycles))
    return tuple(cycles[i - len(bounds)] for i in pivot_columns(stacked)
                 if i >= len(bounds))


@pytest.mark.parametrize("name", ["dual", "z3", "hecke_s3_s2"])
def test_representatives_match_three_step_reference(name, mixed_complexes,
                                                    homology_reports):
    mc = mixed_complexes(name)
    for theory, diff in (("HH", lambda n: mc.b_tilde[n]),
                         ("HC", lambda n: total_differential(mc, n))):
        dims = homology_reports(name, theory, 3).dims
        for n in range(4):
            d_in = diff(n + 1)
            d_out = diff(n) if n >= 1 else SparseMatrix(0, d_in.rows)
            want = _three_step_representatives(d_out, d_in)
            assert len(want) == dims[n], (theory, n)
            assert homology_representatives(mc, theory, n) == want


def test_certificates(homology_reports):
    for name in ("ground", "z2", "z3", "z4", "m2q", "hecke_s3_s2"):
        cert = stabilization_certificate(homology_reports(name, "HH", 5))
        assert cert is not None, name
        assert cert.vanishing_bound == 0
        assert cert.verified_degrees == (1, 2, 3, 4, 5)
        assert cert.checked_through == 5
    for name, degree in (("dual", 5), ("rand3", 3)):
        hh = homology_reports(name, "HH", degree)
        assert stabilization_certificate(hh) is None, name


def test_periodic_reports(homology_reports):
    expected = {"ground": (1, 0), "z2": (2, 0), "z3": (3, 0),
                "z4": (4, 0), "m2q": (1, 0), "hecke_s3_s2": (2, 0)}
    for name, want in expected.items():
        # one algebra is a one-stage tower
        hp = periodic_via_stabilization([homology_reports(name, "HH", 5)],
                                        [homology_reports(name, "HC", 5)])
        assert hp.dims == (want,), name
        assert (hp.common_bound, hp.even_degree, hp.odd_degree) == (0, 2, 3)
        cert, = hp.certificates
        assert cert.vanishing_bound == 0
        assert cert.verified_degrees == (1, 2, 3, 4, 5)
        assert cert.checked_through == 5
        assert (cert.even_degree, cert.odd_degree) == (2, 3)
        assert cert.even_repeat_equal is True
        assert cert.odd_repeat_equal is True


def test_periodic_refusals(homology_reports):
    with pytest.raises(NoCertificate,
                       match="^stage 0 has no vanishing certificate "
                             "within 5$"):
        periodic_via_stabilization([homology_reports("dual", "HH", 5)],
                                   [None])
    # certificate exists at depth 2 but the stabilized odd degree is 3:
    # refuse rather than read cyclic dimensions beyond the truncation
    with pytest.raises(NoCertificate,
                       match="^common bound 0 stabilizes at degrees 2, 3, "
                             "beyond truncation 2$"):
        periodic_via_stabilization([homology_reports("z2", "HH", 2)],
                                   [homology_reports("z2", "HC", 2)])


def test_stage_and_common_bound_must_read_the_same_cyclic_dimensions():
    # hand-built reports at max_degree 5: stage 0 vanishes above 0 and reads
    # HP at degrees 2, 3; stage 1 vanishes above 2, so the common degrees
    # are 4, 5, and stage 0's HC_2 != HC_4 breaks its own period two
    def report(theory, dims):
        return HomologyReport(theory, 5, dims, None, None)

    hh = [report("HH", (1, 0, 0, 0, 0, 0)), report("HH", (1, 0, 1, 0, 0, 0))]
    hc = [report("HC", (1, 0, 1, 0, 2, 0)), report("HC", (1, 0, 1, 0, 1, 0))]
    with pytest.raises(ValidationError,
                       match="^stabilized cyclic dimensions disagree between "
                             "the stage bound and the common bound$"):
        periodic_via_stabilization(hh, hc)
    # with HC_2 = HC_4 on stage 0 both bounds read the same pair
    hc[0] = report("HC", (1, 0, 2, 0, 2, 0))
    hp = periodic_via_stabilization(hh, hc)
    assert (hp.common_bound, hp.even_degree, hp.odd_degree) == (2, 4, 5)
    assert hp.dims == ((2, 0), (1, 0))
    assert [(c.even_degree, c.odd_degree) for c in hp.certificates] == \
        [(2, 3), (4, 5)]


def test_ranks_past_a_chain_space_are_refused(mixed_complexes):
    # rank d_1 is at most dim C_0; one more pivot would make H_0 negative
    mc = mixed_complexes("ground")
    pivots = [(), tuple(range(mc.spaces[0].dim + 1)), ()]
    with pytest.raises(ValidationError,
                       match="^negative homology dimension at degree 0$"):
        report_from_pivots(mc, "HH", 1, pivots)


def test_unit_lift_is_pinned(mixed_complexes):
    mc = mixed_complexes("dual")
    lift = lift_to_periodic({0: QQ(1)}, 0, mc)
    assert isinstance(lift, EvenLift)
    assert lift.top_degree == 6
    assert lift.components[0] == {0: QQ(1)}
    assert lift.components[2] == {0: QQ(-2), 8: QQ(1)}
    # the solved component satisfies its defining equation
    got = mc.b_tilde[2].apply(lift.components[2])
    want = {i: -v for i, v in mc.B_tilde[0].apply({0: QQ(1)}).items()}
    assert got == want


def test_obstructed_lift_on_dual_numbers(mixed_complexes, homology_reports):
    mc = mixed_complexes("dual")
    res = lift_to_periodic({1: QQ(1)}, 0, mc)
    assert isinstance(res, ObstructedLift)
    assert res.degree == 2
    assert res.witness_degree == 1
    assert res.witness == {5: QQ(1)}
    assert res.partial == {0: {1: QQ(1)}}
    # the witness is an exact cycle that does not bound, so homology at the
    # witness degree is nonzero, and the report agrees at both degrees
    assert not mc.b_tilde[1].apply(res.witness)
    assert solve(mc.b_tilde[2], res.witness) is None
    hh = homology_reports("dual", "HH", 5)
    assert hh.dims[res.witness_degree] != 0
    assert hh.dims[res.degree] != 0


def test_lift_rejects_bad_input(mixed_complexes):
    mc = mixed_complexes("dual")
    with pytest.raises(ValidationError, match="D_2 is nonzero on the chain"):
        lift_to_periodic({0: QQ(1)}, 2, mc)
    # D_2 is nonzero on the C_0 summand alone, through B~
    with pytest.raises(ValidationError, match="D_2 is nonzero on the chain"):
        lift_to_periodic({mc.spaces[2].dim: QQ(1)}, 2, mc)
    # n_max is 6, so 8 is past the top even degree and -2 below Tot_0
    for degree in (1, 8, -2):
        with pytest.raises(ValidationError,
                           match="lift starts from an even degree <= 6"):
            lift_to_periodic({0: QQ(1)}, degree, mc)
    tot2 = sum(mc.spaces[q].dim for q in total_components(2))
    for bad in (mc.spaces[0].dim, -1):
        with pytest.raises(ValidationError,
                           match="coordinate out of range in Tot_0"):
            lift_to_periodic({bad: QQ(1)}, 0, mc)
    with pytest.raises(ValidationError,
                       match="coordinate out of range in Tot_2"):
        lift_to_periodic({tot2: QQ(1)}, 2, mc)


def test_random_cycles_lift_and_round_trip(algebras):
    rng = random.Random(20240815)
    for name in ("z2", "z3"):
        mc = build_mixed_complex(algebras[name], 6)
        for degree in (2, 4):
            ker = kernel_basis(total_differential(mc, degree))
            for _ in range(3):
                vec = {}
                for b in rng.sample(ker, min(4, len(ker))):
                    c = QQ(rng.randint(-3, 3))
                    for i, v in b.items():
                        s = vec.get(i, QQ(0)) + c * v
                        if s:
                            vec[i] = s
                        else:
                            vec.pop(i, None)
                lift = lift_to_periodic(vec, degree, mc)
                assert isinstance(lift, EvenLift), (name, degree)
                assert lift.top_degree == 6
                assert lift.truncate(degree) == vec


def test_cyclic_representatives_lift_to_the_top(algebras):
    """Every class representative homology_representatives names in HC_0,
    HC_2 and HC_4 of C(A) is a flat Tot_n vector that lifts as it is, to a
    Tot_6 cycle of the D_6 the ranks use."""
    for name in ("z2", "z3"):
        mc = build_mixed_complex(algebras[name], 6)
        d6 = total_differential(mc, 6)
        for degree in (0, 2, 4):
            reps = homology_representatives(mc, "HC", degree)
            assert reps, (name, degree)
            for vec in reps:
                lift = lift_to_periodic(vec, degree, mc)
                assert isinstance(lift, EvenLift), (name, degree)
                assert lift.truncate(degree) == vec
                assert d6.apply(lift.truncate(6)) == {}


def test_morita_comparisons():
    for a, max_degree, want in ((ground_field(), 3, (1, 0, 0, 0)),
                                (dual_numbers(), 2, (2, 1, 1))):
        base = hh_dims(a, max_degree)
        matrices = hh_dims(matrix_algebra(a, 2), max_degree)
        assert base == want
        assert matrices == want


def test_direct_sum_additivity(algebras, homology_reports):
    from cychom.algebra import direct_sum
    both = direct_sum(dual_numbers(), ground_field())
    mc = build_mixed_complex(both, 4)
    hh = hochschild_homology(mc, 3)
    hc = cyclic_homology(mc, 3)
    dual_hh = homology_reports("dual", "HH", 3)
    ground_hh = homology_reports("ground", "HH", 3)
    assert hh.dims == tuple(x + y for x, y in
                            zip(dual_hh.dims, ground_hh.dims))
    assert hc.dims == (3, 0, 3, 0)


def test_basis_independence():
    a = dual_numbers()
    scrambled = unimodular_scramble(a, 424242)
    assert scrambled.table != a.table
    mc = build_mixed_complex(scrambled, 5)
    assert hochschild_homology(mc, 4).dims == (2, 1, 1, 1, 1)
    assert cyclic_homology(mc, 4).dims == (2, 0, 2, 0, 2)
