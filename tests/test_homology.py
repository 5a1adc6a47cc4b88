"""Homology dimensions, certificates, and lifting."""

import random

import pytest

from conftest import hh_dims, split_flat
from cychom.algebra import matrix_algebra
from cychom.catalog import dual_numbers, ground_field, unimodular_scramble
from cychom.errors import DegreeOutOfRange, NoCertificate, NotACycle
from cychom.homology import (EvenLift, ObstructedLift, TotChainIndex,
                             cyclic_homology, hochschild_homology,
                             homology_representatives, lift_to_periodic,
                             omega_complex, periodic_via_stabilization,
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
        assert prod.is_zero()
    # Tot_4 stacks Omega^4, Omega^2 and Omega^0, starting at 0, 48 and 60
    assert [mc.spaces[q].dim for q in total_components(4)] == [48, 12, 2]


def test_shallow_complex_rejected():
    a = dual_numbers()
    mc = build_mixed_complex(a, 2)
    with pytest.raises(DegreeOutOfRange):
        hochschild_homology(mc, 2)
    with pytest.raises(DegreeOutOfRange):
        cyclic_homology(mc, 2)


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
        hp, = periodic_via_stabilization([homology_reports(name, "HH", 5)],
                                         [homology_reports(name, "HC", 5)])
        assert hp.theory == "HP"
        assert hp.dims == want, name
        cert = hp.certificate
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


def test_unit_lift_is_pinned(mixed_complexes):
    mc = mixed_complexes("dual")
    lift = lift_to_periodic(TotChainIndex(0, {0: {0: QQ(1)}}), mc,
                            top_degree=2)
    assert isinstance(lift, EvenLift)
    assert lift.components == {0: {0: QQ(1)}, 2: {0: QQ(-2), 8: QQ(1)}}
    # the solved component satisfies its defining equation
    got = mc.b_tilde[2].apply(lift.components[2])
    want = {i: -v for i, v in mc.B_tilde[0].apply({0: QQ(1)}).items()}
    assert got == want


def test_obstructed_lift_on_dual_numbers(mixed_complexes, homology_reports):
    mc = mixed_complexes("dual")
    res = lift_to_periodic(TotChainIndex(0, {0: {1: QQ(1)}}), mc)
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
    with pytest.raises(NotACycle):
        lift_to_periodic(TotChainIndex(2, {2: {0: QQ(1)}}), mc)
    with pytest.raises(DegreeOutOfRange):
        lift_to_periodic(TotChainIndex(1, {1: {0: QQ(1)}}), mc)
    with pytest.raises(DegreeOutOfRange):
        lift_to_periodic(TotChainIndex(0, {0: {0: QQ(1)}}), mc, top_degree=8)


def test_random_cycles_lift_and_round_trip(algebras, mixed_complexes):
    rng = random.Random(20240815)
    for name in ("z2", "z3"):
        mc = mixed_complexes(name)
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
                chain = split_flat(mc, degree, vec)
                lift = lift_to_periodic(chain, mc)
                assert isinstance(lift, EvenLift), (name, degree)
                assert lift.top_degree == 6
                back = lift.truncate(degree)
                assert back.components == chain.components


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
    mc = omega_complex(both, 4)
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
    mc = omega_complex(scrambled, 5)
    assert hochschild_homology(mc, 4).dims == (2, 1, 1, 1, 1)
    assert cyclic_homology(mc, 4).dims == (2, 0, 2, 0, 2)
