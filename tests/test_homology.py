"""Homology dimensions, certificates, lifting, and the comparison reports."""

import random

import pytest

from cychom.catalog import dual_numbers, ground_field, unimodular_scramble
from cychom.errors import (DegreeOutOfRange, NoCertificate,
                           NotABoundingChain, NotACycle, ValidationError)
from cychom.homology import (EvenLift, ObstructedLift, TotChainIndex,
                             cyclic_homologous, cyclic_homology, embed_total,
                             extend_bounding_chain, hochschild_homology,
                             homology_representatives, is_cyclic_boundary,
                             is_hochschild_boundary, lift_to_periodic,
                             morita_compare, periodic_via_stabilization,
                             split_total, stabilization_certificate,
                             total_differential, total_offsets)
from cychom.linalg import (QQ, SparseMatrix, image_basis, kernel_basis,
                           pivot_columns, rank)
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
    assert total_offsets(mc, 4) == {4: 0, 2: 48, 0: 60}


def test_embed_split_roundtrip(mixed_complexes):
    mc = mixed_complexes("dual")
    chain = TotChainIndex(4, {4: {0: QQ(2), 47: QQ(-1)}, 0: {1: QQ(3)}})
    flat = embed_total(mc, chain)
    assert flat == {0: QQ(2), 47: QQ(-1), 61: QQ(3)}
    back = split_total(mc, 4, flat)
    assert back.components == {4: {0: QQ(2), 47: QQ(-1)}, 0: {1: QQ(3)}}
    with pytest.raises(ValidationError):
        embed_total(mc, TotChainIndex(4, {3: {0: QQ(1)}}))
    with pytest.raises(ValidationError):
        embed_total(mc, TotChainIndex(2, {2: {99: QQ(1)}}))


def test_shallow_complex_rejected():
    a = dual_numbers()
    mc = build_mixed_complex(a, 2)
    with pytest.raises(DegreeOutOfRange):
        hochschild_homology(a, 2, mc=mc)
    with pytest.raises(DegreeOutOfRange):
        cyclic_homology(a, 2, mc=mc)


def test_representatives_are_independent_cycles(algebras, mixed_complexes):
    a = algebras["dual"]
    mc = mixed_complexes("dual")
    hh = hochschild_homology(a, 3, mc=mc, representatives=True)
    for n in range(4):
        reps = hh.representatives[n]
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
    hc = cyclic_homology(a, 2, mc=mc, representatives=True)
    assert len(hc.representatives[2]) == hc.dims[2] == 2


def _three_step_representatives(d_out, d_in):
    """Cycles kept by a pivot pass over [image basis | kernel basis]."""
    cycles = kernel_basis(d_out).basis
    bounds = image_basis(d_in).basis
    stacked = SparseMatrix.from_columns(d_in.rows,
                                        list(bounds) + list(cycles))
    return tuple(cycles[i - len(bounds)] for i in pivot_columns(stacked)
                 if i >= len(bounds))


@pytest.mark.parametrize("name", ["dual", "z3", "hecke_s3_s2"])
def test_representatives_match_three_step_reference(name, algebras,
                                                    mixed_complexes):
    a = algebras[name]
    mc = mixed_complexes(name)
    for theory, compute, diff in (
            ("HH", hochschild_homology, lambda n: mc.b_tilde[n]),
            ("HC", cyclic_homology, lambda n: total_differential(mc, n))):
        reps = compute(a, 3, mc=mc, representatives=True).representatives
        for n in range(4):
            d_in = diff(n + 1)
            d_out = diff(n) if n >= 1 else SparseMatrix(0, d_in.rows)
            want = _three_step_representatives(d_out, d_in)
            assert reps[n] == want, (theory, n)
            assert homology_representatives(mc, theory, n) == want


def test_certificates(algebras, homology_reports):
    for name in ("ground", "z2", "z3", "z4", "m2q", "hecke_s3_s2"):
        cert = stabilization_certificate(
            algebras[name], 5, hh_report=homology_reports(name, "HH", 5))
        assert cert is not None, name
        assert cert.vanishing_bound == 0
        assert cert.verified_degrees == (1, 2, 3, 4, 5)
        assert cert.checked_through == 5
    assert stabilization_certificate(
        algebras["dual"], 5, hh_report=homology_reports("dual", "HH", 5)) is None
    assert stabilization_certificate(
        algebras["rand3"], 3, hh_report=homology_reports("rand3", "HH", 3)) is None


def test_periodic_reports(algebras, mixed_complexes, homology_reports):
    expected = {"ground": (1, 0), "z2": (2, 0), "z3": (3, 0),
                "z4": (4, 0), "m2q": (1, 0), "hecke_s3_s2": (2, 0)}
    for name, want in expected.items():
        hp = periodic_via_stabilization(
            algebras[name], 5, mc=mixed_complexes(name),
            hh_report=homology_reports(name, "HH", 5),
            hc_report=homology_reports(name, "HC", 5))
        assert hp.theory == "HP"
        assert hp.dims == want, name
        cert = hp.certificate
        assert (cert.even_degree, cert.odd_degree) == (2, 3)
        assert cert.even_repeat_equal is True
        assert cert.odd_repeat_equal is True


def test_periodic_refusals(algebras, mixed_complexes, homology_reports):
    with pytest.raises(NoCertificate):
        periodic_via_stabilization(
            algebras["dual"], 5, mc=mixed_complexes("dual"),
            hh_report=homology_reports("dual", "HH", 5))
    # certificate exists at depth 2 but the stabilized odd degree is 3:
    # refuse rather than read cyclic dimensions beyond the truncation
    with pytest.raises(NoCertificate):
        periodic_via_stabilization(
            algebras["z2"], 2, mc=mixed_complexes("z2"),
            hh_report=homology_reports("z2", "HH", 2))


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
    assert not is_hochschild_boundary(mc, 1, res.witness)
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
            ker = kernel_basis(total_differential(mc, degree)).basis
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
                chain = split_total(mc, degree, vec)
                lift = lift_to_periodic(chain, mc)
                assert isinstance(lift, EvenLift), (name, degree)
                assert lift.top_degree == 6
                back = lift.truncate(degree)
                assert cyclic_homologous(mc, back, chain)


def test_extend_bounding_chain_zero_case(mixed_complexes):
    mc = mixed_complexes("ground")
    lift = EvenLift(base_degree=0, top_degree=4, components={})
    out = extend_bounding_chain(lift, TotChainIndex(1, {}), mc)
    assert isinstance(out, TotChainIndex)
    assert out.degree == 5
    assert out.components == {}


def test_extend_bounding_chain_recovers_boundaries(algebras, mixed_complexes):
    rng = random.Random(99)
    for name in ("ground", "dual", "z2"):
        mc = mixed_complexes(name)
        d3 = total_differential(mc, 3)
        full = {i: QQ(rng.randint(-2, 2)) for i in range(d3.cols)}
        full = {i: v for i, v in full.items() if v}
        h_full = split_total(mc, 3, full)
        boundary = split_total(mc, 2, d3.apply(full))
        lift = EvenLift(base_degree=2, top_degree=2,
                        components=dict(boundary.components))
        h_low = TotChainIndex(1, {1: dict(h_full.component(1))})
        out = extend_bounding_chain(lift, h_low, mc)
        assert isinstance(out, TotChainIndex), name
        assert out.degree == 3
        got = d3.apply(embed_total(mc, out))
        assert got == embed_total(mc, boundary), name


def test_extend_bounding_chain_rejects_mismatch(mixed_complexes):
    mc = mixed_complexes("dual")
    lift = EvenLift(base_degree=0, top_degree=2,
                    components={0: {0: QQ(1)}})
    with pytest.raises(NotABoundingChain):
        extend_bounding_chain(lift, TotChainIndex(1, {}), mc)


def test_extend_bounding_chain_obstruction(algebras, mixed_complexes):
    a = algebras["dual"]
    mc = mixed_complexes("dual")
    hh = hochschild_homology(a, 2, mc=mc, representatives=True)
    marker = hh.representatives[2][0]
    lift = EvenLift(base_degree=2, top_degree=2, components={2: dict(marker)})
    res = extend_bounding_chain(lift, TotChainIndex(1, {}), mc)
    assert isinstance(res, ObstructedLift)
    assert res.degree == 3
    assert res.witness_degree == 2
    assert res.witness == marker
    assert not is_hochschild_boundary(mc, 2, res.witness)


def test_class_membership_helpers(mixed_complexes):
    mc = mixed_complexes("dual")
    one = TotChainIndex(0, {0: {0: QQ(1)}})
    x = TotChainIndex(0, {0: {1: QQ(1)}})
    assert not cyclic_homologous(mc, one, x)
    assert cyclic_homologous(mc, one, one)
    # shifting by a total boundary does not change the class
    d1 = total_differential(mc, 1)
    shift = d1.apply({0: QQ(5), 3: QQ(-1)})
    flat = {1: QQ(1)}
    for i, v in shift.items():
        flat[i] = flat.get(i, QQ(0)) + v
    flat = {i: v for i, v in flat.items() if v}
    assert cyclic_homologous(mc, x, TotChainIndex(0, {0: flat}))
    with pytest.raises(NotACycle):
        is_cyclic_boundary(mc, TotChainIndex(2, {2: {0: QQ(1)}}))


def test_morita_comparisons():
    ground = morita_compare(ground_field(), 2, 3)
    assert ground.dims_base == (1, 0, 0, 0)
    assert ground.dims_matrix == (1, 0, 0, 0)
    assert ground.all_equal
    dual = morita_compare(dual_numbers(), 2, 2)
    assert dual.dims_base == (2, 1, 1)
    assert dual.dims_matrix == (2, 1, 1)
    assert dual.all_equal


def test_direct_sum_additivity(algebras, homology_reports):
    from cychom.algebra import direct_sum
    both = direct_sum(dual_numbers(), ground_field())
    hh = hochschild_homology(both, 3)
    hc = cyclic_homology(both, 3)
    dual_hh = homology_reports("dual", "HH", 3)
    ground_hh = homology_reports("ground", "HH", 3)
    assert hh.dims == tuple(x + y for x, y in
                            zip(dual_hh.dims, ground_hh.dims))
    assert hc.dims == (3, 0, 3, 0)


def test_basis_independence():
    a = dual_numbers()
    scrambled = unimodular_scramble(a, 424242)
    assert scrambled.table != a.table
    assert hochschild_homology(scrambled, 4).dims == (2, 1, 1, 1, 1)
    assert cyclic_homology(scrambled, 4).dims == (2, 0, 2, 0, 2)
