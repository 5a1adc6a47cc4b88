"""Direct systems of algebra inclusions and continuity along them."""

import pytest

from cychom.algebra import (AlgebraHom, FiniteGroup, group_algebra,
                            symmetric_group_with_perms)
from cychom.catalog import cyclic_group_rationals, dual_numbers, ground_field
from cychom.errors import (CertMissing, NotAChain, NotInjective,
                           ValidationError)
from cychom.homology import hochschild_homology
from cychom.linalg import QQ, SparseMatrix, rank
from cychom.towers import (DirectSystem, constant_system, continuity_check,
                           hecke_tower, homology_of_stages,
                           hp_continuity_check)


@pytest.fixture(scope="module")
def s3_data():
    g, perms = symmetric_group_with_perms(3)
    s2 = [i for i, p in enumerate(perms) if p[2] == 2]
    return g, s2


@pytest.fixture(scope="module")
def s3_tower(s3_data):
    g, s2 = s3_data
    return hecke_tower(g, [s2, [g.identity]])


@pytest.fixture(scope="module")
def s3_full_tower(s3_data):
    g, s2 = s3_data
    return hecke_tower(g, [list(range(g.order)), s2, [g.identity]])


@pytest.fixture(scope="module")
def z4_tower():
    g = FiniteGroup.cyclic(4)
    return hecke_tower(g, [[0, 2], [0]])


def test_tower_stage_dims(s3_tower, s3_full_tower, z4_tower):
    assert [a.dim for a in s3_tower.stages] == [2, 6]
    assert [a.dim for a in s3_full_tower.stages] == [1, 2, 6]
    assert [a.dim for a in z4_tower.stages] == [2, 4]


def test_tower_composites(s3_full_tower):
    ds = s3_full_tower
    assert ds.to_final[-1].matrix == SparseMatrix.identity(6)
    assert ds.to_final[1].matrix == ds.maps[1].matrix
    assert ds.to_final[0].matrix == ds.maps[1].matrix @ ds.maps[0].matrix
    for f in ds.to_final:
        f.validate()
        assert f.is_injective()


def test_tower_rejects_bad_chains(s3_data):
    g, s2 = s3_data
    with pytest.raises(NotAChain):
        hecke_tower(g, [])
    with pytest.raises(NotAChain):
        hecke_tower(g, [s2])
    with pytest.raises(NotAChain):
        hecke_tower(g, [[g.identity], s2])


def test_direct_system_validation():
    dual = dual_numbers()
    q = ground_field()
    # killing x is multiplicative but not injective
    proj = AlgebraHom(dual, q, SparseMatrix.from_dense([[QQ(1), QQ(0)]]))
    proj.validate()
    with pytest.raises(NotInjective):
        DirectSystem([dual, q], [proj])
    with pytest.raises(ValidationError):
        DirectSystem([q, q], [])
    with pytest.raises(ValidationError):
        DirectSystem([], [])


def test_constant_system_is_trivial():
    ds = constant_system(cyclic_group_rationals(2), 3)
    th = homology_of_stages(ds, "HH", 2)
    for rep in th.reports[1:]:
        assert rep.dims == th.reports[0].dims
    for per_degree in th.induced:
        for n in range(3):
            d = th.reports[0].dims[n]
            assert per_degree[n] == SparseMatrix.identity(d)
    cont = continuity_check(ds, "HH", 2)
    assert cont.monotone
    for n in range(3):
        column = {row[n] for row in cont.image_filtration}
        assert len(column) == 1


def test_homology_of_stages_s3(s3_tower):
    th = homology_of_stages(s3_tower, "HH", 2)
    assert [rep.dims[0] for rep in th.reports] == [2, 3]
    assert th.induced[1][0] == SparseMatrix.identity(3)
    pushed = th.induced[0][0]
    assert pushed.shape == (3, 2)
    # the two double-coset classes stay independent among class functions
    assert rank(pushed) == 2


def test_induced_maps_compose(s3_full_tower):
    full = s3_full_tower
    sub = DirectSystem(full.stages[:2], full.maps[:1])
    th_full = homology_of_stages(full, "HH", 2)
    th_sub = homology_of_stages(sub, "HH", 2)
    for n in range(3):
        composite = th_full.induced[1][n] @ th_sub.induced[0][n]
        assert th_full.induced[0][n] == composite


def test_s3_tower_continuity(s3_tower, s3_data):
    g, _ = s3_data
    cont = continuity_check(s3_tower, "HH", 3)
    assert cont.final_dims == (3, 0, 0, 0)
    assert [row[0] for row in cont.image_filtration] == [2, 3]
    assert cont.monotone
    direct = hochschild_homology(group_algebra(g), 3)
    assert cont.final_dims == direct.dims


def test_z4_tower_continuity(z4_tower):
    cont = continuity_check(z4_tower, "HH", 3)
    assert cont.final_dims == (4, 0, 0, 0)
    assert [row[0] for row in cont.image_filtration] == [2, 4]
    assert cont.monotone
    direct = hochschild_homology(group_algebra(FiniteGroup.cyclic(4)), 3)
    assert cont.final_dims == direct.dims


def test_hc_degree_zero_filtration_matches(s3_tower):
    hh = continuity_check(s3_tower, "HH", 2)
    hc = continuity_check(s3_tower, "HC", 2)
    assert hh.final_dims[0] == hc.final_dims[0]
    assert ([row[0] for row in hh.image_filtration]
            == [row[0] for row in hc.image_filtration])


def test_hp_continuity_s3(s3_tower):
    rep = hp_continuity_check(s3_tower, 3)
    assert rep.common_bound == 0
    assert (rep.even_degree, rep.odd_degree) == (2, 3)
    assert rep.stage_even == (2, 3)
    assert rep.stage_odd == (0, 0)
    assert rep.even_filtration == (2, 3)
    assert rep.odd_filtration == (0, 0)
    assert rep.monotone
    assert (rep.final_even, rep.final_odd) == (3, 0)
    # the common bound is certified per stage across the whole range
    for cert in rep.certificates:
        assert cert.vanishing_bound <= rep.common_bound
        assert cert.checked_through == 3
        for n in range(rep.common_bound + 1, 4):
            assert n in cert.verified_degrees


def test_hp_continuity_z4(z4_tower):
    rep = hp_continuity_check(z4_tower, 3)
    assert rep.common_bound == 0
    assert rep.stage_even == (2, 4)
    assert rep.stage_odd == (0, 0)
    assert rep.even_filtration == (2, 4)
    assert rep.odd_filtration == (0, 0)
    assert rep.monotone


def test_hp_reuses_hh_continuity(z4_tower):
    cont = continuity_check(z4_tower, "HH", 3)
    assert hp_continuity_check(z4_tower, 3, hh_continuity=cont) == \
        hp_continuity_check(z4_tower, 3)
    with pytest.raises(ValidationError):
        hp_continuity_check(z4_tower, 3,
                            hh_continuity=continuity_check(z4_tower, "HC", 3))


def test_hp_constant_ground():
    rep = hp_continuity_check(constant_system(ground_field(), 3), 3)
    assert rep.stage_even == (1, 1, 1)
    assert rep.stage_odd == (0, 0, 0)
    assert rep.even_filtration == (1, 1, 1)


def test_hp_refusals():
    with pytest.raises(CertMissing):
        hp_continuity_check(constant_system(dual_numbers(), 2), 4)
    # certificate exists but the stabilized degrees poke past the truncation
    with pytest.raises(CertMissing):
        hp_continuity_check(constant_system(ground_field(), 2), 2)
