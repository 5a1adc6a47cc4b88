"""Direct systems of algebra inclusions and continuity along them."""

from pathlib import Path

import pytest

from conftest import dual_into_m2
from cychom import homology, towers
from cychom.algebra import (AlgebraHom, FiniteGroup, group_algebra,
                            symmetric_group_with_perms)
from cychom.catalog import cyclic_group_rationals, dual_numbers, ground_field
from cychom.errors import (CertMissing, NotAChain, NotInjective,
                           ValidationError)
from cychom.cli import parse_tower_file
from cychom.homology import (cyclic_homology, differential,
                             hochschild_homology, homology_representatives)
from cychom.linalg import QQ, SparseMatrix, independent_modulo
from cychom.mixed import induced_chain_map
from cychom.towers import (DirectSystem, continuity_check, hecke_tower,
                           hp_continuity_check, identity_hom)


DATA = Path(__file__).resolve().parent.parent / "data"


def constant_tower(a, length):
    """A -> A -> ... -> A along identity maps."""
    return DirectSystem([a] * length, [identity_hom(a)] * (length - 1))


def hp_along(ds, max_degree):
    return hp_continuity_check(ds, continuity_check(ds, max_degree))


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
    ds = constant_tower(cyclic_group_rationals(2), 3)
    cont = continuity_check(ds, 2)
    assert cont.monotone
    for n in range(3):
        column = {row[n] for row in cont.image_filtration}
        assert len(column) == 1


def test_s3_tower_continuity(s3_tower, s3_data):
    g, _ = s3_data
    cont = continuity_check(s3_tower, 3)
    assert cont.final_dims == (3, 0, 0, 0)
    assert [row[0] for row in cont.image_filtration] == [2, 3]
    assert cont.monotone
    direct = hochschild_homology(group_algebra(g), 3)
    assert cont.final_dims == direct.dims


def test_z4_tower_continuity(z4_tower):
    cont = continuity_check(z4_tower, 3)
    assert cont.final_dims == (4, 0, 0, 0)
    assert [row[0] for row in cont.image_filtration] == [2, 4]
    assert cont.monotone
    direct = hochschild_homology(group_algebra(FiniteGroup.cyclic(4)), 3)
    assert cont.final_dims == direct.dims


def test_hp_continuity_s3(s3_tower):
    rep = hp_along(s3_tower, 3)
    assert rep.common_bound == 0
    assert (rep.even_degree, rep.odd_degree) == (2, 3)
    assert rep.stage_even == (2, 3)
    assert rep.stage_odd == (0, 0)
    assert rep.even_filtration == (2, 3)
    assert rep.odd_filtration == (0, 0)
    assert rep.monotone
    assert (rep.stage_even[-1], rep.stage_odd[-1]) == (3, 0)
    # the common bound is certified per stage across the whole range
    for cert in rep.certificates:
        assert cert.vanishing_bound <= rep.common_bound
        assert cert.checked_through == 3
        for n in range(rep.common_bound + 1, 4):
            assert n in cert.verified_degrees


def test_hp_continuity_z4(z4_tower):
    rep = hp_along(z4_tower, 3)
    assert rep.common_bound == 0
    assert rep.stage_even == (2, 4)
    assert rep.stage_odd == (0, 0)
    assert rep.even_filtration == (2, 4)
    assert rep.odd_filtration == (0, 0)
    assert rep.monotone


def test_hp_reuses_hh_continuity(z4_tower, monkeypatch):
    cont = continuity_check(z4_tower, 3)

    def no_build(*args):
        raise AssertionError("hp_continuity_check built a mixed complex")

    for module in (homology, towers):
        monkeypatch.setattr(module, "build_mixed_complex", no_build)
    assert hp_continuity_check(z4_tower, cont).stage_even == (2, 4)


def test_hp_constant_ground():
    rep = hp_along(constant_tower(ground_field(), 3), 3)
    assert rep.stage_even == (1, 1, 1)
    assert rep.stage_odd == (0, 0, 0)
    assert rep.even_filtration == (1, 1, 1)


def test_hp_refusals():
    with pytest.raises(CertMissing):
        hp_along(constant_tower(dual_numbers(), 2), 4)
    # certificate exists but the stabilized degrees poke past the truncation
    with pytest.raises(CertMissing):
        hp_along(constant_tower(ground_field(), 2), 2)


def _filtration_from_representatives(ds, mcs, theory, degrees):
    """Image dimensions per earlier stage through pushed class
    representatives, the reference for the pushed cycle spaces."""
    rows = []
    for f, mc in zip(ds.to_final[:-1], mcs):
        maps = induced_chain_map(f, max(degrees))
        row = []
        for n in degrees:
            reps = homology_representatives(mc, theory, n)
            pushed = towers._push(maps, mc, mcs[-1], theory, n, reps)
            d_in = differential(mcs[-1], theory, n + 1)
            row.append(len(independent_modulo(d_in, pushed)[1]))
        rows.append(tuple(row))
    return rows


CROSS_CHECK_TOWERS = {
    "z4_tower": lambda: parse_tower_file(DATA / "towers" / "z4_tower.json"),
    "s3_tower": lambda: parse_tower_file(DATA / "towers" / "s3_tower.json"),
    "dual_constant": lambda: constant_tower(dual_numbers(), 3),
    "dual_into_m2": dual_into_m2,
}


@pytest.mark.parametrize("name", CROSS_CHECK_TOWERS)
def test_pushed_cycles_match_pushed_representatives(name):
    # the image of H_n(A_i) in H_n(A_m) is (f(Z_n) + B_n) / B_n, so pushing
    # every cycle counts what pushing class representatives counts
    ds = CROSS_CHECK_TOWERS[name]()
    degrees = range(4)
    mcs = towers._stage_complexes(ds, 4)
    for theory, compute in (("HH", hochschild_homology),
                            ("HC", cyclic_homology)):
        stages = [towers._cycle_spaces(mc, theory, 3) for mc in mcs[:-1]]
        for (report, _), a, mc in zip(stages, ds.stages, mcs):
            plain = compute(a, 3, mc=mc)
            assert (report.dims, report.boundary_ranks) == \
                (plain.dims, plain.boundary_ranks), theory
        final = compute(ds.stages[-1], 3, mc=mcs[-1])
        got = towers._image_filtration(ds, mcs, stages, final, theory,
                                       degrees)
        want = _filtration_from_representatives(ds, mcs, theory, degrees)
        assert got == (*want, final.dims), theory
        if theory == "HH":
            assert continuity_check(ds, 3).image_filtration == got
