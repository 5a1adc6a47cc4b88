"""Direct systems of algebra inclusions and continuity along them."""

import json
from pathlib import Path

import pytest

from conftest import (dual_into_m2, ground_into_dual, hh_dims,
                      ranked_one_by_one)
from cychom import mixed, towers
from cychom.algebra import (Algebra, AlgebraHom, FiniteGroup, direct_sum,
                            group_algebra, symmetric_group_with_perms)
from cychom.catalog import cyclic_group_rationals, dual_numbers, ground_field
from cychom.errors import NoCertificate, SizeCapExceeded, ValidationError
from cychom.cli import parse_tower_file
from cychom.homology import (differential, homology_representatives,
                             total_components)
from cychom.linalg import QQ, SparseMatrix, independent_modulo
from cychom.mixed import cell_count, induced_chain_map
from cychom.towers import (DirectSystem, continuity_check, hecke_tower,
                           hp_continuity_check, identity_hom)


DATA = Path(__file__).resolve().parent.parent / "data"


def constant_tower(a, length):
    """A -> A -> ... -> A along identity maps."""
    return DirectSystem([a] * length, [identity_hom(a)] * (length - 1))


def hp_along(ds, max_degree):
    return hp_continuity_check(continuity_check(ds, max_degree))


@pytest.fixture(scope="module")
def s3_data():
    g, perms = symmetric_group_with_perms(3)
    s2 = [i for i, p in enumerate(perms) if p[2] == 2]
    return g, s2


@pytest.fixture(scope="module")
def s3_tower(s3_data):
    g, s2 = s3_data
    return hecke_tower(g, [s2, [g.identity]])


def s3_full():
    """Q -> the Hecke algebra of (S3, S2) -> Q[S3]: three stages."""
    g, perms = symmetric_group_with_perms(3)
    s2 = [i for i, p in enumerate(perms) if p[2] == 2]
    return hecke_tower(g, [list(range(g.order)), s2, [g.identity]])


@pytest.fixture(scope="module")
def s3_full_tower():
    return s3_full()


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
    with pytest.raises(ValidationError, match="empty subgroup chain"):
        hecke_tower(g, [])
    with pytest.raises(ValidationError,
                       match="chain must end at the trivial subgroup"):
        hecke_tower(g, [s2])
    with pytest.raises(ValidationError,
                       match="subgroup 1 is not contained in subgroup 0"):
        hecke_tower(g, [[g.identity], s2])


def test_direct_system_validation():
    dual = dual_numbers()
    q = ground_field()
    # killing x is multiplicative but not injective
    proj = AlgebraHom(dual, q, SparseMatrix.from_dense([[QQ(1), QQ(0)]]))
    proj.validate()
    with pytest.raises(ValidationError, match="stage map 0 is not injective"):
        DirectSystem([dual, q], [proj])
    with pytest.raises(ValidationError, match="2 stages need 1 maps"):
        DirectSystem([q, q], [])
    with pytest.raises(ValidationError,
                       match="a direct system needs at least one stage"):
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
    assert cont.final_dims == hh_dims(group_algebra(g), 3)


@pytest.mark.parametrize("name", ["z4_tower", "s3_tower"])
def test_hecke_tower_ends_at_the_group_algebra(name):
    path = DATA / "towers" / f"{name}.json"
    final = parse_tower_file(path).stages[-1]
    g = FiniteGroup(json.loads(path.read_text())["group"])
    assert (final.table, final.unit) == (group_algebra(g).table,
                                         group_algebra(g).unit)


def test_z4_tower_continuity(z4_tower):
    cont = continuity_check(z4_tower, 3)
    assert cont.final_dims == (4, 0, 0, 0)
    assert [row[0] for row in cont.image_filtration] == [2, 4]
    assert cont.monotone
    assert cont.final_dims == hh_dims(group_algebra(FiniteGroup.cyclic(4)), 3)


def test_hp_continuity_s3(s3_tower):
    rep = hp_along(s3_tower, 3)
    hp = rep.periodic
    assert hp.common_bound == 0
    assert (hp.even_degree, hp.odd_degree) == (2, 3)
    assert hp.dims == ((2, 0), (3, 0))
    assert rep.even_filtration == (2, 3)
    assert rep.odd_filtration == (0, 0)
    assert rep.monotone
    # the common bound is certified per stage across the whole range
    for cert in hp.certificates:
        assert cert.vanishing_bound <= hp.common_bound
        assert cert.checked_through == 3
        for n in range(hp.common_bound + 1, 4):
            assert n in cert.verified_degrees


def test_hp_continuity_z4(z4_tower):
    rep = hp_along(z4_tower, 3)
    assert rep.periodic.common_bound == 0
    assert rep.periodic.dims == ((2, 0), (4, 0))
    assert rep.even_filtration == (2, 4)
    assert rep.odd_filtration == (0, 0)
    assert rep.monotone


def test_hp_reuses_hh_continuity(z4_tower, monkeypatch):
    cont = continuity_check(z4_tower, 3)

    def no_build(*args):
        raise AssertionError("hp_continuity_check built a mixed complex")

    def no_chain_map(*args):
        raise AssertionError("hp_continuity_check built a chain map")

    monkeypatch.setattr(towers, "build_mixed_complex", no_build)
    monkeypatch.setattr(towers, "induced_chain_map", no_chain_map)
    assert hp_continuity_check(cont).periodic.dims == ((2, 0), (4, 0))


def test_three_stage_tower_builds_each_chain_map_once(s3_full_tower,
                                                      monkeypatch):
    sources = []
    chain_map = towers.induced_chain_map

    def recording(f, n_max):
        sources.append(f.source.dim)
        return chain_map(f, n_max)

    monkeypatch.setattr(towers, "induced_chain_map", recording)
    assert hp_along(s3_full_tower, 3).periodic.dims == ((1, 0), (2, 0),
                                                         (3, 0))
    assert sources == [1, 2]


def test_hp_constant_ground():
    rep = hp_along(constant_tower(ground_field(), 3), 3)
    assert rep.periodic.dims == ((1, 0),) * 3
    assert rep.even_filtration == (1, 1, 1)


def test_hp_refusals():
    with pytest.raises(NoCertificate,
                       match="^stage 0 has no vanishing certificate "
                             "within 4$"):
        hp_along(constant_tower(dual_numbers(), 2), 4)
    # certificate exists but the stabilized degrees poke past the truncation
    with pytest.raises(NoCertificate,
                       match="^common bound 0 stabilizes at degrees 2, 3, "
                             "beyond truncation 2$"):
        hp_along(constant_tower(ground_field(), 2), 2)


def _filtration_from_representatives(ds, mcs, theory, degrees):
    """Image dimensions per earlier stage through pushed class
    representatives: the reference for the block ranks of
    towers._image_filtration."""
    rows = []
    for f, mc in zip(ds.to_final[:-1], mcs):
        maps = induced_chain_map(f, max(degrees))
        row = []
        for n in degrees:
            comps = total_components(n)
            push = (maps[n] if theory == "HH" else SparseMatrix.from_blocks(
                {(i, i): maps[q] for i, q in enumerate(comps)},
                [mcs[-1].spaces[q].dim for q in comps],
                [mc.spaces[q].dim for q in comps]))
            pushed = [push.apply(v)
                      for v in homology_representatives(mc, theory, n)]
            d_in = differential(mcs[-1], theory, n + 1)
            row.append(len(independent_modulo(d_in, pushed)[1]))
        rows.append(tuple(row))
    return rows


def dual_into_nonunital():
    """Q[x]/(x^2) -> Q[x]/(x^2) (+) N, N one-dimensional with N N = 0: the
    final stage has no unit, so it builds Omega, and the map sends 1 to the
    idempotent (1, 0)."""
    dual = dual_numbers()
    target = direct_sum(dual, Algebra(1, {}))
    hom = AlgebraHom(dual, target, SparseMatrix(3, 2, [(0, 0, 1), (1, 1, 1)]))
    return DirectSystem([dual, target], [hom])


CROSS_CHECK_TOWERS = {
    "z4_tower": lambda: parse_tower_file(DATA / "towers" / "z4_tower.json"),
    "s3_tower": lambda: parse_tower_file(DATA / "towers" / "s3_tower.json"),
    "dual_constant": lambda: constant_tower(dual_numbers(), 3),
    "dual_into_m2": dual_into_m2,
    "dual_into_nonunital": dual_into_nonunital,
    "s3_full_tower": s3_full,
    "ground_into_dual": ground_into_dual,
}


@pytest.mark.parametrize("name", ["z4_tower", "s3_tower", "dual_into_m2",
                                  "dual_into_nonunital"])
def test_tower_chain_maps_commute_with_b_and_B(name):
    # each earlier stage's Omega maps into the final stage's complex, C(A_m)
    # or, without a unit, Omega(A_m), through the unital extension g; the
    # stages are built one degree higher, as a tower ranking through
    # degree 4 builds them, since their B~ stops two below the top
    ds = CROSS_CHECK_TOWERS[name]()
    mcs = towers._stage_complexes(ds, 5)
    final = mcs[-1]
    assert [s.dim for s in final.spaces] == \
        [cell_count(ds.stages[-1], n) for n in range(6)]
    for f, src in zip(ds.to_final[:-1], mcs):
        maps = induced_chain_map(f, 4)
        for n in range(1, 5):
            assert maps[n - 1] @ src.b_tilde[n] == final.b_tilde[n] @ maps[n]
        for n in range(4):
            assert maps[n + 1] @ src.B_tilde[n] == final.B_tilde[n] @ maps[n]


def test_chain_map_sends_the_adjoined_unit_to_one():
    # g(1) = 0 would commute with b and B as well.  In Omega^1 of the dual
    # numbers the word (1; x) has index 2 * 2 + 1; it goes to
    # (e00 + e11; pi(e01)) in C(M2(Q)), whose letters are e01, e10, e11
    maps = induced_chain_map(dual_into_m2().to_final[0], 1)
    assert maps[1].columns()[5] == {0 * 3 + 0: QQ(1), 3 * 3 + 0: QQ(1)}


def test_every_stage_is_size_checked_before_any_build(monkeypatch):
    # an isomorphism: the earlier stage's Omega^4 has (4+1) 4^4 = 1280
    # cells, the final stage's C^4 4 3^4 = 324, so the earlier stage is
    # refused and the final one is never built
    ds = constant_tower(group_algebra(FiniteGroup.cyclic(4)), 2)
    monkeypatch.setattr(mixed, "CELL_CAP", 1000)
    built = []
    build = towers.build_mixed_complex

    def recording(a, *args):
        built.append(a.dim)
        return build(a, *args)

    monkeypatch.setattr(towers, "build_mixed_complex", recording)
    with pytest.raises(SizeCapExceeded, match="has 1280 cells; cap 1000"):
        continuity_check(ds, 3)
    assert built == []
    monkeypatch.setattr(mixed, "CELL_CAP", 1280)
    assert continuity_check(ds, 3).final_dims == (4, 0, 0, 0)
    assert built == [4, 4]


@pytest.mark.parametrize("name", CROSS_CHECK_TOWERS)
def test_pushed_cycles_match_pushed_representatives(name):
    # each stage's kept HH and HC reports against ranks of b~_n and D_n
    # eliminated one by one, and the block rank rank M - rank d - rank D of
    # each filtration entry against pushed class representatives counted
    # modulo the final stage's boundaries, for HH and HC at degrees 0..3
    # and every stage
    ds = CROSS_CHECK_TOWERS[name]()
    degrees = range(4)
    cont = continuity_check(ds, 3)
    mcs = cont.complexes
    plains = [ranked_one_by_one(mc, 3) for mc in mcs]
    for theory, at, kept in (("HH", 0, cont.hh_reports),
                             ("HC", 1, cont.hc_reports)):
        reports = [plain[at] for plain in plains]
        for report, plain in zip(kept, reports):
            assert (report.dims, report.boundary_ranks) == \
                (plain.dims, plain.boundary_ranks), theory
        got = towers._image_filtration(mcs, cont.chain_maps, reports, theory,
                                       degrees)
        want = _filtration_from_representatives(ds, mcs, theory, degrees)
        assert got == (*want, reports[-1].dims), theory
        if theory == "HH":
            assert cont.image_filtration == got
