"""One elimination of the top Tot differential for HH, HC and HP together.

When HP follows HH on the same mixed complex, hochschild_and_cyclic
eliminates D_{max_degree+1} in place of b~_{max_degree+1} and reads both
ranks off its pivots (homology.total_rank_split).  These tests pin which
matrices each command eliminates, and check the pivot split against the
brute-force ranks of tests/oracles.py.
"""

from pathlib import Path

import pytest

from conftest import (basis_variants, dual_into_m2, ground_into_dual,
                      rational_store)
from cychom import cli, homology, linalg
from cychom.errors import NoCertificate
from cychom.homology import (cyclic_homology, hochschild_and_cyclic,
                             hochschild_homology, hp_can_hold, omega_complex,
                             total_differential, total_rank_split,
                             vanishing_bound)
from cychom.mixed import build_mixed_complex
from cychom.towers import continuity_check, hp_continuity_check
from oracles import oracle_rank

DATA = Path(__file__).resolve().parent.parent / "data"
DATA_ALGEBRAS = sorted((DATA / "algebras").glob("*.json"))

# shapes of b~_4 and D_4 for Q[Z/4]: on Omega, which hh and hc build, and
# on C(A), which hp and the final stage of z4_tower.json build
B4_Z4, D4_Z4 = (320, 1280), (340, 1364)
B4_CZ4, D4_CZ4 = (108, 324), (120, 364)


@pytest.fixture
def eliminated(monkeypatch):
    """The input shapes of every elimination, in order."""
    shapes = []
    echelon = linalg._echelon

    def recording(m, rhs_cols=0):
        shapes.append(m.shape)
        return echelon(m, rhs_cols)

    monkeypatch.setattr(linalg, "_echelon", recording)
    return shapes


def run_cli(capsys, command, name, degree):
    folder = "towers" if command == "tower" else "algebras"
    code = cli.main([command, str(DATA / folder / name),
                     "--max-degree", str(degree)])
    capsys.readouterr()
    return code


def test_tower_eliminates_the_final_top_differential_once(capsys, eliminated):
    assert run_cli(capsys, "tower", "z4_tower.json", 3) == 0
    assert eliminated.count(D4_CZ4) == 1
    assert B4_CZ4 not in eliminated
    # each stage: b~_1..b~_3, D_4, D_1..D_3; the HH and HC filtrations one
    # block rank each; the stage map's injectivity check one
    assert len(eliminated) == 17


def test_hp_eliminates_no_top_hochschild_boundary(capsys, eliminated):
    # hp is a one-stage tower: C(A), and no filtration rank
    assert run_cli(capsys, "hp", "cyclic4.json", 3) == 0
    assert B4_CZ4 not in eliminated
    assert eliminated == [(4, 12), (12, 36), (36, 108), D4_CZ4,
                          (4, 12), (12, 40), (40, 120)]


@pytest.mark.parametrize("name, degree, shapes", [
    # HH_{max-1} != 0: the certificate is refused before any D; the dual
    # numbers' C_n has 2 cells in every degree
    ("dual_numbers.json", 4, [(2, 2)] * 5),
    ("random_dim3.json", 4,
     [(3, 6), (6, 12), (12, 24), (24, 48), (48, 96)]),
    # HH vanishes, but the stabilized odd degree 3 exceeds 2
    ("cyclic4.json", 2, [(4, 12), (12, 36), (36, 108)]),
])
def test_refusals_eliminate_only_hochschild_boundaries(capsys, eliminated,
                                                       name, degree, shapes):
    assert run_cli(capsys, "hp", name, degree) == 3
    assert eliminated == shapes


@pytest.mark.parametrize("command, shapes", [
    ("hh", [(4, 20), (20, 80), (80, 320), B4_Z4]),
    ("hc", [(4, 20), (20, 84), (84, 340), D4_Z4]),
])
def test_hh_and_hc_rank_their_own_differentials(capsys, eliminated, command,
                                                shapes):
    assert run_cli(capsys, command, "cyclic4.json", 3) == 0
    assert eliminated == shapes


def test_tower_refused_by_an_earlier_stage_ranks_b_tilde(eliminated):
    # the final stage's HH vanishes, the first stage's does not, so no
    # common bound can hold
    cont = continuity_check(dual_into_m2(), 3)
    mc = cont.complexes[-1]
    assert cont.hc_reports == (None, None)
    assert mc.b_tilde[4].shape in eliminated
    assert total_differential(mc, 4).shape not in eliminated
    with pytest.raises(NoCertificate,
                       match="^stage 0 has no vanishing certificate "
                             "within 3$"):
        hp_continuity_check(cont)


def test_tower_refused_by_a_later_stage_ranks_earlier_hc(eliminated):
    # the running floor holds the first stage, Q, to no earlier bound, so
    # it ranks D_1..D_4 for an HC report; the final stage's HH does not
    # vanish, so the HP step refuses without reading it
    ds = ground_into_dual()
    eliminated.clear()  # the stage map's injectivity check
    cont = continuity_check(ds, 3)
    assert cont.hc_reports[0] is not None and cont.hc_reports[1] is None
    # Q: b~_1..b~_3, D_4, D_1..D_3; the dual numbers: b~_1..b~_4; one
    # block rank for the image of HH_0(Q)
    assert len(eliminated) == 12
    with pytest.raises(NoCertificate,
                       match="^stage 1 has no vanishing certificate "
                             "within 3$"):
        hp_continuity_check(cont)
    assert len(eliminated) == 12


# b~_5 of Omega for cyclic4.json in the rational basis of
# conftest.basis_variants did not finish within 100 s, so that variant stops
# at max_degree 3
SHARED_TOP_DEGREES = {("cyclic4", 2): (2, 3)}


@pytest.fixture
def eliminate_once(monkeypatch):
    """Each Tot differential is assembled, and each matrix eliminated, once.

    The shared-top test reruns each mixed complex at several degrees and
    floors; the memos key on the complex and the matrix object, which they
    keep alive, so only repeats of one assembly or elimination are skipped.
    """
    totals, echelons = {}, {}
    assemble, echelon = homology.total_differential, linalg._echelon

    def total(mc, n):
        key = (id(mc), n)
        if key not in totals:
            totals[key] = (mc, assemble(mc, n))
        return totals[key][1]

    def once(m, rhs_cols=0):
        key = (id(m), rhs_cols)
        if key not in echelons:
            echelons[key] = (m, echelon(m, rhs_cols))
        return echelons[key][1]

    monkeypatch.setattr(homology, "total_differential", total)
    monkeypatch.setattr(linalg, "_echelon", once)


@pytest.mark.parametrize("variant", range(3))
@pytest.mark.parametrize("path", DATA_ALGEBRAS, ids=lambda p: p.stem)
def test_shared_top_gives_the_same_reports(path, variant, eliminate_once):
    a = cli.parse_algebra_file(path)
    a = basis_variants(a, DATA_ALGEBRAS.index(path))[variant]
    degrees = SHARED_TOP_DEGREES.get((path.stem, variant), (2, 3, 4))
    # an earlier tower stage ranks Omega(A); hp and a final stage C(A)
    for build in (omega_complex, build_mixed_complex):
        _check_shared_top(build(a, max(degrees) + 1), degrees)


def _check_shared_top(mc, degrees):
    for max_degree in degrees:
        plain_hh = hochschild_homology(mc, max_degree)
        for floor in sorted({0, 1, max_degree}):
            where = (max_degree, floor)
            hh, hc = hochschild_and_cyclic(mc, max_degree, floor)
            assert (hh.dims, hh.boundary_ranks) == \
                (plain_hh.dims, plain_hh.boundary_ranks), where
            bound = max(floor, vanishing_bound(hh.dims, max_degree - 1))
            assert (hc is None) == (not hp_can_hold(bound, max_degree)), where
            if hc is not None:
                plain_hc = cyclic_homology(mc, max_degree)
                assert (hc.dims, hc.boundary_ranks) == \
                    (plain_hc.dims, plain_hc.boundary_ranks), where


@pytest.mark.parametrize("path", DATA_ALGEBRAS, ids=lambda p: p.stem)
def test_pivot_split_matches_oracle_ranks(path):
    # The oracle ranks b~_n and D_n of the algebra as given.  A change of
    # basis of A is an isomorphism of mixed complexes, so every variant has
    # the same ranks; running the oracle on the rational basis itself would
    # take ~16 s for cyclic4.json at n = 4 alone.
    a = cli.parse_algebra_file(path)
    variants = basis_variants(a, DATA_ALGEBRAS.index(path))
    for build in (omega_complex, build_mixed_complex):
        mc = build(a, 4)
        want = {}
        for n in range(1, 5):
            b, d = mc.b_tilde[n], total_differential(mc, n)
            want[n] = (oracle_rank(b.rows, rational_store(b)),
                       oracle_rank(d.rows, rational_store(d)))
        for variant in variants:
            mc = build(variant, 4)
            for n in range(1, 5):
                assert total_rank_split(mc, n) == want[n], (n, variant, build)
