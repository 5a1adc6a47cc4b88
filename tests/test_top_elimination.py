"""One elimination of each Tot differential for HH, HC and HP together.

Every command ranks through hochschild_and_cyclic, which eliminates
D_1 .. D_{max_degree+1} and no b~_n: it reads the pivots of b~_n and D_n
off those of D_n (homology.total_rank_split), whether or not HP is then
established.  Each D_n is eliminated without its rows at the pivot columns
of D_{n-1}, and a tower's filtration matrix without the rows its chain map
and differentials prove dependent.  These tests pin which matrices each
command eliminates, check that no run eliminates a matrix twice, check the
pivots of every reduced D_n against those of b~_n and D_n taken whole, one
by one, and against the brute-force ranks of tests/oracles.py, and check
every tower filtration against the ranks of its matrices taken whole.
"""

from pathlib import Path

import pytest

from conftest import (basis_variants, dual_into_m2, ground_into_dual,
                      omega_complex, ranked_one_by_one, rational_store)
from cychom import cli, homology, linalg, towers
from cychom.errors import NoCertificate
from cychom.homology import (hochschild_and_cyclic,
                             total_differential, total_rank_split)
from cychom.linalg import BlockMatrix
from cychom.mixed import build_mixed_complex
from cychom.towers import continuity_check, hp_continuity_check
from oracles import oracle_rank

DATA = Path(__file__).resolve().parent.parent / "data"
DATA_ALGEBRAS = sorted((DATA / "algebras").glob("*.json"))
DATA_TOWERS = sorted((DATA / "towers").glob("*.json"))

# shapes of b~_4 and of D_4 as eliminated on C(Q[Z/4]), which hh, hc, hp
# and the final stage of z4_tower.json build: D_4 is 120x364, and its rows
# at the 24 pivot columns of D_3 are dropped
B4_CZ4, D4_CZ4 = (108, 324), (96, 364)
# D_1 .. D_3 of C(Q[Z/4]) as eliminated: 4x12, 12x40 less rank D_1 = 0
# rows and 40x120 less rank D_2 = 12 rows
D1_D3_CZ4 = [(4, 12), (12, 40), (28, 120)]


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
    # each stage: D_1..D_4; the HH and HC filtrations one block rank each;
    # the stage map's injectivity check one
    assert len(eliminated) == 11


def test_hp_eliminates_no_top_hochschild_boundary(capsys, eliminated):
    # hp is a one-stage tower: C(A), and no filtration rank
    assert run_cli(capsys, "hp", "cyclic4.json", 3) == 0
    assert B4_CZ4 not in eliminated
    assert eliminated == D1_D3_CZ4 + [D4_CZ4]


@pytest.mark.parametrize("name, degree, shapes", [
    # HH_{max-1} != 0, so no certificate; a refusal ranks the same D_n as
    # an answer: the dual numbers' C_n has 2 cells in every degree, and
    # D_n is eliminated on dim Tot_{n-1} - rank D_{n-1} rows, with
    # rank D_1 .. D_4 = 0, 2, 0, 4
    ("dual_numbers.json", 4, [(2, 2), (2, 4), (2, 4), (4, 6), (2, 6)]),
    # the whole D_1 .. D_5 have 3, 6, 15, 30, 63 rows; rank D_1 .. D_4 =
    # 0, 6, 6, 24
    ("random_dim3.json", 4,
     [(3, 6), (6, 15), (9, 30), (24, 63), (39, 126)]),
    # HH vanishes, but the stabilized odd degree 3 exceeds 2
    ("cyclic4.json", 2, D1_D3_CZ4),
])
def test_refusals_eliminate_only_hochschild_boundaries(capsys, eliminated,
                                                       name, degree, shapes):
    assert run_cli(capsys, "hp", name, degree) == 3
    assert eliminated == shapes


@pytest.mark.parametrize("command, shapes", [
    (command, D1_D3_CZ4 + [D4_CZ4]) for command in ("hh", "hc")])
def test_hh_and_hc_rank_their_own_differentials(capsys, eliminated, command,
                                                shapes):
    # D_1 .. D_4 of C(A), as hp ranks them; no b~_n on its own
    assert run_cli(capsys, command, "cyclic4.json", 3) == 0
    assert eliminated == shapes


def test_tower_refused_by_an_earlier_stage_ranks_b_tilde(eliminated):
    # the final stage's HH vanishes, the first stage's does not, so no
    # common bound can hold; every stage is still ranked through its D_n
    cont = continuity_check(dual_into_m2(), 3)
    mc = cont.complexes[-1]
    assert None not in cont.hc_reports
    assert mc.b_tilde[4].shape not in eliminated
    # D_4 without its rows at the pivot columns of D_3
    d4 = total_differential(mc, 4)
    assert (d4.rows - cont.hc_reports[-1].boundary_ranks[3], d4.cols) \
        in eliminated
    with pytest.raises(NoCertificate,
                       match="^stage 0 has no vanishing certificate "
                             "within 3$"):
        hp_continuity_check(cont)


def test_tower_refused_by_a_later_stage_ranks_earlier_hc(eliminated):
    # every stage ranks D_1..D_4 for its HC report; the final stage's HH
    # does not vanish, so the HP step refuses without reading them
    ds = ground_into_dual()
    eliminated.clear()  # the stage map's injectivity check
    cont = continuity_check(ds, 3)
    assert None not in cont.hc_reports
    # Q: D_1..D_4; the dual numbers: D_1..D_4; one block rank for the
    # image of HH_0(Q)
    assert len(eliminated) == 9
    with pytest.raises(NoCertificate,
                       match="^stage 1 has no vanishing certificate "
                             "within 3$"):
        hp_continuity_check(cont)
    assert len(eliminated) == 9


JOBS = ([("tower", path.name) for path in DATA_TOWERS]
        + [(command, path.name) for command in ("hh", "hc", "hp")
           for path in DATA_ALGEBRAS])


@pytest.mark.parametrize("command, name", JOBS)
def test_rank_path_assembles_nothing(capsys, monkeypatch, eliminated,
                                     command, name):
    # every ranked D_n and filtration matrix is eliminated from its blocks:
    # total_differential, the one assembly of a block matrix, never runs
    assembled = []
    total = homology.total_differential

    def assembling(mc, n):
        assembled.append(n)
        return total(mc, n)

    monkeypatch.setattr(homology, "total_differential", assembling)
    assert run_cli(capsys, command, name, 3) in (0, 3)
    assert eliminated and assembled == []
    if name == "cyclic4.json":
        assert eliminated == D1_D3_CZ4 + [D4_CZ4]
    if name == "z4_tower.json":
        assert eliminated.count(D4_CZ4) == 1 and len(eliminated) == 11


def test_ranking_leaves_the_complex_untouched():
    # _echelon reduces the rows it is handed in place, and a tower's
    # filtrations read b~ and B~ after the stages are ranked: a placed row
    # that is a block's own dict, or a row of a SparseMatrix ranked whole,
    # would change them silently
    ds = cli.parse_tower_file(DATA / "towers" / "z4_tower.json")
    report = continuity_check(ds, 3)
    hp_continuity_check(report)
    stages = list(zip(report.complexes, towers._stage_complexes(ds, 4),
                      strict=True))
    a = cli.parse_algebra_file(DATA / "algebras" / "cyclic4.json")
    mc = build_mixed_complex(a, 5)
    hochschild_and_cyclic(mc, 4)
    for m in mc.b_tilde.values():
        linalg.rank(m)
    for ranked, fresh in stages + [(mc, build_mixed_complex(a, 5))]:
        assert ranked.b_tilde == fresh.b_tilde
        assert ranked.B_tilde == fresh.B_tilde


@pytest.mark.parametrize("command, name", [
    ("tower", "z4_tower.json"),
    ("tower", "s3_tower.json"),
    ("hp", "cyclic4.json"),
    ("hp", "mat2.json"),
    ("hp", "hecke_s3_s2.json"),
    ("hh", "cyclic2.json"),
    ("hc", "mat2.json"),
])
def test_no_matrix_is_eliminated_twice(capsys, monkeypatch, command, name):
    # keyed on the exact rational matrix, as the benchmark's tracer counts
    # repeats; ranking b~_1 and D_1 = b~_1 separately would make one, and
    # so would ranking b~_n of C(Q[Z/2]) on its own: b~_1, b~_3 and b~_5
    # are the same zero 2x2 matrix
    keys = []
    echelon = linalg._echelon

    def recording(m, rhs_cols=0):
        keys.append((m.shape, m.den, frozenset(m.data.items()), rhs_cols))
        return echelon(m, rhs_cols)

    monkeypatch.setattr(linalg, "_echelon", recording)
    assert run_cli(capsys, command, name, 3 if command == "tower" else 4) == 0
    assert keys and len(set(keys)) == len(keys)


# The limit exists only because the full-matrix reference, ranked_one_by_one,
# is slow: it eliminates the whole b~_5 of Omega for cyclic4.json in the
# rational basis of conftest.basis_variants, which did not finish within
# 100 s, so that variant stops at max_degree 3.  hochschild_and_cyclic
# itself ranks the reduced D_n there, at max_degree 4 too, in a small
# fraction of that.
SHARED_TOP_DEGREES = {("cyclic4", 2): (2, 3)}


@pytest.mark.parametrize("variant", range(3))
@pytest.mark.parametrize("path", DATA_ALGEBRAS, ids=lambda p: p.stem)
def test_shared_top_gives_the_same_reports(path, variant):
    a = cli.parse_algebra_file(path)
    a = basis_variants(a, DATA_ALGEBRAS.index(path))[variant]
    degrees = SHARED_TOP_DEGREES.get((path.stem, variant), (2, 3, 4))
    # an earlier tower stage ranks Omega(A); the commands, and so a final
    # stage, rank C(A)
    for build in (omega_complex, build_mixed_complex):
        _check_shared_top(build(a, max(degrees) + 1), degrees)


def _check_shared_top(mc, degrees):
    # the pivot columns of each reduced D_n, and of b~_n read off them,
    # must be those of the whole D_n and b~_n, list for list
    for max_degree in degrees:
        shared = hochschild_and_cyclic(mc, max_degree)
        plain = ranked_one_by_one(mc, max_degree)
        for got, want in zip(shared, plain):
            assert (got.theory, got.dims, got.boundary_pivots) == \
                (want.theory, want.dims, want.boundary_pivots), max_degree


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
            dependent = ()
            for n in range(1, 5):
                b, dependent = total_rank_split(mc, n, dependent)
                assert (len(b), len(dependent)) == want[n], \
                    (n, variant, build)


@pytest.mark.parametrize("path", DATA_TOWERS, ids=lambda p: p.stem)
def test_filtrations_match_the_whole_block_matrices(path, monkeypatch):
    # towers._image_filtration ranks M = [[D, F], [0, d]] without the rows
    # its chain map and differentials prove dependent; every entry must be
    # the rank of the whole M minus the same two ranks
    ds = cli.parse_tower_file(path)

    def filtrations(degree):
        cont = continuity_check(ds, degree)
        try:
            hp = hp_continuity_check(cont)
        except NoCertificate:
            return cont.image_filtration, None
        return cont.image_filtration, hp.even_filtration, hp.odd_filtration

    dropped, whole = [], [False]

    class Recorded(BlockMatrix):
        # towers builds M as one block view: keep all its rows, or record
        # how many it leaves out
        def __init__(self, blocks, row_dims, col_dims, rows=()):
            super().__init__(blocks, row_dims, col_dims,
                             () if whole[0] else rows)
            dropped.append(sum(row_dims) - self.rows)

    monkeypatch.setattr(towers, "BlockMatrix", Recorded)
    for degree in (1, 2, 3):
        whole[0] = False
        reduced = filtrations(degree)
        whole[0] = True
        assert filtrations(degree) == reduced, degree
    assert sum(dropped), "no filtration matrix lost a row"
