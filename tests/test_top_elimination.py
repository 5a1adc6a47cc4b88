"""One elimination of each Tot differential for HH, HC and HP together.

Every command ranks through hochschild_and_cyclic, which eliminates
D_1 .. D_{max_degree+1} and no b~_n: it reads rank b~_n and rank D_n off
the pivots of D_n (homology.total_rank_split), whether or not HP is then
established.  These tests pin which matrices each command eliminates,
check that no run eliminates a matrix twice, and check the pivot split
against ranks of b~_n and D_n taken one by one and against the brute-force
ranks of tests/oracles.py.
"""

from pathlib import Path

import pytest

from conftest import (basis_variants, dual_into_m2, ground_into_dual,
                      omega_complex, ranked_one_by_one, rational_store)
from cychom import cli, homology, linalg
from cychom.errors import NoCertificate
from cychom.homology import (hochschild_and_cyclic,
                             total_differential, total_rank_split)
from cychom.mixed import build_mixed_complex
from cychom.towers import continuity_check, hp_continuity_check
from oracles import oracle_rank

DATA = Path(__file__).resolve().parent.parent / "data"
DATA_ALGEBRAS = sorted((DATA / "algebras").glob("*.json"))

# shapes of b~_4 and D_4 on C(Q[Z/4]), which hh, hc, hp and the final stage
# of z4_tower.json build
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
    # each stage: D_1..D_4; the HH and HC filtrations one block rank each;
    # the stage map's injectivity check one
    assert len(eliminated) == 11


def test_hp_eliminates_no_top_hochschild_boundary(capsys, eliminated):
    # hp is a one-stage tower: C(A), and no filtration rank
    assert run_cli(capsys, "hp", "cyclic4.json", 3) == 0
    assert B4_CZ4 not in eliminated
    assert eliminated == [(4, 12), (12, 40), (40, 120), D4_CZ4]


@pytest.mark.parametrize("name, degree, shapes", [
    # HH_{max-1} != 0, so no certificate; a refusal ranks the same D_n as
    # an answer: the dual numbers' C_n has 2 cells in every degree
    ("dual_numbers.json", 4, [(2, 2), (2, 4), (4, 4), (4, 6), (6, 6)]),
    ("random_dim3.json", 4,
     [(3, 6), (6, 15), (15, 30), (30, 63), (63, 126)]),
    # HH vanishes, but the stabilized odd degree 3 exceeds 2
    ("cyclic4.json", 2, [(4, 12), (12, 40), (40, 120)]),
])
def test_refusals_eliminate_only_hochschild_boundaries(capsys, eliminated,
                                                       name, degree, shapes):
    assert run_cli(capsys, "hp", name, degree) == 3
    assert eliminated == shapes


@pytest.mark.parametrize("command, shapes", [
    (command, [(4, 12), (12, 40), (40, 120), D4_CZ4])
    for command in ("hh", "hc")])
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
    assert total_differential(mc, 4).shape in eliminated
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


# b~_5 of Omega for cyclic4.json in the rational basis of
# conftest.basis_variants did not finish within 100 s, so that variant stops
# at max_degree 3
SHARED_TOP_DEGREES = {("cyclic4", 2): (2, 3)}


@pytest.fixture
def eliminate_once(monkeypatch):
    """Each Tot differential is assembled, and each matrix eliminated, once.

    The shared-top test reruns each mixed complex at several degrees; the
    memos key on the complex and the matrix object, which they keep alive,
    so only repeats of one assembly or elimination are skipped.
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
    # an earlier tower stage ranks Omega(A); the commands, and so a final
    # stage, rank C(A)
    for build in (omega_complex, build_mixed_complex):
        _check_shared_top(build(a, max(degrees) + 1), degrees)


def _check_shared_top(mc, degrees):
    for max_degree in degrees:
        shared = hochschild_and_cyclic(mc, max_degree)
        plain = ranked_one_by_one(mc, max_degree)
        for got, want in zip(shared, plain):
            assert (got.theory, got.dims, got.boundary_ranks) == \
                (want.theory, want.dims, want.boundary_ranks), max_degree


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
