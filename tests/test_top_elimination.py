"""One elimination of the top Tot differential for HH, HC and HP together.

When HP follows HH on the same mixed complex, hochschild_and_cyclic
eliminates D_{max_degree+1} in place of b~_{max_degree+1} and reads both
ranks off its pivots (homology.total_rank_split).  These tests pin which
matrices each command eliminates, and check the pivot split against the
brute-force ranks of tests/oracles.py.
"""

from pathlib import Path

import pytest

from conftest import basis_variants, dual_into_m2
from cychom import cli, homology, linalg
from cychom.errors import CertMissing
from cychom.homology import (cyclic_homology, hochschild_and_cyclic,
                             hochschild_homology, hp_can_hold,
                             total_differential, total_rank_split,
                             vanishing_bound)
from cychom.mixed import build_mixed_complex
from cychom.towers import continuity_check, hp_continuity_check
from oracles import oracle_rank

DATA = Path(__file__).resolve().parent.parent / "data"
DATA_ALGEBRAS = sorted((DATA / "algebras").glob("*.json"))

# shapes of b~_4 and D_4 for Q[Z/4], the final stage of z4_tower.json
B4_Z4, D4_Z4 = (320, 1280), (340, 1364)


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
    assert eliminated.count(D4_Z4) == 1
    assert B4_Z4 not in eliminated
    assert len(eliminated) == 18


def test_hp_eliminates_no_top_hochschild_boundary(capsys, eliminated):
    assert run_cli(capsys, "hp", "cyclic4.json", 3) == 0
    assert B4_Z4 not in eliminated
    assert eliminated == [(4, 20), (20, 80), (80, 320), D4_Z4,
                          (4, 20), (20, 84), (84, 340)]


@pytest.mark.parametrize("name, degree, shapes", [
    # HH_{max-1} != 0: the certificate is refused before any D
    ("dual_numbers.json", 4,
     [(2, 6), (6, 12), (12, 24), (24, 48), (48, 96)]),
    ("random_dim3.json", 4,
     [(3, 12), (12, 36), (36, 108), (108, 324), (324, 972)]),
    # HH vanishes, but the stabilized odd degree 3 exceeds 2
    ("cyclic4.json", 2, [(4, 20), (20, 80), (80, 320)]),
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
    ds = dual_into_m2()
    cont = continuity_check(ds, 3)
    mc = cont.complexes[-1]
    assert cont.final_hc is None
    assert mc.b_tilde[4].shape in eliminated
    assert total_differential(mc, 4).shape not in eliminated
    with pytest.raises(CertMissing):
        hp_continuity_check(ds, cont)


# b~_5 of cyclic4.json in the rational basis of conftest.basis_variants did
# not finish within 100 s, so that variant stops at max_degree 3
SHARED_TOP_DEGREES = {("cyclic4", 2): (2, 3)}


@pytest.fixture
def eliminate_once(monkeypatch):
    """Each Tot differential is assembled, and each matrix eliminated, once.

    The shared-top test reruns one mixed complex at several degrees and
    floors; the memo keys on the matrix object, which the caches keep
    alive, so only repeats of one elimination are skipped.
    """
    totals, echelons = {}, {}
    assemble, echelon = homology.total_differential, linalg._echelon

    def total(mc, n):
        if n not in totals:
            totals[n] = assemble(mc, n)
        return totals[n]

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
    mc = build_mixed_complex(a, max(degrees) + 1)
    for max_degree in degrees:
        plain_hh = hochschild_homology(a, max_degree, mc=mc)
        for floor in sorted({0, 1, max_degree}):
            where = (max_degree, floor)
            hh, hc = hochschild_and_cyclic(mc, max_degree, floor)
            assert (hh.dims, hh.boundary_ranks) == \
                (plain_hh.dims, plain_hh.boundary_ranks), where
            bound = max(floor, vanishing_bound(hh.dims, max_degree - 1))
            assert (hc is None) == (not hp_can_hold(bound, max_degree)), where
            if hc is not None:
                plain_hc = cyclic_homology(a, max_degree, mc=mc)
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
    mc = build_mixed_complex(a, 4)
    want = {}
    for n in range(1, 5):
        b, d = mc.b_tilde[n], total_differential(mc, n)
        want[n] = (oracle_rank(b.rows, dict(b.data)),
                   oracle_rank(d.rows, dict(d.data)))
    for variant in variants:
        mc = build_mixed_complex(variant, 4)
        for n in range(1, 5):
            assert total_rank_split(mc, n) == want[n], (n, variant)
