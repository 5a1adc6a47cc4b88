"""One elimination of the top Tot differential for HH, HC and HP together.

When HP follows HH on the same mixed complex, hochschild_homology (with
hp_floor) eliminates D_{max_degree+1} in place of b~_{max_degree+1} and
reads both ranks off its pivots (homology.total_rank_split).  These tests
pin which matrices each command eliminates, and check the pivot split
against the brute-force ranks of tests/oracles.py.
"""

from pathlib import Path

import pytest

from conftest import basis_variants
from cychom import cli, linalg
from cychom.algebra import AlgebraHom, matrix_algebra
from cychom.catalog import dual_numbers, ground_field
from cychom.errors import CertMissing
from cychom.homology import (cyclic_homology, hochschild_homology,
                             periodic_via_stabilization, total_differential,
                             total_rank_split)
from cychom.linalg import SparseMatrix
from cychom.mixed import build_mixed_complex
from cychom.towers import DirectSystem, continuity_check, hp_continuity_check
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
    assert len(eliminated) == 24


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
    # Q[x]/(x^2) -> M2(Q), 1 -> e00 + e11, x -> e01: the final stage's HH
    # vanishes, the first stage's does not, so no common bound can hold
    m2 = matrix_algebra(ground_field(), 2)
    hom = AlgebraHom(dual_numbers(), m2,
                     SparseMatrix(4, 2, [(0, 0, 1), (3, 0, 1), (1, 1, 1)]))
    ds = DirectSystem([dual_numbers(), m2], [hom])
    cont = continuity_check(ds, "HH", 3)
    mc = cont.complexes[-1]
    assert cont.stage_reports[-1].total_top_rank is None
    assert mc.b_tilde[4].shape in eliminated
    assert total_differential(mc, 4).shape not in eliminated
    with pytest.raises(CertMissing):
        hp_continuity_check(ds, cont)


def test_shared_top_gives_the_same_reports():
    a = cli.parse_algebra_file(DATA / "algebras" / "cyclic3.json")
    mc = build_mixed_complex(a, 4)
    plain = hochschild_homology(a, 3, mc=mc)
    shared = hochschild_homology(a, 3, mc=mc, hp_floor=0)
    assert (shared.dims, shared.boundary_ranks) == \
        (plain.dims, plain.boundary_ranks)
    assert plain.total_top_rank is None
    assert shared.total_top_rank == linalg.rank(total_differential(mc, 4))
    hc = cyclic_homology(a, 3, mc=mc)
    reused = cyclic_homology(a, 3, mc=mc, top_rank=shared.total_top_rank)
    assert (reused.dims, reused.boundary_ranks) == \
        (hc.dims, hc.boundary_ranks)
    assert periodic_via_stabilization(a, 3, mc=mc).dims == (3, 0)
    # a floor that refuses ranks b~_4 plainly
    assert hochschild_homology(a, 3, mc=mc, hp_floor=2).total_top_rank is None


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
