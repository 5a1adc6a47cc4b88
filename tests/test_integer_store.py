"""The integer store of SparseMatrix: nonzero ints over one denominator.

Every operation's result is checked for the canonical form and, entry for
entry, against the Fraction reference in oracles.py, which shares no code
with the package.  The guards at the end count Fraction constructions where
the store promises none.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from conftest import assert_canonical, rational_store
from cychom import cli, linalg
from cychom.algebra import FiniteGroup, group_algebra
from cychom.linalg import QQ, SparseMatrix
from cychom.mixed import (MixedComplex, _kron, build_mixed_complex,
                          verify_mixed_identities)

DATA = Path(__file__).resolve().parent.parent / "data"

# the denominators of the blocks of the z4 Hecke tower's filtration matrices
DENOMINATORS = (1, 2, 8)


def random_entries(rng, rows, cols, den):
    """{(row, col): Fraction} with values k / den; when den > 1 and the
    matrix is not empty, (0, 0) holds 1 / den, so den is the store's."""
    out = {(r, c): QQ(rng.choice((-6, -3, -2, -1, 1, 2, 3, 4, 5)), den)
           for r in range(rows) for c in range(cols) if rng.random() < 0.5}
    if den > 1 and rows and cols:
        out[(0, 0)] = QQ(1, den)
    return out


def matrix(rows, cols, entries):
    return SparseMatrix(rows, cols,
                        ((r, c, v) for (r, c), v in entries.items()))


def check(m, want):
    """m is canonical and holds exactly the rational entries want."""
    assert_canonical(m)
    assert rational_store(m) == want


def test_constructor_accumulates_into_canonical_form():
    m = SparseMatrix(2, 3, [(0, 0, "1/2"), (0, 0, "1/2"), (1, 2, 4),
                            (1, 1, "3/8"), (1, 1, "-3/8"), (0, 1, 0)])
    check(m, {(0, 0): QQ(1), (1, 2): QQ(4)})
    assert m.den == 1 and m.data == {(0, 0): 1, (1, 2): 4}
    m = SparseMatrix(1, 3, [(0, 0, "2/8"), (0, 1, "-1/2"), (0, 2, 3)])
    assert (m.den, m.data) == (4, {(0, 0): 1, (0, 1): -2, (0, 2): 12})
    zero = SparseMatrix(2, 2, [(0, 0, "1/8"), (0, 0, "-1/8")])
    check(zero, {})
    assert zero.den == 1 and zero == SparseMatrix(2, 2)
    rng = random.Random(3)
    for _ in range(100):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        want = random_entries(rng, rows, cols, rng.choice(DENOMINATORS))
        triples = [(r, c, v) for (r, c), v in want.items()]
        # split every entry into two, and add a pair that cancels
        split = [(r, c, v - 1) for r, c, v in triples]
        split += [(r, c, 1) for r, c, _ in triples]
        if rows and cols:
            split += [(0, 0, QQ(5, 8)), (0, 0, QQ(-5, 8))]
        rng.shuffle(split)
        check(SparseMatrix(rows, cols, split), want)


def test_operations_match_the_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(150):
        n, k, m = (rng.randint(0, 5) for _ in range(3))
        da, db, dc = (rng.choice(DENOMINATORS) for _ in range(3))
        ea = random_entries(rng, n, k, da)
        eb = random_entries(rng, n, k, db)
        ec = random_entries(rng, k, m, dc)
        if rng.random() < 0.2:
            eb = oracles.mat_neg(ea)  # a + b is the zero matrix
        a, b, c = matrix(n, k, ea), matrix(n, k, eb), matrix(k, m, ec)
        for x, e in ((a, ea), (b, eb), (c, ec)):
            check(x, e)
        check(a @ c, oracles.mat_product(ea, ec))
        check(a + b, oracles.mat_sum(ea, eb))
        neg_b = matrix(n, k, oracles.mat_neg(eb))
        check(a + neg_b, oracles.mat_sum(ea, oracles.mat_neg(eb)))
        check(_kron(a, c), oracles.mat_kron(ea, ec, k, m))
        blocks = {(0, 0): a, (0, 2): b,
                  (1, 1): matrix(k, m, oracles.mat_neg(ec))}
        egrid = [[ea, None, eb], [None, oracles.mat_neg(ec), None]]
        check(SparseMatrix.from_blocks(blocks, [n, k], [k, m, k]),
              oracles.mat_blocks(egrid, [n, k], [k, m, k]))


def test_from_blocks_rescales_to_the_common_denominator():
    half = SparseMatrix(1, 2, [(0, 0, "1/2")])
    eighth = SparseMatrix(1, 2, [(0, 0, "3/8"), (0, 1, "1/4")])
    one = SparseMatrix.identity(1)
    m = SparseMatrix.from_blocks({(0, 0): one, (0, 1): half, (1, 1): eighth},
                                 [1, 1], [1, 2])
    assert m.den == 8
    assert m.data == {(0, 0): 8, (0, 1): 4, (1, 1): 3, (1, 2): 2}
    check(m, {(0, 0): QQ(1), (0, 1): QQ(1, 2), (1, 1): QQ(3, 8),
              (1, 2): QQ(1, 4)})


def test_equality_is_rational_equality():
    rng = random.Random(8)
    made = []
    for _ in range(60):
        rows, cols = rng.randint(0, 3), rng.randint(0, 3)
        e = random_entries(rng, rows, cols, rng.choice(DENOMINATORS))
        x = matrix(rows, cols, e)
        # the same rational matrix reached two other ways
        assert x == (x + x) + matrix(rows, cols, oracles.mat_neg(e))
        assert x == SparseMatrix(rows, cols, [(r, c, f"{2 * v.numerator}/"
                                                      f"{2 * v.denominator}")
                                              for (r, c), v in e.items()])
        made.append((x, e))
    for x, ex in made:
        for y, ey in made:
            assert (x == y) == (x.shape == y.shape and ex == ey)
    assert SparseMatrix(2, 3) != SparseMatrix(3, 2)
    assert SparseMatrix(1, 1, [(0, 0, "1/2")]) != \
        SparseMatrix(1, 1, [(0, 0, 1)])


@pytest.fixture
def fractions_made(monkeypatch):
    """A counter of the Fractions constructed while counter["on"] is set."""
    counter = {"on": False, "made": 0}
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        counter["made"] += counter["on"]
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    if hasattr(Fraction, "_from_coprime_ints"):
        # newer Pythons build arithmetic results without calling __new__
        coprime = Fraction._from_coprime_ints

        def coprime_counting(cls, *args):
            counter["made"] += counter["on"]
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(coprime_counting))
    return counter


def test_identities_on_z4_construct_no_fraction(fractions_made):
    mc = build_mixed_complex(group_algebra(FiniteGroup.cyclic(4)), 4)
    fractions_made["on"] = True
    report = verify_mixed_identities(mc)
    fractions_made["on"] = False
    assert report.all_pass
    assert fractions_made["made"] == 0
    # the counter sees a Fraction: a corrupted complex reports its witness
    bad = dict(mc.b_tilde)
    bad[2] = bad[2] + SparseMatrix(bad[2].rows, bad[2].cols, [(0, 0, 1)])
    corrupted = MixedComplex(mc.n_max, mc.spaces, bad, mc.B_tilde)
    fractions_made["on"] = True
    assert verify_mixed_identities(corrupted).witness is not None
    assert fractions_made["made"] > 0


def test_tower_eliminations_construct_no_fraction(fractions_made,
                                                  monkeypatch, capsys):
    echelon = linalg._echelon
    shapes = []

    def counted(m, rhs_cols=0):
        shapes.append(m.shape)
        fractions_made["on"] = True
        try:
            return echelon(m, rhs_cols)
        finally:
            fractions_made["on"] = False

    monkeypatch.setattr(linalg, "_echelon", counted)
    code = cli.main(["tower", str(DATA / "towers" / "z4_tower.json"),
                     "--max-degree", "3", "--format", "json"])
    capsys.readouterr()
    assert code == 0
    assert len(shapes) == 11  # as the benchmark's trace counts them
    assert fractions_made["made"] == 0
