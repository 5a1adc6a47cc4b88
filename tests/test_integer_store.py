"""The integer stores of SparseMatrix and Algebra: nonzero ints over one
denominator.

Every matrix operation's result is checked for the canonical form and,
entry for entry, against the Fraction reference in oracles.py, which
shares no code with the package.  Every algebra construction is checked
for the canonical form and against the public constructor fed its
rational view, and every check on algebras and their maps still refuses
what it refused in rationals.  The guards at the end count Fraction
constructions where the stores promise none.
"""

import json
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import oracles
from conftest import assert_canonical, rational_store
from cychom import cli, linalg, towers
from cychom.algebra import (Algebra, AlgebraHom, FiniteGroup,
                            change_of_basis, check_associativity, direct_sum,
                            forget_unit, group_algebra, matrix_algebra,
                            unitize)
from cychom.catalog import dual_numbers
from cychom.errors import ValidationError
from cychom.linalg import QQ, SparseMatrix, invert
from cychom.mixed import (MixedComplex, _kron, build_mixed_complex,
                          induced_chain_map, verify_mixed_identities)

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


def rational_view(a):
    """a's structure constants as {(i, j): {k: Fraction}}, empty pairs
    included."""
    return {(i, j): a.product(i, j) for i in range(a.dim)
            for j in range(a.dim)}


def assert_canonical_algebra(a):
    """a stores nonzero ints over den >= 1, no factor common to den and all
    of them, and the public constructor given its rational view stores the
    same table, den and unit."""
    values = [v for vec in a.table.values() for v in vec.values()]
    assert type(a.den) is int and a.den >= 1
    assert all(vec for vec in a.table.values())
    assert all(type(v) is int and v for v in values)
    assert gcd(a.den, *values) == 1
    rebuilt = Algebra(a.dim, rational_view(a), unit=a.unit,
                      basis_labels=a.basis_labels)
    assert (rebuilt.table, rebuilt.den, rebuilt.unit) == \
        (a.table, a.den, a.unit)


def rational_basis():
    """(Q[Z/3], S, Q[Z/3] in the basis given by S's columns): S has
    denominators 2 and 3, so the new table has a den above 1."""
    s = SparseMatrix(3, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1), (0, 2, "1/2"),
                            (2, 0, "-1/3")])
    a = group_algebra(FiniteGroup.cyclic(3))
    return a, s, change_of_basis(a, s)


def test_every_construction_stores_canonical_ints():
    _, _, b = rational_basis()
    dual = dual_numbers()
    assert b.den > 1 and b.unit is not None
    built = {"change_of_basis": b, "unitize": unitize(b),
             "unitize(dual)": unitize(dual), "forget_unit": forget_unit(b),
             "group_algebra": group_algebra(FiniteGroup.symmetric(3)),
             "matrix_algebra": matrix_algebra(b, 2),
             "direct_sum": direct_sum(b, dual),
             "direct_sum(dual, b)": direct_sum(dual, b)}
    for name in ("z4_tower", "s3_tower"):  # hecke_algebra along each chain
        ds = cli.parse_tower_file(DATA / "towers" / f"{name}.json")
        built.update((f"{name}[{i}]", a) for i, a in enumerate(ds.stages))
        for f in ds.maps:
            assert_canonical(f.matrix)
    for name, a in built.items():
        assert_canonical_algebra(a)
    assert built["forget_unit"].table == b.table
    assert built["forget_unit"].unit is None
    # each construction's rational view is the one it defines
    d = b.dim
    at, m2 = built["unitize"], built["matrix_algebra"]
    left, right = built["direct_sum"], built["direct_sum(dual, b)"]
    for i in range(d):
        assert at.product(d, i) == at.product(i, d) == {i: 1}
        assert left.product(i, d) == left.product(d, i) == {}
        for j in range(d):
            want = b.product(i, j)
            assert at.product(i, j) == want
            assert left.product(i, j) == want
            assert right.product(i + 2, j + 2) == \
                {k + 2: c for k, c in want.items()}
            # e_01 (x) b_i times e_10 (x) b_j is e_00 (x) b_i b_j
            assert m2.product(d + i, 2 * d + j) == want
            assert m2.product(2 * d + i, d + j) == \
                {3 * d + k: c for k, c in want.items()}
    assert at.product(d, d) == {d: 1}


def test_every_check_fires_through_the_integer_paths(tmp_path):
    # constants over den 3 and a unit over q = 2: e_0 e_0 = 2/3 e_0,
    # e_1 e_0 = 2/3 e_1, so 3/2 e_0 is a right unit; it is a left one only
    # with e_0 e_1 = 2/3 e_1
    right = {(0, 0): {0: "2/3"}, (1, 0): {1: "2/3"}}
    left = {(0, 0): {0: "2/3"}, (0, 1): {1: "2/3"}}
    both = {**right, **left}
    a = Algebra(2, both, unit={0: "3/2"})
    assert (a.den, a.integer_unit()) == (3, ({0: 3}, 2))
    for table, unit, i in ((right, "3/2", 1), (left, "3/2", 1),
                           (both, "3/4", 0), (both, 1, 0)):
        with pytest.raises(ValidationError,
                           match=f"^claimed unit fails on basis element {i}$"):
            Algebra(2, table, unit={0: unit})
    with pytest.raises(ValidationError, match=r"^structure constant index "
                                              r"\(0, 2\) out of range$"):
        Algebra(2, {(0, 2): {0: 1}})
    with pytest.raises(ValidationError,
                       match="^structure constant target 2 out of range$"):
        Algebra(2, {(0, 0): {2: "1/2"}})
    for table, unit in (({(0, 0): {0: 0.5}}, None),
                        ({(0, 0): {0: 1}}, {0: 1.0})):
        with pytest.raises(TypeError, match="^floats are not accepted; "
                                            "use strings or rationals$"):
            Algebra(1, table, unit=unit)
    # a table with denominators that fails associativity, by the file
    # loader, at the triple the Fraction reference finds first
    bad = {(0, 0): {0: "4/3"}, (0, 1): {1: "2/3"}, (1, 0): {1: "2/3"},
           (1, 1): {0: "1/2"}}
    mult = {key: tuple((k, QQ(c)) for k, c in vec.items())
            for key, vec in bad.items()}
    triple = oracles.first_nonassociative(2, mult)
    assert triple is not None
    doc = {"dim": 2, "table": [[[[k, c] for k, c in bad.get((i, j),
                                                              {}).items()]
                                for j in range(2)] for i in range(2)]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError,
                       match=f"^associativity fails on basis triple "
                             f"{re.escape(str(triple))}$"):
        cli.parse_algebra_file(path)


@pytest.mark.parametrize("image, message", [
    ({2: QQ(1)}, None),
    ({1: QQ(1, 2)}, "hom fails multiplicativity on basis pair (1, 1)"),
    ({}, "stage map 0 is not injective"),
])
def test_tower_files_refuse_bad_maps(tmp_path, capsys, image, message):
    # dual_tower.json, Q[x]/(x^2) -> Q[y]/(y^4), with its first stage in
    # the basis 1, (1 + x)/2, whose table has den 4, and x sent to image
    doc = json.loads((DATA / "towers" / "dual_tower.json").read_text())
    s = SparseMatrix(2, 2, [(0, 0, 1), (0, 1, "1/2"), (1, 1, "1/2")])
    source = change_of_basis(dual_numbers(), s)
    assert source.den == 4
    m = SparseMatrix.from_columns(4, [{0: QQ(1)}, image]) @ s
    entries = rational_store(m)
    doc["stages"][0] = cli.algebra_to_doc(source)
    doc["maps"] = [[[cli.format_rational(entries.get((r, c), 0))
                     for c in range(2)] for r in range(4)]]
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["tower", str(path), "--max-degree", "1",
                     "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    if message is None:  # HH of the dual numbers never vanishes
        assert code == 3 and report["hp"]["status"] == "NOT_ESTABLISHED"
    else:
        assert code == 1
        assert (report["error"], report["message"]) == \
            ("validation", message)


def test_isomorphisms_with_denominators_validate():
    # a change of basis S is an algebra isomorphism from the new basis to
    # the old, and S^-1 one back; the dens of source, target and map differ
    a, s, b = rational_basis()
    s_inv = invert(s)
    assert len({a.den, b.den, s.den}) == 3
    assert AlgebraHom(b, a, s).validate()
    assert AlgebraHom(a, b, s_inv).validate()
    bumped = s + SparseMatrix(3, 3, [(1, 2, "1/6")])
    with pytest.raises(ValidationError,
                       match="^hom fails multiplicativity on basis pair"):
        AlgebraHom(b, a, bumped).validate()


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


def test_algebra_checks_and_builds_construct_no_fraction(fractions_made):
    # parsing a file makes the rational constants; from there on the unit
    # check, associativity, the hom checks and every build run on ints
    algebras = [cli.parse_algebra_file(path)
                for path in sorted((DATA / "algebras").glob("*.json"))]
    algebras.append(rational_basis()[2])
    systems = [cli.parse_tower_file(path)
               for path in sorted((DATA / "towers").glob("*.json"))]
    fractions_made["on"] = True
    # a Hecke tower file holds a group table, so parsing it builds its
    # stages and inclusions without a Fraction as well
    systems += [cli.parse_tower_file(DATA / "towers" / f"{name}.json")
                for name in ("z4_tower", "s3_tower")]
    for a in algebras:
        assert check_associativity(a) is None
        a._check_unit()
        build_mixed_complex(a, 3)
        build_mixed_complex(forget_unit(a), 3)
    for ds in systems:
        for f in ds.maps:
            assert f.validate() and f.is_injective()
        towers._stage_complexes(ds, 3)
        for f in ds.to_final[:-1]:
            induced_chain_map(f, 3)
    fractions_made["on"] = False
    assert fractions_made["made"] == 0
    # the counter sees a Fraction: the rational view makes them
    fractions_made["on"] = True
    assert algebras[0].product(0, 0)
    assert fractions_made["made"] > 0
