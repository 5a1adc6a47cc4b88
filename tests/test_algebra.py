"""Tests for algebra constructions, homs and groups."""

import random

import pytest

import oracles
from cychom.algebra import (Algebra, AlgebraHom, FiniteGroup,
                            change_of_basis, check_associativity, direct_sum,
                            double_cosets, group_algebra, hecke_algebra,
                            hecke_inclusion, matrix_algebra,
                            symmetric_group_with_perms, unitize)
from cychom.errors import ValidationError
from cychom.catalog import scrambled_dim3
from cychom.linalg import QQ, SparseMatrix


def ground_field():
    return Algebra(1, {(0, 0): {0: 1}}, unit={0: 1}, basis_labels=("one",))


def dual_numbers():
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    return Algebra(2, table, unit={0: 1}, basis_labels=("one", "x"))


def inclusion(g, k, kp):
    """hecke_inclusion between the Hecke algebras of K and K' it names."""
    return hecke_inclusion(g, k, kp, hecke_algebra(g, k),
                           hecke_algebra(g, kp))


def test_constructor_rejects_bad_unit():
    with pytest.raises(ValidationError):
        Algebra(2, {(0, 0): {0: 1}}, unit={0: 1, 1: 1})


def test_check_associativity_group_algebra_and_matrix_units():
    assert check_associativity(group_algebra(FiniteGroup.cyclic(2))) is None
    m2 = matrix_algebra(ground_field(), 2)
    assert check_associativity(m2) is None


def test_integer_associativity_matches_the_fraction_reference():
    # tables with denominators, each corrupted at one product, must fail at
    # the triple the Fraction reference finds first
    rng = random.Random(17)
    bases = [scrambled_dim3(), matrix_algebra(ground_field(), 2),
             group_algebra(FiniteGroup.cyclic(3))]
    rational = SparseMatrix(3, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1),
                                   (0, 2, "1/2"), (2, 0, "-1/3")])
    bases.append(change_of_basis(bases[-1], rational))
    failures = 0
    for a in bases:
        cases = [dict(a.table)]
        for _ in range(12):
            table = dict(a.table)
            key = (rng.randrange(a.dim), rng.randrange(a.dim))
            vec = dict(table.get(key, {}))
            k = rng.randrange(a.dim)
            vec[k] = vec.get(k, 0) + rng.choice((QQ(1, 2), QQ(-2, 3), 1))
            table[key] = vec
            cases.append(table)
        for table in cases:
            b = Algebra(a.dim, table)
            mult = {key: tuple(vec.items()) for key, vec in b.table.items()}
            want = oracles.first_nonassociative(b.dim, mult)
            assert check_associativity(b) == want
            failures += want is not None
    assert failures >= 30


def test_check_associativity_reports_first_failure():
    # Z/2 group algebra with the unit row corrupted: e*e = 2e kills
    # associativity at the first triple mixing e and g
    bad = Algebra(2, {(0, 0): {0: 2}, (0, 1): {1: 1}, (1, 0): {1: 1},
                      (1, 1): {0: 1}})
    assert check_associativity(bad) == (0, 0, 1)
    # note: scaling only c_{gg}^e leaves the table associative (it is a
    # polynomial quotient), so the corruption must touch the unit row
    still_ok = Algebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                           (1, 1): {0: 2}})
    assert check_associativity(still_ok) is None


def test_unitize_dimensions_and_unit():
    zero_dim = Algebra(0, {})
    tilde = unitize(zero_dim)
    assert tilde.dim == 1 and tilde.unit == {0: QQ(1)}

    k = ground_field()
    kt = unitize(k)
    assert kt.dim == 2
    # the old unit becomes an idempotent e with e*e = e; the new unit is last
    assert kt.multiply({0: QQ(1)}, {0: QQ(1)}) == {0: QQ(1)}
    assert kt.unit == {1: QQ(1)}
    assert check_associativity(kt) is None

    # A keeps its basis indices, so the inclusion of A is the first dim A
    # coordinates and multiplicative
    a = dual_numbers()
    at = unitize(a)
    assert at.dim == 3 and at.unit == {2: QQ(1)}
    assert at.basis_labels == a.basis_labels + ("one",)
    for i in range(a.dim):
        for j in range(a.dim):
            assert at.product(i, j) == a.product(i, j)
    assert check_associativity(at) is None


def test_matrix_algebra_basics():
    m2 = matrix_algebra(ground_field(), 2)
    assert m2.dim == 4
    # e12 * e21 = e11 at indices: e_pq -> 2p + q
    assert m2.product(1, 2) == {0: QQ(1)}
    assert m2.product(1, 1) == {}
    m1 = matrix_algebra(dual_numbers(), 1)
    assert m1.dim == 2 and m1.table == dual_numbers().table
    m2d = matrix_algebra(dual_numbers(), 2)
    assert m2d.dim == 8
    assert check_associativity(m2d) is None


def test_group_algebra_examples():
    assert group_algebra(FiniteGroup.cyclic(1)).dim == 1
    z2 = group_algebra(FiniteGroup.cyclic(2))
    assert z2.product(1, 1) == {0: QQ(1)}
    s3 = group_algebra(FiniteGroup.symmetric(3))
    assert s3.dim == 6
    assert check_associativity(s3) is None
    assert s3.is_unital()


def test_symmetric_group_structure():
    g = FiniteGroup.symmetric(3)
    assert g.order == 6
    assert g.identity == 0
    assert len(g.conjugacy_classes()) == 3
    g4 = FiniteGroup.symmetric(4)
    assert g4.order == 24
    assert len(g4.conjugacy_classes()) == 5


def test_double_cosets_s3_and_z4():
    g, perms = symmetric_group_with_perms(3)
    s2 = [i for i, p in enumerate(perms) if p[2] == 2]
    assert len(s2) == 2
    cosets = double_cosets(g, s2)
    assert len(cosets) == 2
    assert sorted(len(c) for c in cosets) == [2, 4]

    z4 = FiniteGroup.cyclic(4)
    cosets = double_cosets(z4, (0, 2))
    assert len(cosets) == 2
    assert all(len(c) == 2 for c in cosets)


def test_hecke_algebra_s3():
    g, perms = symmetric_group_with_perms(3)
    s2 = [i for i, p in enumerate(perms) if p[2] == 2]
    h = hecke_algebra(g, s2)
    incl = hecke_inclusion(g, s2, (g.identity,), h,
                           hecke_algebra(g, (g.identity,)))
    assert h.dim == 2
    assert h.is_unital()
    assert check_associativity(h) is None
    incl.validate()
    assert incl.is_injective()
    # full subgroup: one double coset
    h1 = hecke_algebra(g, tuple(range(6)))
    assert h1.dim == 1
    # trivial subgroup: the group algebra itself, same structure constants
    h6 = hecke_algebra(g, (g.identity,))
    assert h6.dim == 6
    assert h6.table == group_algebra(g).table
    assert h6.unit == group_algebra(g).unit
    inclusion(g, (g.identity,), (g.identity,)).validate()
    # {e, one 3-cycle} is not closed under multiplication
    three_cycle = next(i for i in range(6)
                       if g.table[i][i] != g.identity and i != g.identity)
    with pytest.raises(ValidationError, match="is not a subgroup"):
        hecke_algebra(g, (g.identity, three_cycle))


def subgroups(g):
    """Every subgroup of g, as a sorted tuple: the closures of all pairs of
    elements, which reach every subgroup of the groups tested here."""
    found = set()
    for a in range(g.order):
        for b in range(a, g.order):
            closure = {g.identity}
            frontier = [a, b]
            while frontier:
                x = frontier.pop()
                if x not in closure:
                    closure.add(x)
                    frontier.extend(g.table[x][y] for y in list(closure))
                    frontier.extend(g.table[y][x] for y in list(closure))
            found.add(tuple(sorted(closure)))
    return sorted(found)


def test_hecke_algebra_matches_convolution_on_every_subgroup():
    groups = (FiniteGroup.cyclic(4), FiniteGroup.cyclic(6),
              FiniteGroup.symmetric(3), FiniteGroup.symmetric(4))
    checked = 0
    for g in groups:
        for k in subgroups(g):
            dim, mult, unit = oracles.hecke_convolution(g.table, k)
            want = {key: dict(terms) for key, terms in mult.items() if terms}
            h = hecke_algebra(g, k)
            assert (h.dim, h.table, h.unit) == (dim, want, {unit: QQ(1)}), k
            checked += 1
    # Z/4: 3 subgroups, Z/6: 4, S_3: 6, S_4: 30
    assert checked == 43


def test_hecke_inclusion_composes_and_is_multiplicative():
    g, perms = symmetric_group_with_perms(3)
    s2 = [i for i, p in enumerate(perms) if p[2] == 2]
    trivial = (g.identity,)
    f = inclusion(g, s2, trivial)
    f.validate()
    assert f.is_injective()
    # composition through the middle subgroup chain S3 > S2 > {e}
    full = tuple(range(6))
    top_mid = inclusion(g, full, s2)
    mid_bot = inclusion(g, s2, trivial)
    direct = inclusion(g, full, trivial)
    composed = mid_bot.compose(top_mid)
    assert composed.matrix == direct.matrix


def test_direct_sum():
    a = ground_field()
    s = direct_sum(a, a)
    assert s.dim == 2
    assert s.product(0, 1) == {}
    assert s.unit == {0: QQ(1), 1: QQ(1)}
    zero_dim = Algebra(0, {})
    assert direct_sum(a, zero_dim).dim == 1


def test_change_of_basis_preserves_associativity_and_unit():
    a = dual_numbers()
    s = SparseMatrix.from_dense([[1, 2], [1, 3]])
    b = change_of_basis(a, s)
    assert check_associativity(b) is None
    assert b.is_unital()


def test_hom_validation_catches_non_multiplicative():
    a = ground_field()
    bad = AlgebraHom(a, a, SparseMatrix.from_dense([[2]]))
    with pytest.raises(ValidationError,
                       match=r"hom fails multiplicativity on basis pair "
                             r"\(0, 0\)"):
        bad.validate()


def test_hom_shape_must_match_algebras():
    k, dual = ground_field(), dual_numbers()
    AlgebraHom(k, dual, SparseMatrix.from_dense([[1], [0]]))
    for src, dst, dense in ((k, dual, [[1, 0]]), (dual, k, [[1], [0]]),
                            (k, dual, [[1]])):
        with pytest.raises(ValidationError, match="shape"):
            AlgebraHom(src, dst, SparseMatrix.from_dense(dense))


def test_finite_group_validation():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValidationError):
        FiniteGroup([[1, 0], [0, 0]])  # no consistent identity row/col order

