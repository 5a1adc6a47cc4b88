"""Operator identities and assembly conventions for the mixed complex."""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import reference_mixed
from conftest import basis_variants
from cychom import cli, mixed
from cychom.algebra import AlgebraHom, hecke_algebra, hecke_inclusion, \
    symmetric_group_with_perms, group_algebra
from cychom.catalog import dual_numbers, ground_field
from cychom.errors import DegreeOutOfRange, NotMultiplicative, SizeCapExceeded
from cychom.linalg import ONE, SparseMatrix
from cychom.mixed import (MixedComplex, bar_bprime, build_mixed_complex,
                          chain_space, cyclic_lambda, hochschild_b,
                          induced_chain_map, norm_N, tensor_power,
                          verify_mixed_identities)
from reference_mixed import word_to_index

DATA_ALGEBRAS = sorted(
    (Path(__file__).resolve().parent.parent / "data" / "algebras").glob("*.json"))


def s3_hecke_pair():
    g, perms = symmetric_group_with_perms(3)
    k = [i for i, p in enumerate(perms) if p[2] == 2]
    return g, k


def test_word_indexing_roundtrip():
    dim, n = 3, 4
    # product lists the words in lexicographic order: index order equals
    # tuple order, and the indices are exactly 0 .. dim^n - 1
    for i, w in enumerate(product(range(dim), repeat=n)):
        assert word_to_index(w, dim) == i
    assert i == dim ** n - 1


def test_lambda_has_order_n(algebras):
    a = algebras["dual"]
    for n in range(1, 5):
        lam = cyclic_lambda(a, n)
        acc = SparseMatrix.identity(a.dim ** n)
        for _ in range(n):
            acc = lam @ acc
        assert acc == SparseMatrix.identity(a.dim ** n)
    assert cyclic_lambda(a, 1) == SparseMatrix.identity(a.dim)


def test_norm_is_power_sum(algebras):
    a = algebras["dual"]
    for n in (2, 3, 4):
        lam = cyclic_lambda(a, n)
        acc = SparseMatrix.identity(a.dim ** n)
        total = SparseMatrix.zeros(a.dim ** n, a.dim ** n)
        for _ in range(n):
            total = total + acc
            acc = lam @ acc
        assert norm_N(a, n) == total


def test_norm_annihilates_one_minus_lambda(algebras):
    for name in ("dual", "z3"):
        a = algebras[name]
        for n in (2, 3):
            lam = cyclic_lambda(a, n)
            eye = SparseMatrix.identity(a.dim ** n)
            nrm = norm_N(a, n)
            assert (nrm @ (eye - lam)).is_zero()
            assert ((eye - lam) @ nrm).is_zero()


def test_b_and_bprime_intertwine_cyclic_action(algebras):
    # b (1 - lambda) = (1 - lambda) b'   and   b' N = N b
    for name in ("dual", "m2q"):
        a = algebras[name]
        for n in (2, 3):
            b = hochschild_b(a, n)
            bp = bar_bprime(a, n)
            lam_n = cyclic_lambda(a, n)
            eye_n = SparseMatrix.identity(a.dim ** n)
            if n == 2:
                lam_m = cyclic_lambda(a, 1)
                eye_m = SparseMatrix.identity(a.dim)
            else:
                lam_m = cyclic_lambda(a, n - 1)
                eye_m = SparseMatrix.identity(a.dim ** (n - 1))
            assert b @ (eye_n - lam_n) == (eye_m - lam_m) @ bp
            assert bp @ norm_N(a, n) == norm_N(a, n - 1) @ b


def test_b_and_bprime_square_to_zero(algebras):
    a = algebras["m2q"]
    for n in (3, 4):
        assert (hochschild_b(a, n - 1) @ hochschild_b(a, n)).is_zero()
        assert (bar_bprime(a, n - 1) @ bar_bprime(a, n)).is_zero()


def test_degree_guards():
    a = dual_numbers()
    for fn in (hochschild_b, bar_bprime, cyclic_lambda, norm_N):
        with pytest.raises(DegreeOutOfRange):
            fn(a, 0)
    with pytest.raises(DegreeOutOfRange):
        build_mixed_complex(a, -1)


def test_degree_one_operators_map_to_zero_space():
    a = dual_numbers()
    assert hochschild_b(a, 1).shape == (0, 2)
    assert bar_bprime(a, 1).shape == (0, 2)


def test_chain_space_dimensions():
    cs0 = chain_space(3, 0)
    assert (cs0.top_dim, cs0.bottom_dim, cs0.dim) == (3, 0, 3)
    cs2 = chain_space(3, 2)
    assert (cs2.top_dim, cs2.bottom_dim, cs2.dim) == (27, 9, 36)
    mc = build_mixed_complex(dual_numbers(), 3)
    assert [s.dim for s in mc.spaces] == [2, 6, 12, 24]
    for n in range(1, 4):
        assert mc.b_tilde[n].shape == (mc.spaces[n - 1].dim, mc.spaces[n].dim)
    for n in range(0, 3):
        assert mc.B_tilde[n].shape == (mc.spaces[n + 1].dim, mc.spaces[n].dim)


def test_degree_zero_conventions():
    a = dual_numbers()
    mc = build_mixed_complex(a, 2)
    # B~ in degree 0 sends x to (0, x): block [[0], [I]]
    expected = {(a.dim ** 2 + i, i): ONE for i in range(a.dim)}
    assert dict(mc.B_tilde[0].data) == expected
    # on a commutative algebra b~ out of degree 1 is identically zero
    assert mc.b_tilde[1].is_zero()


def test_degree_one_b_on_noncommutative(algebras):
    a = algebras["m2q"]
    mc = build_mixed_complex(a, 1)
    # column of the word (e01, e10): b = e01 e10 - e10 e01 = e00 - e11
    col = word_to_index((1, 2), a.dim)
    column = {r: v for (r, c), v in mc.b_tilde[1].data.items() if c == col}
    assert column == {0: ONE, 3: -ONE}
    # the bottom summand of degree 1 is killed: lambda = id there
    bottom_cols = [c for (_, c) in mc.b_tilde[1].data if c >= a.dim ** 2]
    assert bottom_cols == []


def test_upper_B_structure():
    a = dual_numbers()
    mc = build_mixed_complex(a, 3)
    d = a.dim
    expected = SparseMatrix.from_blocks(
        [[None, None], [norm_N(a, 3), None]],
        [d ** 4, d ** 3], [d ** 3, d ** 2])
    assert mc.B_tilde[2] == expected


def test_identities_on_small_suite(mixed_complexes):
    for name in ("ground", "dual", "z3"):
        report = verify_mixed_identities(mixed_complexes(name))
        assert report.all_pass, (name, report.witness)


def test_identity_report_flags_corruption():
    a = dual_numbers()
    mc = build_mixed_complex(a, 3)
    bad_B = dict(mc.B_tilde)
    bump = SparseMatrix(bad_B[1].rows, bad_B[1].cols, [(0, 0, 1)])
    bad_B[1] = bad_B[1] + bump
    corrupted = MixedComplex(a, 3, mc.spaces, mc.b_tilde, bad_B)
    report = verify_mixed_identities(corrupted)
    assert not report.all_pass
    assert all(report.bb.values())
    assert report.anticommute[1] is False
    assert report.BB[1] is False
    identity, degree, entry = report.witness
    assert (identity, degree) == ("b~B~+B~b~", 1)
    assert entry == (0, 0, ONE)


def test_induced_chain_map_commutes_with_differentials():
    g, k = s3_hecke_pair()
    hecke, incl = hecke_algebra(g, k)
    maps = induced_chain_map(incl, 2)
    src = build_mixed_complex(hecke, 2)
    dst = build_mixed_complex(group_algebra(g), 2)
    for n in (1, 2):
        assert maps[n - 1] @ src.b_tilde[n] == dst.b_tilde[n] @ maps[n]
    for n in (0, 1):
        assert maps[n + 1] @ src.B_tilde[n] == dst.B_tilde[n] @ maps[n]


def test_induced_chain_map_functorial():
    g, k = s3_hecke_pair()
    full = list(range(g.order))
    triv = [g.identity]
    step1 = hecke_inclusion(g, full, k)
    step2 = hecke_inclusion(g, k, triv, source=step1.target)
    direct = hecke_inclusion(g, full, triv, source=step1.source,
                             target=step2.target)
    composed = step2.compose(step1)
    assert composed.matrix == direct.matrix
    m_direct = induced_chain_map(direct, 2)
    m1 = induced_chain_map(step1, 2)
    m2 = induced_chain_map(step2, 2)
    for n in (0, 1, 2):
        assert m_direct[n] == m2[n] @ m1[n]


def test_induced_chain_map_requires_multiplicative():
    a = dual_numbers()
    doubled = SparseMatrix.from_dense([[2, 0], [0, 2]])
    f = AlgebraHom(a, a, doubled)
    with pytest.raises(NotMultiplicative):
        induced_chain_map(f, 2)


def test_tensor_power_matches_kronecker():
    m = SparseMatrix.from_dense([[1, 2], [0, 1]])
    assert tensor_power(m, 0) == SparseMatrix.identity(1)
    assert tensor_power(m, 1) == m
    expected = SparseMatrix.from_dense([
        [1, 2, 2, 4],
        [0, 1, 0, 2],
        [0, 0, 1, 2],
        [0, 0, 0, 1]])
    assert tensor_power(m, 2) == expected
    assert tensor_power(m, 3).shape == (8, 8)


def test_size_cap_refuses_oversized_build(algebras):
    with pytest.raises(SizeCapExceeded):
        build_mixed_complex(algebras["m2q"], 12)


OPERATORS = ("hochschild_b", "bar_bprime", "cyclic_lambda", "norm_N")


def _assert_same_store(got, want):
    assert got.shape == want.shape
    assert got.data == want.data
    assert all(type(v) is Fraction and v for v in got.data.values())


def _cross_check(a, n_max=4):
    """Every operator with n <= n_max, and b~, B~ built from them, equal
    the tuple-based reference entry for entry."""
    for n in range(1, n_max + 1):
        for name in OPERATORS:
            _assert_same_store(getattr(mixed, name)(a, n),
                               getattr(reference_mixed, name)(a, n))
    mc = build_mixed_complex(a, n_max - 1)
    b_ref, B_ref = reference_mixed.mixed_differentials(a, n_max - 1)
    assert mc.b_tilde.keys() == b_ref.keys()
    assert mc.B_tilde.keys() == B_ref.keys()
    for n in b_ref:
        _assert_same_store(mc.b_tilde[n], b_ref[n])
    for n in B_ref:
        _assert_same_store(mc.B_tilde[n], B_ref[n])


@pytest.mark.parametrize("path", DATA_ALGEBRAS, ids=lambda p: p.stem)
def test_operators_match_tuple_reference_on_data(path):
    a = cli.parse_algebra_file(path)
    for variant in basis_variants(a, DATA_ALGEBRAS.index(path)):
        _cross_check(variant)


def test_operators_match_tuple_reference_on_fixtures(algebras):
    for i, name in enumerate(sorted(algebras)):
        for variant in basis_variants(algebras[name], i):
            _cross_check(variant)
