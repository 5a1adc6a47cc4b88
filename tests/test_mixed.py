"""Operator identities and assembly conventions for the mixed complexes:
C(A) of a unital algebra and Omega(A), built with the unit forgotten."""

import random
from itertools import product
from pathlib import Path

import pytest

import reference_mixed
from conftest import assert_canonical, basis_variants, rational_store
from cychom import cli, mixed
from cychom.algebra import (Algebra, AlgebraHom, forget_unit, group_algebra,
                            hecke_algebra, hecke_inclusion,
                            symmetric_group_with_perms)
from cychom.catalog import dual_numbers, ground_field
from cychom.errors import SizeCapExceeded, ValidationError
from cychom.homology import cyclic_homology, hochschild_homology
from cychom.linalg import ONE, QQ, SparseMatrix
from cychom.mixed import (ChainSpace, MixedComplex, build_mixed_complex,
                          cell_count, induced_chain_map,
                          verify_mixed_identities)
from cychom.towers import DirectSystem
from reference_mixed import word_to_index

DATA = Path(__file__).resolve().parent.parent / "data" / "algebras"
DATA_ALGEBRAS = sorted(DATA.glob("*.json"))


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


def test_b_and_bprime_square_to_zero(algebras):
    # Omega's b~_n is block upper triangular on A^{(x) n+1} (+) A^{(x) n},
    # with b and -b' on the diagonal, and each of them squares to zero
    a = forget_unit(algebras["m2q"])
    d = a.dim
    mc = build_mixed_complex(a, 4)

    def blocks(n):
        top, rows = d ** (n + 1), d ** n
        b, bprime = [], []
        for r, c, v in mc.b_tilde[n].entries():
            assert r < rows or c >= top, "the top summand reaches the bottom"
            if c < top:
                b.append((r, c, v))
            elif r >= rows:
                bprime.append((r - rows, c - top, v))
        return (SparseMatrix(rows, top, b),
                SparseMatrix(d ** (n - 1), rows, bprime))

    for n in (3, 4):
        b_hi, bp_hi = blocks(n)
        b_lo, bp_lo = blocks(n - 1)
        assert b_hi.data and bp_hi.data
        assert not (b_lo @ b_hi).data
        assert not (bp_lo @ bp_hi).data


def test_degree_guards():
    with pytest.raises(ValidationError, match="n_max must be nonnegative"):
        build_mixed_complex(dual_numbers(), -1)


def test_degree_one_operators_map_to_zero_space():
    # Qbar = 0, so C(Q) is Q in degree 0 and zero above it
    mc = build_mixed_complex(ground_field(), 2)
    assert [s.dim for s in mc.spaces] == [1, 0, 0]
    assert mc.b_tilde[1].shape == (1, 0)
    assert mc.B_tilde[0].shape == (0, 1)
    assert mc.b_tilde[2].shape == (0, 0)


def test_chain_space_dimensions():
    a = dual_numbers()
    assert [cell_count(a, n) for n in range(4)] == [2, 2, 2, 2]
    forgotten = forget_unit(a)
    assert [cell_count(forgotten, n) for n in range(4)] == [2, 6, 12, 24]
    m3 = Algebra(3, {(i, i): {i: 1} for i in range(3)},
                 unit={i: 1 for i in range(3)})
    assert [cell_count(m3, n) for n in range(3)] == [3, 6, 12]
    assert [cell_count(forget_unit(m3), n) for n in range(3)] == [3, 12, 36]
    for alg in (a, forgotten, m3):
        mc = build_mixed_complex(alg, 3)
        assert [s.dim for s in mc.spaces] == [cell_count(alg, n)
                                              for n in range(4)]
        for n in range(1, 4):
            assert mc.b_tilde[n].shape == (mc.spaces[n - 1].dim,
                                           mc.spaces[n].dim)
        for n in range(0, 3):
            assert mc.B_tilde[n].shape == (mc.spaces[n + 1].dim,
                                           mc.spaces[n].dim)


def test_degree_zero_conventions():
    a = dual_numbers()
    omega = build_mixed_complex(forget_unit(a), 2)
    # Omega's B~ in degree 0 sends x to (0, x): block [[0], [I]]
    expected = {(a.dim ** 2 + i, i): ONE for i in range(a.dim)}
    assert rational_store(omega.B_tilde[0]) == expected
    # C(A)'s sends a to (1; pi(a)): pi(1) = 0 and pi(x) is letter 0
    assert rational_store(build_mixed_complex(a, 2).B_tilde[0]) == \
        {(0, 1): ONE}
    # on a commutative algebra b~ out of degree 1 is identically zero
    assert not omega.b_tilde[1].data
    assert not build_mixed_complex(a, 2).b_tilde[1].data


def test_degree_one_b_on_noncommutative(algebras):
    a = algebras["m2q"]
    # the unit e00 + e11 makes e00 the dropped index: letters e01, e10, e11
    mc = build_mixed_complex(a, 1)
    # column of the word (e01; e10): b = e01 e10 - e10 e01 = e00 - e11
    assert mc.b_tilde[1].columns()[1 * 3 + 1] == {0: ONE, 3: -ONE}
    omega = build_mixed_complex(forget_unit(a), 1)
    col = word_to_index((1, 2), a.dim)
    assert omega.b_tilde[1].columns()[col] == {0: ONE, 3: -ONE}
    # the bottom summand of Omega^1 is killed: lambda = id there
    bottom_cols = [c for (_, c) in omega.b_tilde[1].data if c >= a.dim ** 2]
    assert bottom_cols == []


def test_upper_B_structure():
    a = dual_numbers()
    d = a.dim
    omega = build_mixed_complex(forget_unit(a), 3)
    expected = SparseMatrix.from_blocks(
        {(1, 0): reference_mixed.norm_N(a, 3)},
        [d ** 4, d ** 3], [d ** 3, d ** 2])
    assert omega.B_tilde[2] == expected
    # C(A): B(x; x, x) = sum_{i=0}^{2} (1; x, x, x) and B(1; x, x) = 0,
    # while B(x; x) = (1; x, x) - (1; x, x) = 0
    mc = build_mixed_complex(a, 3)
    assert rational_store(mc.B_tilde[2]) == {(0, 1): QQ(3)}
    assert not mc.B_tilde[1].data


def test_identities_on_small_suite(algebras, mixed_complexes):
    for name in ("ground", "dual", "z3"):
        report = verify_mixed_identities(mixed_complexes(name))
        assert report.all_pass, (name, report.witness)
        report = verify_mixed_identities(
            build_mixed_complex(algebras[name], 5))
        assert report.all_pass, (name, report.witness)


def test_identity_report_flags_corruption():
    a = forget_unit(dual_numbers())
    mc = build_mixed_complex(a, 3)
    bad_B = dict(mc.B_tilde)
    bump = SparseMatrix(bad_B[1].rows, bad_B[1].cols, [(0, 0, 1)])
    bad_B[1] = bad_B[1] + bump
    corrupted = MixedComplex(3, mc.spaces, mc.b_tilde, bad_B)
    report = verify_mixed_identities(corrupted)
    assert not report.all_pass
    assert all(report.bb.values())
    assert report.anticommute[1] is False
    assert report.BB[1] is False
    identity, degree, entry = report.witness
    assert (identity, degree) == ("b~B~+B~b~", 1)
    assert entry == (0, 0, ONE)


def reference_identities(mc):
    """(bb, anticommute, BB, witness) as verify_mixed_identities reports
    them, from the products and sums of SparseMatrix: each check is whether
    its sum has no entry, and the witness is the least key of the first
    nonzero sum."""
    b, B = mc.b_tilde, mc.B_tilde
    sums = (
        ("b~b~", {n: b[n - 1] @ b[n] for n in range(2, mc.n_max + 1)}),
        ("b~B~+B~b~", {n: b[n + 1] @ B[n] + B[n - 1] @ b[n] if n
                       else b[1] @ B[0] for n in range(mc.n_max)}),
        ("B~B~", {n: B[n + 1] @ B[n] for n in range(mc.n_max - 1)}),
    )
    checks, witness = [], None
    for name, by_degree in sums:
        checks.append({n: not m.data for n, m in by_degree.items()})
        for n, m in by_degree.items():
            if m.data and witness is None:
                r, c = min(m.data)
                witness = (name, n, (r, c, QQ(m.data[(r, c)], m.den)))
    return (*checks, witness)


def assert_report_matches_reference(mc):
    report = verify_mixed_identities(mc)
    assert (report.bb, report.anticommute, report.BB, report.witness) == \
        reference_identities(mc)
    return report


BUMPS = (1, QQ(-1, 2), QQ(7, 3), 10 ** 20 + 7)


def nonempty_operators(mc):
    return [(ops, n) for ops in (mc.b_tilde, mc.B_tilde)
            for n, m in ops.items() if m.rows and m.cols]


def bumped(mc, rng, value):
    """mc with value added to one seeded entry of one seeded nonempty b~_n
    or B~_n."""
    ops, n = rng.choice(nonempty_operators(mc))
    m = ops[n]
    changed = dict(ops)
    changed[n] = m + SparseMatrix(m.rows, m.cols, [
        (rng.randrange(m.rows), rng.randrange(m.cols), value)])
    if ops is mc.b_tilde:
        return MixedComplex(mc.n_max, mc.spaces, changed, mc.B_tilde)
    return MixedComplex(mc.n_max, mc.spaces, mc.b_tilde, changed)


@pytest.mark.parametrize("path", DATA_ALGEBRAS, ids=lambda p: p.stem)
def test_packed_identities_match_products(path):
    # on C(A) and Omega(A) of every data algebra, in all three bases, the
    # packed decision equals the one read off the products, and so it does
    # after one entry of one operator is bumped
    a = cli.parse_algebra_file(path)
    seed = DATA_ALGEBRAS.index(path)
    rng = random.Random(seed)
    for variant in basis_variants(a, seed):
        for mc in (build_mixed_complex(variant, 3),
                   build_mixed_complex(forget_unit(variant), 3)):
            assert assert_report_matches_reference(mc).all_pass
            # C(Q) is zero above degree 0, so it has nothing to bump
            for value in BUMPS if nonempty_operators(mc) else ():
                assert_report_matches_reference(bumped(mc, rng, value))


def constant(rows, cols, value):
    return SparseMatrix(rows, cols, [(r, c, value) for r in range(rows)
                                     for c in range(cols)])


@pytest.mark.parametrize("u, v", [(1, 1), (QQ(7, 3), 10 ** 20 + 7),
                                  (-5, QQ(-1, 2)), (3, 2 ** 61 - 1)])
def test_packed_witness_at_the_digit_bound(u, v):
    # b~_1 b~_2 = (3 u v), a single sum of three equal products: its digit
    # reaches the bound 3 max|b~_1| max|b~_2| that the digit width is
    # chosen from, so a width one bit short misreads the witness
    spaces = [ChainSpace(1), ChainSpace(3), ChainSpace(1)]
    mc = MixedComplex(2, spaces, {1: constant(1, 3, u), 2: constant(3, 1, v)},
                      {0: SparseMatrix(3, 1), 1: SparseMatrix(1, 3)})
    report = assert_report_matches_reference(mc)
    assert report.witness == ("b~b~", 2, (0, 0, 3 * u * v))


def test_packed_identities_match_products_on_random_operators():
    # random operators with entries of one sign in many sizes: most digits
    # are far from zero, and the anticommutator sums two products over
    # different denominators
    rng = random.Random(5)
    values = (1, 2, QQ(1, 2), QQ(7, 3), 10 ** 20 + 7, 3 ** 40)
    for _ in range(60):
        n_max = rng.randint(1, 4)
        dims = [rng.randint(0, 4) for _ in range(n_max + 1)]
        sign = rng.choice((1, -1))

        def operator(rows, cols):
            return SparseMatrix(rows, cols, [
                (r, c, sign * rng.choice(values)) for r in range(rows)
                for c in range(cols) if rng.random() < 0.7])

        mc = MixedComplex(
            n_max, [ChainSpace(d) for d in dims],
            {n: operator(dims[n - 1], dims[n]) for n in range(1, n_max + 1)},
            {n: operator(dims[n + 1], dims[n]) for n in range(n_max)})
        assert_report_matches_reference(mc)


def count_products(monkeypatch):
    """A list that gets one item per SparseMatrix product formed."""
    formed = []
    matmul = SparseMatrix.__matmul__

    def counting(self, other):
        formed.append(None)
        return matmul(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    return formed


def test_identities_on_cyclic4_form_no_product(monkeypatch):
    # every packed column of C(Q[Z/4]) through degree 4 is narrower than
    # PACK_BITS, so the whole check runs on packed ints
    a = cli.parse_algebra_file(DATA / "cyclic4.json")
    mc = build_mixed_complex(a, 4)
    formed = count_products(monkeypatch)
    assert verify_mixed_identities(mc).all_pass
    assert formed == []


@pytest.mark.parametrize("pack_bits", [0, 120])
@pytest.mark.parametrize("name", ["cyclic4", "mat2", "random_dim3"])
def test_wide_columns_are_decided_from_products(monkeypatch, name,
                                                 pack_bits):
    # with PACK_BITS lowered, every sum (0) or only the ones on the larger
    # chain spaces (120) is decided from @ and +, and the report still
    # equals the reference, also with one entry bumped
    a = cli.parse_algebra_file(DATA / f"{name}.json")
    mc = build_mixed_complex(a, 4)
    rng = random.Random(pack_bits)
    monkeypatch.setattr(mixed, "PACK_BITS", pack_bits)
    formed = count_products(monkeypatch)
    assert assert_report_matches_reference(mc).all_pass
    # the reference forms 13 products itself, and the check 13 at most
    checked = len(formed) - 13
    assert checked == 13 if pack_bits == 0 else 0 < checked < 13
    for value in BUMPS:
        assert_report_matches_reference(bumped(mc, rng, value))


def test_induced_chain_map_commutes_with_differentials():
    # the corner inclusion sends 1 to an idempotent: the map runs from
    # Omega of the Hecke algebra to C(Q[S3])
    g, k = s3_hecke_pair()
    incl = hecke_inclusion(g, k, (g.identity,), hecke_algebra(g, k),
                           hecke_algebra(g, (g.identity,)))
    hecke = incl.source
    maps = induced_chain_map(incl, 2)
    src = build_mixed_complex(forget_unit(hecke), 2)
    dst = build_mixed_complex(group_algebra(g), 2)
    for n in (1, 2):
        assert maps[n - 1] @ src.b_tilde[n] == dst.b_tilde[n] @ maps[n]
    for n in (0, 1):
        assert maps[n + 1] @ src.B_tilde[n] == dst.B_tilde[n] @ maps[n]


def test_induced_chain_map_functorial():
    g, k = s3_hecke_pair()
    full = list(range(g.order))
    triv = [g.identity]
    h_full, h_k, h_triv = (hecke_algebra(g, s) for s in (full, k, triv))
    step1 = hecke_inclusion(g, full, k, h_full, h_k)
    step2 = hecke_inclusion(g, k, triv, h_k, h_triv)
    direct = hecke_inclusion(g, full, triv, h_full, h_triv)
    composed = step2.compose(step1)
    assert composed.matrix == direct.matrix
    # Omega(A_1) -> Omega(A_2) -> C(A_3): the middle algebra's unit is
    # forgotten on the first map's side, where it is the target
    into_omega = AlgebraHom(step1.source, forget_unit(step1.target),
                            step1.matrix)
    m_direct = induced_chain_map(direct, 2)
    m1 = induced_chain_map(into_omega, 2)
    m2 = induced_chain_map(step2, 2)
    for n in (0, 1, 2):
        assert m_direct[n] == m2[n] @ m1[n]


def test_induced_chain_map_requires_multiplicative():
    # induced_chain_map trusts its map: the tower that supplies it validates
    # every stage map first, and composites of algebra maps are algebra maps
    a = dual_numbers()
    doubled = SparseMatrix.from_dense([[2, 0], [0, 2]])
    f = AlgebraHom(a, a, doubled)
    with pytest.raises(ValidationError,
                       match="hom fails multiplicativity on basis pair"):
        DirectSystem([a, a], [f])


@pytest.mark.parametrize("path", DATA_ALGEBRAS, ids=lambda p: p.stem)
def test_B_bound_keeps_every_operator_below_it(path):
    # the rank commands build B~ through n_max - 2; every b~ and each of
    # B~_0 .. B~_{n_max-2} is the default build's, on C(A) and Omega(A)
    a = cli.parse_algebra_file(path)
    for algebra in (a, forget_unit(a)):
        whole = build_mixed_complex(algebra, 5)
        bounded = build_mixed_complex(algebra, 5, 3)
        assert sorted(whole.B_tilde) == [0, 1, 2, 3, 4]
        assert sorted(bounded.B_tilde) == [0, 1, 2, 3]
        assert bounded.b_tilde == whole.b_tilde
        assert all(bounded.B_tilde[n] == whole.B_tilde[n] for n in range(4))
        assert [s.dim for s in bounded.spaces] == \
            [s.dim for s in whole.spaces]


def test_size_cap_refuses_oversized_build(algebras):
    with pytest.raises(SizeCapExceeded,
                       match="chain space in degree 12 has"):
        build_mixed_complex(algebras["m2q"], 12)


def _assert_same_store(got, want):
    assert got.shape == want.shape
    assert rational_store(got) == rational_store(want)
    assert got == want
    assert_canonical(got)


def _assert_same_complex(mc, b_ref, B_ref):
    assert mc.b_tilde.keys() == b_ref.keys()
    assert mc.B_tilde.keys() == B_ref.keys()
    for n in b_ref:
        _assert_same_store(mc.b_tilde[n], b_ref[n])
    for n in B_ref:
        _assert_same_store(mc.B_tilde[n], B_ref[n])


def _cross_check(a):
    """C(A) through degree 4 equals the normalized reference, and Omega(A)
    through degree 3 the reference assembled from b, b', lambda and N,
    entry for entry."""
    _assert_same_complex(build_mixed_complex(a, 4),
                         *reference_mixed.normalized_differentials(a, 4))
    _assert_same_complex(build_mixed_complex(forget_unit(a), 3),
                         *reference_mixed.mixed_differentials(a, 3))


@pytest.mark.parametrize("path", DATA_ALGEBRAS, ids=lambda p: p.stem)
def test_operators_match_tuple_reference_on_data(path):
    a = cli.parse_algebra_file(path)
    for variant in basis_variants(a, DATA_ALGEBRAS.index(path)):
        _cross_check(variant)


def test_operators_match_tuple_reference_on_fixtures(algebras):
    for i, name in enumerate(sorted(algebras)):
        for variant in basis_variants(algebras[name], i):
            _cross_check(variant)


# HH and HC through this degree; at 3 the rational-basis variant of
# cyclic4.json already takes ~2.4 s, so the grid stops there
NORMALIZED_EQUALS_OMEGA_DEGREE = 3


@pytest.mark.parametrize("variant", range(3))
@pytest.mark.parametrize("path", DATA_ALGEBRAS, ids=lambda p: p.stem)
def test_normalized_and_omega_give_equal_dimensions(path, variant):
    # for a unital A, A~ = unitize(A) is isomorphic to A x Q as an
    # algebra, and Omega(A), the reduced complex of A~, has the homology
    # of A; C(A) has it by definition
    a = cli.parse_algebra_file(path)
    a = basis_variants(a, DATA_ALGEBRAS.index(path))[variant]
    top = NORMALIZED_EQUALS_OMEGA_DEGREE
    normalized = build_mixed_complex(a, top + 1)
    omega = build_mixed_complex(forget_unit(a), top + 1)
    for compute in (hochschild_homology, cyclic_homology):
        assert compute(normalized, top).dims == \
            compute(omega, top).dims, compute.__name__
