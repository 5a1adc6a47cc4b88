"""Invariant Betti numbers of torus quotients: averaging and the oracle."""

import random

import pytest

from cychom import orbifold
from cychom.errors import SizeCapExceeded, ValidationError
from cychom.orbifold import (TorusComponent, averaged_projector_rank,
                             enumerate_group, even_odd_totals,
                             invariant_betti)

SWAP2 = ((0, 1), (1, 0))
S3_GENS = (((0, 1, 0), (1, 0, 0), (0, 0, 1)),
           ((1, 0, 0), (0, 0, 1), (0, 1, 0)))


def binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_component_validation():
    with pytest.raises(ValidationError):
        TorusComponent(0, ())
    with pytest.raises(ValidationError):
        TorusComponent(2, (((1, 0),),))
    with pytest.raises(ValidationError):
        TorusComponent(1, (((1.0,),),))
    with pytest.raises(ValidationError):
        TorusComponent(1, (((True,),),))


def test_enumerate_small_groups():
    flip = TorusComponent(1, (((-1,),),))
    group = enumerate_group(flip)
    assert group == [((-1,),), ((1,),)]
    swap = TorusComponent(2, (SWAP2,))
    assert len(enumerate_group(swap)) == 2
    s3 = TorusComponent(3, S3_GENS)
    group = enumerate_group(s3)
    assert len(group) == 6
    assert group == sorted(group)
    # permutation matrices: each row and column sums to one
    for w in group:
        assert all(sum(row) == 1 for row in w)


def test_enumerate_guards():
    shear = TorusComponent(2, (((1, 1), (0, 1)),))
    with pytest.raises(SizeCapExceeded,
                       match="group closure exceeded 10080 elements"):
        enumerate_group(shear)
    stretch = TorusComponent(1, (((2,),),))
    with pytest.raises(ValidationError,
                       match="generator is not invertible over the integers"):
        enumerate_group(stretch)


def test_work_cap_refuses_before_during_and_after_enumeration(monkeypatch):
    s3 = TorusComponent(3, S3_GENS, "s3")
    # (2 generators + 1) * 3^4 = 243 before the closure, |W| * 2 * 3^3 = 324
    # during it, |W| * 3^4 = 486 for the character average
    monkeypatch.setattr(orbifold, "WORK_CAP", 242)
    with pytest.raises(SizeCapExceeded, match=r"\(generators \+ 1\)"):
        enumerate_group(s3)
    monkeypatch.setattr(orbifold, "WORK_CAP", 323)
    with pytest.raises(SizeCapExceeded, match="generators \\* rank"):
        enumerate_group(s3)
    monkeypatch.setattr(orbifold, "WORK_CAP", 485)
    assert len(enumerate_group(s3)) == 6
    with pytest.raises(SizeCapExceeded, match=r"\|W\| = 6"):
        invariant_betti(s3)
    monkeypatch.setattr(orbifold, "WORK_CAP", 486)
    assert invariant_betti(s3) == (1, 1, 0, 0)
    monkeypatch.undo()
    with pytest.raises(SizeCapExceeded, match=r"\(generators \+ 1\)"):
        invariant_betti(TorusComponent(80, ()))


def test_exterior_trace_values():
    # tr Lambda^p(w) is (-1)^p c_p, where c_p is the coefficient of t^(k-p)
    # in det(tI - w); Lambda^p is zero for p > k, where there is no c_p
    ident3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert orbifold._charpoly(ident3) == (1, -3, 3, -1)
    assert orbifold._charpoly(((-1,),)) == (1, 1)
    assert orbifold._charpoly(SWAP2) == (1, 0, -1)


def test_exterior_trace_is_minor_sum():
    # the characteristic-polynomial route agrees with literal minor sums
    w = ((2, -1, 0), (1, 1, 3), (0, -2, 1))
    for p in range(4):
        mat = None
        total = 0
        from itertools import combinations
        for s in combinations(range(3), p):
            sub = tuple(tuple(w[i][j] for j in s) for i in s)
            if p == 0:
                total += 1
            elif p == 1:
                total += sub[0][0]
            elif p == 2:
                total += sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            else:
                a, b, c = sub
                total += (a[0] * (b[1] * c[2] - b[2] * c[1])
                          - a[1] * (b[0] * c[2] - b[2] * c[0])
                          + a[2] * (b[0] * c[1] - b[1] * c[0]))
        assert (-1) ** p * orbifold._charpoly(w)[p] == total


def test_betti_known_quotients():
    assert invariant_betti(TorusComponent(1, (((-1,),),))) == (1, 0)
    assert invariant_betti(TorusComponent(2, (SWAP2,))) == (1, 1, 0)
    assert invariant_betti(TorusComponent(3, S3_GENS)) == (1, 1, 0, 0)
    assert invariant_betti(TorusComponent(2, ())) == (1, 2, 1)


def test_betti_trivial_group_binomials():
    betti = invariant_betti(TorusComponent(4, ()))
    assert betti == tuple(binomial(4, p) for p in range(5))


def test_betti_leading_entry_is_one():
    comps = [TorusComponent(1, (((-1,),),)),
             TorusComponent(2, (SWAP2, ((-1, 0), (0, -1)))),
             TorusComponent(3, S3_GENS)]
    for c in comps:
        assert invariant_betti(c)[0] == 1


def test_projector_oracle_agreement():
    comps = [TorusComponent(1, (((-1,),),)),
             TorusComponent(2, (SWAP2,)),
             TorusComponent(2, (SWAP2, ((-1, 0), (0, -1)))),
             TorusComponent(2, ()),
             TorusComponent(3, S3_GENS)]
    for c in comps:
        betti = invariant_betti(c, cross_check=True)
        elements = enumerate_group(c)
        for p in range(c.rank + 1):
            assert averaged_projector_rank(elements, p) == betti[p]


def _perm_det(w):
    from itertools import permutations
    k = len(w)
    total = 0
    for perm in permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(k):
            term *= w[i][perm[i]]
        total += term
    return total


def test_euler_identity():
    from cychom.linalg import QQ
    comps = [TorusComponent(1, (((-1,),),)),
             TorusComponent(2, (SWAP2,)),
             TorusComponent(2, (SWAP2, ((-1, 0), (0, -1)))),
             TorusComponent(3, S3_GENS)]
    for c in comps:
        betti = invariant_betti(c)
        euler = sum((-1) ** p * b for p, b in enumerate(betti))
        elements = enumerate_group(c)
        fixed = sum(_perm_det(tuple(
            tuple((1 if i == j else 0) - w[i][j] for j in range(c.rank))
            for i in range(c.rank))) for w in elements)
        assert QQ(fixed) / len(elements) == euler


def _seeded_unimodular(k, seed):
    rng = random.Random(seed)
    ops = [(rng.randrange(k), rng.randrange(k), rng.choice((1, -1, 2, -2)))
           for _ in range(10)]
    ops = [(i, j, c) for i, j, c in ops if i != j]

    def apply_ops(pairs):
        m = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for i, j, c in pairs:
            for t in range(k):
                m[i][t] += c * m[j][t]
        return tuple(tuple(row) for row in m)

    s = apply_ops(ops)
    s_inv = apply_ops([(i, j, -c) for i, j, c in reversed(ops)])
    return s, s_inv


def test_betti_basis_independence():
    from cychom.orbifold import _mat_mul
    base = TorusComponent(3, S3_GENS)
    expected = invariant_betti(base)
    for seed in (7, 20240819):
        s, s_inv = _seeded_unimodular(3, seed)
        assert _mat_mul(s, s_inv) == tuple(
            tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
        gens = tuple(_mat_mul(_mat_mul(s, g), s_inv) for g in S3_GENS)
        assert invariant_betti(TorusComponent(3, gens)) == expected


def test_even_odd_totals():
    t1_free = TorusComponent(1, (), label="circle")
    table = even_odd_totals([t1_free])
    assert (table.even, table.odd) == (1, 1)
    components = [TorusComponent(2, (SWAP2,), label="half plane"), t1_free]
    pair = even_odd_totals(components)
    assert pair.rows == ((1, 1, 0), (1, 1))
    assert (pair.even, pair.odd) == (2, 2)
    assert [c.label for c in components] == ["half plane", "circle"]
    empty = even_odd_totals([])
    assert (empty.even, empty.odd) == (0, 0)


def test_gl_rank_warning():
    comps = [TorusComponent(3, S3_GENS, label="big"),
             TorusComponent(1, (), label="small")]
    with pytest.warns(UserWarning):
        even_odd_totals(comps, gl_rank=2)
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        even_odd_totals(comps, gl_rank=3)
