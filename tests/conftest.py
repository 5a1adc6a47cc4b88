"""Shared fixtures: the standard algebra suite and cached heavy objects.

Mixed complexes and homology reports are the expensive objects, so they are
built once per session at a canonical depth per algebra and shared across
test modules.
"""

import random
from math import gcd

import pytest

from cychom.algebra import (AlgebraHom, FiniteGroup, change_of_basis,
                            forget_unit, group_algebra, hecke_algebra,
                            matrix_algebra, symmetric_group_with_perms)
from cychom.catalog import dual_numbers, ground_field, scrambled_dim3
from cychom.homology import (cyclic_homology, hochschild_homology,
                             report_from_pivots, total_differential)
from cychom.linalg import SparseMatrix, pivot_columns
from cychom.mixed import build_mixed_complex
from cychom.towers import DirectSystem

# depth each named algebra is built to when first requested; rand3 has a
# dense scrambled table, so deep eliminations are kept off its menu
CANONICAL_NMAX = {
    "ground": 6,
    "dual": 6,
    "z2": 6,
    "z3": 6,
    "z4": 6,
    "m2q": 6,
    "hecke_s3_s2": 6,
    "rand3": 5,
}


def rational_store(m):
    """m's entries as {(row, col): Fraction}, zeros absent."""
    return {(r, c): v for r, c, v in m.entries()}


def assert_canonical(m):
    """m stores nonzero ints, in range, over den >= 1 with no factor common
    to den and all of them; so the zero matrix has den == 1."""
    assert type(m.den) is int and m.den >= 1
    assert all(type(v) is int and v for v in m.data.values())
    assert all(0 <= r < m.rows and 0 <= c < m.cols for r, c in m.data)
    assert gcd(m.den, *m.data.values()) == 1
    assert m.data or m.den == 1


def omega_complex(a, n_max):
    """Omega(A) through degree n_max, built with A's unit forgotten, as an
    earlier tower stage builds it.  For a unital A it has (d+1) d^n cells
    in degree n where C(A), which the commands rank, has d (d-1)^n, and the
    same homology."""
    return build_mixed_complex(forget_unit(a), n_max)


def ranked_one_by_one(mc, max_degree):
    """(HH report, HC report) from the pivot columns of the whole b~_n and
    the whole D_n, each eliminated on its own: a reference for
    hochschild_and_cyclic, which every command ranks through, and which
    reads b~_n off D_n and drops rows of D_n."""
    b = [()] + [tuple(pivot_columns(mc.b_tilde[n]))
                for n in range(1, max_degree + 2)]
    d = [()] + [tuple(pivot_columns(total_differential(mc, n)))
                for n in range(1, max_degree + 2)]
    return (report_from_pivots(mc, "HH", max_degree, b),
            report_from_pivots(mc, "HC", max_degree, d))


def hh_dims(a, max_degree):
    """HH_0 .. HH_{max_degree} of a on Omega(A): the same dimensions the hh
    command reads off C(A), by a second complex."""
    return hochschild_homology(omega_complex(a, max_degree + 1),
                               max_degree).dims


def basis_variants(a, seed):
    """a, a with seeded basis signs f_i = +-e_i, and a in a rational basis
    (its structure constants get denominators, so the ints are scaled)."""
    rng = random.Random(seed)
    flips = [rng.choice((1, -1)) for _ in range(a.dim)]
    flips[rng.randrange(a.dim)] = -1
    signs = SparseMatrix(a.dim, a.dim, ((i, i, f) for i, f in enumerate(flips)))
    entries = [(i, i, 1) for i in range(a.dim)]
    entries += [(0, a.dim - 1, "1/2"), (a.dim - 1, 0, "-1/3")]
    rational = SparseMatrix(a.dim, a.dim, entries)
    return a, change_of_basis(a, signs), change_of_basis(a, rational)


def dual_into_m2():
    """The tower Q[x]/(x^2) -> M2(Q), 1 -> e00 + e11, x -> e01: the final
    stage's HH vanishes in positive degrees, the first stage's does not."""
    m2 = matrix_algebra(ground_field(), 2)
    hom = AlgebraHom(dual_numbers(), m2,
                     SparseMatrix(4, 2, [(0, 0, 1), (3, 0, 1), (1, 1, 1)]))
    return DirectSystem([dual_numbers(), m2], [hom])


def ground_into_dual():
    """The tower Q -> Q[x]/(x^2), 1 -> 1: the first stage's HH vanishes in
    positive degrees, the final stage's does not, so the first stage makes
    an HC report that the HP step never reads."""
    dual = dual_numbers()
    hom = AlgebraHom(ground_field(), dual, SparseMatrix(2, 1, [(0, 0, 1)]))
    return DirectSystem([ground_field(), dual], [hom])


def build_named_algebra(name):
    if name == "ground":
        return ground_field()
    if name == "dual":
        return dual_numbers()
    if name in ("z2", "z3", "z4"):
        return group_algebra(FiniteGroup.cyclic(int(name[1])))
    if name == "m2q":
        return matrix_algebra(ground_field(), 2)
    if name == "hecke_s3_s2":
        g, perms = symmetric_group_with_perms(3)
        k = [i for i, p in enumerate(perms) if p[2] == 2]
        return hecke_algebra(g, k)
    if name == "rand3":
        return scrambled_dim3()
    raise KeyError(name)


@pytest.fixture(scope="session")
def algebras():
    return {name: build_named_algebra(name) for name in CANONICAL_NMAX}


@pytest.fixture(scope="session")
def mixed_complexes(algebras):
    """Callable (name, n_max=None) -> Omega of depth >= n_max, with the
    algebra's unit forgotten (omega_complex)."""
    cache = {}

    def get(name, n_max=None):
        target = CANONICAL_NMAX[name] if n_max is None else n_max
        have = cache.get(name)
        if have is None or have.n_max < target:
            cache[name] = omega_complex(
                algebras[name], max(target, CANONICAL_NMAX[name]))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def homology_reports(algebras, mixed_complexes):
    """Callable (name, theory, max_degree) -> cached report."""
    cache = {}

    def get(name, theory, max_degree):
        key = (name, theory, max_degree)
        if key not in cache:
            mc = mixed_complexes(name, max_degree + 1)
            fn = hochschild_homology if theory == "HH" else cyclic_homology
            cache[key] = fn(mc, max_degree)
        return cache[key]

    return get
