"""Shared fixtures: the standard algebra suite and cached heavy objects.

Mixed complexes and homology reports are the expensive objects, so they are
built once per session at a canonical depth per algebra and shared across
test modules.
"""

import random
from math import gcd

import pytest

from cychom.algebra import (AlgebraHom, FiniteGroup, change_of_basis,
                            group_algebra, hecke_algebra, matrix_algebra,
                            symmetric_group_with_perms)
from cychom.catalog import dual_numbers, ground_field, scrambled_dim3
from cychom.homology import (TotChainIndex, cyclic_homology,
                             hochschild_homology, omega_complex,
                             total_components)
from cychom.linalg import SparseMatrix
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


def split_flat(mc, n, flat):
    """The Tot_n chain of a flat vector, split into its C_q summands."""
    components, at = {}, 0
    for q in total_components(n):
        dim = mc.spaces[q].dim
        part = {i - at: v for i, v in flat.items() if at <= i < at + dim and v}
        if part:
            components[q] = part
        at += dim
    return TotChainIndex(n, components)


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


def hh_dims(a, max_degree):
    """HH_0 .. HH_{max_degree} of a on Omega(A), as the hh command ranks."""
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
    """Callable (name, n_max=None) -> Omega of depth >= n_max, the complex
    the hh and hc commands build."""
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
