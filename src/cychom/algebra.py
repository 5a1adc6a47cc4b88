"""Finite-dimensional associative algebras, homomorphisms and finite groups.

Algebras are given by structure constants over exact rationals: e_i e_j =
sum_k c_{ij}^k e_k with an optional unit vector.  Constructors cover
unitization, matrix algebras M_n(A), group algebras, double-coset algebras of
a finite group pair (G, K) under convolution, and direct sums.
"""

from itertools import permutations
from math import lcm

from .errors import ValidationError
from .linalg import ONE, QQ, SparseMatrix, as_rational, invert, rank, vec_eq


class Algebra:
    """A finite-dimensional associative algebra over Q by structure constants.

    table maps a basis-index pair (i, j) to a dict {k: coefficient} giving the
    expansion of e_i * e_j; absent pairs and absent k's mean zero.  unit, when
    present, is a sparse coordinate dict and is verified to be two-sided.
    Associativity is not checked at construction (it costs dim^3 products);
    call check_associativity, as the file loaders do.
    """

    __slots__ = ("dim", "basis_labels", "table", "unit")

    def __init__(self, dim, table, unit=None, basis_labels=None):
        if dim < 0:
            raise ValidationError("negative dimension")
        self.dim = dim
        clean = {}
        for (i, j), terms in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValidationError(f"structure constant index ({i}, {j}) out of range")
            vec = {}
            for k, c in terms.items():
                if not 0 <= k < dim:
                    raise ValidationError(f"structure constant target {k} out of range")
                c = as_rational(c)
                if c:
                    vec[k] = c
            if vec:
                clean[(i, j)] = vec
        self.table = clean
        if basis_labels is None:
            basis_labels = tuple(f"e{i}" for i in range(dim))
        if len(basis_labels) != dim:
            raise ValidationError("wrong number of basis labels")
        self.basis_labels = tuple(basis_labels)
        if unit is not None:
            unit = {k: as_rational(c) for k, c in unit.items() if as_rational(c)}
            for i in range(dim):
                e = {i: ONE}
                if not (vec_eq(self.multiply(unit, e), e)
                        and vec_eq(self.multiply(e, unit), e)):
                    raise ValidationError(f"claimed unit fails on basis element {i}")
        self.unit = unit

    def product(self, i, j):
        """e_i * e_j as a sparse coordinate dict."""
        return self.table.get((i, j), {})

    def multiply(self, u, v):
        """Product of two elements given as sparse coordinate dicts."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                coeff = a * b
                for k, c in self.product(i, j).items():
                    s = out.get(k, QQ(0)) + coeff * c
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    def is_unital(self):
        return self.unit is not None

    def __repr__(self):
        return f"Algebra(dim={self.dim}, unital={self.is_unital()})"


def check_associativity(a):
    """Verify (e_i e_j) e_k = e_i (e_j e_k) for all dim^3 triples.

    Returns None when every triple associates, else the first failing
    triple (i, j, k) in lexicographic order.  The table is scaled once to
    ints t = L c, L the lcm of its denominators; the difference of the two
    sides of a triple is then L^2 times the rational one, summed in ints.
    """
    den = lcm(*[c.denominator for vec in a.table.values()
                for c in vec.values()])
    t = [[[(k, c.numerator * (den // c.denominator))
           for k, c in a.product(i, j).items()] for j in range(a.dim)]
         for i in range(a.dim)]
    for i, row in enumerate(t):
        for j, left_ij in enumerate(row):
            for k in range(a.dim):
                diff = {}
                for m, c in left_ij:
                    for x, v in t[m][k]:
                        diff[x] = diff.get(x, 0) + c * v
                for m, c in t[j][k]:
                    for x, v in row[m]:
                        diff[x] = diff.get(x, 0) - c * v
                if any(diff.values()):
                    return i, j, k
    return None


def unitize(a):
    """The unitization A~ = A (+) Q: A keeps its basis, and the new unit is
    the last basis vector, index a.dim.

    The new element is the unit even when A already had one.
    """
    d = a.dim
    table = dict(a.table)
    for i in range(d):
        table[(d, i)] = {i: ONE}
        table[(i, d)] = {i: ONE}
    table[(d, d)] = {d: ONE}
    labels = tuple(a.basis_labels) + ("one",)
    return Algebra(d + 1, table, unit={d: ONE}, basis_labels=labels)


def forget_unit(a):
    """The algebra a with no unit recorded: same basis and table."""
    return Algebra(a.dim, a.table, basis_labels=a.basis_labels)


def matrix_algebra(a, n):
    """M_n(A): basis e_pq (x) a_i at index (p*n + q)*dim(A) + i."""
    d = n * n * a.dim

    def idx(p, q, i):
        return (p * n + q) * a.dim + i

    table = {}
    for p in range(n):
        for q in range(n):
            for s in range(n):
                for (i, j), vec in a.table.items():
                    table[(idx(p, q, i), idx(q, s, j))] = {
                        idx(p, s, k): c for k, c in vec.items()}
    labels = tuple(f"e{p}{q}:{a.basis_labels[i]}"
                   for p in range(n) for q in range(n) for i in range(a.dim))
    unit = None
    if a.unit is not None:
        unit = {}
        for p in range(n):
            for i, c in a.unit.items():
                unit[idx(p, p, i)] = c
    return Algebra(d, table, unit=unit, basis_labels=labels)


def direct_sum(a, b):
    """A + B with products across the summands equal to zero."""
    table = {}
    for (i, j), vec in a.table.items():
        table[(i, j)] = dict(vec)
    for (i, j), vec in b.table.items():
        table[(i + a.dim, j + a.dim)] = {k + a.dim: c for k, c in vec.items()}
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = dict(a.unit)
        for k, c in b.unit.items():
            unit[k + a.dim] = c
    labels = tuple(f"l:{x}" for x in a.basis_labels) + \
        tuple(f"r:{x}" for x in b.basis_labels)
    return Algebra(a.dim + b.dim, table, unit=unit, basis_labels=labels)


def change_of_basis(a, s):
    """The same algebra expressed in the basis given by the columns of s."""
    s_inv = invert(s)
    if s_inv is None:
        raise ValidationError("change of basis matrix is singular")
    cols = s.columns()
    table = {}
    for q in range(a.dim):
        for r in range(a.dim):
            prod = a.multiply(cols[q], cols[r])
            new = s_inv.apply(prod)
            if new:
                table[(q, r)] = new
    unit = s_inv.apply(a.unit) if a.unit is not None else None
    return Algebra(a.dim, table, unit=unit,
                   basis_labels=tuple(f"f{i}" for i in range(a.dim)))


class AlgebraHom:
    """A linear map of algebras given by a dim(target) x dim(source) matrix.

    Multiplicativity is a checkable invariant (validate()); units need not map
    to units, since corner inclusions like the double-coset algebras send the
    unit to an idempotent.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.shape != (target.dim, source.dim):
            raise ValidationError("hom matrix shape does not match algebras")

    def apply(self, vec):
        return self.matrix.apply(vec)

    def validate(self):
        """Check f(e_i e_j) = f(e_i) f(e_j) on all basis pairs."""
        cols = self.matrix.columns()
        for i in range(self.source.dim):
            for j in range(self.source.dim):
                lhs = self.apply(self.source.product(i, j))
                rhs = self.target.multiply(cols[i], cols[j])
                if not vec_eq(lhs, rhs):
                    raise ValidationError(
                        f"hom fails multiplicativity on basis pair ({i}, {j})")
        return True

    def is_injective(self):
        return rank(self.matrix) == self.source.dim

    def compose(self, other):
        """self . other (apply other first)."""
        if other.target.dim != self.source.dim:
            raise ValidationError("homs not composable")
        return AlgebraHom(other.source, self.target, self.matrix @ other.matrix)


class FiniteGroup:
    """A finite group as a multiplication table over element indices."""

    __slots__ = ("order", "table", "identity", "element_names")

    def __init__(self, table, element_names=None, validate=True):
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        if element_names is None:
            element_names = tuple(f"g{i}" for i in range(self.order))
        self.element_names = tuple(element_names)
        ident = None
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.order)):
                ident = e
                break
        if ident is None:
            raise ValidationError("multiplication table has no identity")
        self.identity = ident
        if validate:
            self._validate()

    def _validate(self):
        n = self.order
        for row in self.table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise ValidationError("multiplication table is not a Latin square")
        for j in range(n):
            if sorted(self.table[i][j] for i in range(n)) != list(range(n)):
                raise ValidationError("multiplication table is not a Latin square")
        for i in range(n):
            for j in range(n):
                tij = self.table[i][j]
                for k in range(n):
                    if self.table[tij][k] != self.table[i][self.table[j][k]]:
                        raise ValidationError(
                            f"multiplication table not associative at ({i},{j},{k})")

    def inverse(self, i):
        return self.table[i].index(self.identity)

    def is_subgroup(self, subset):
        elems = set(subset)
        if not all(isinstance(a, int) and 0 <= a < self.order for a in elems):
            return False
        if self.identity not in elems:
            return False
        for a in elems:
            if self.inverse(a) not in elems:
                return False
            for b in elems:
                if self.table[a][b] not in elems:
                    return False
        return True

    def conjugacy_classes(self):
        """Sorted tuple of sorted tuples partitioning the elements."""
        seen = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            orbit = {self.table[self.table[h][g]][self.inverse(h)]
                     for h in range(self.order)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        return tuple(sorted(classes))

    @classmethod
    def cyclic(cls, k):
        table = [[(i + j) % k for j in range(k)] for i in range(k)]
        names = [f"t{i}" for i in range(k)]
        return cls(table, element_names=names, validate=False)

    @classmethod
    def symmetric(cls, n):
        """S_n on {0..n-1}; elements are permutation tuples in sorted order."""
        elems = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(elems)}
        table = [[index[tuple(p[q[i]] for i in range(n))] for q in elems]
                 for p in elems]
        names = ["".join(map(str, p)) for p in elems]
        return cls(table, element_names=names, validate=False)


def symmetric_group_with_perms(n):
    """S_n together with its permutation tuples, aligned with element order."""
    g = FiniteGroup.symmetric(n)
    perms = tuple(sorted(permutations(range(n))))
    return g, perms


def group_algebra(g):
    """The group algebra Q[G]: basis = group elements, convolution product."""
    table = {(i, j): {g.table[i][j]: ONE}
             for i in range(g.order) for j in range(g.order)}
    return Algebra(g.order, table, unit={g.identity: ONE},
                   basis_labels=g.element_names)


def double_cosets(g, k_elems):
    """The partition of G into K\\G/K double cosets, discovery-ordered.

    Discovery order scans elements ascending, so cosets are ordered by their
    minimal element; the coset of the identity (= K itself) comes first.
    """
    k_set = sorted(set(k_elems))
    assigned = {}
    cosets = []
    for x in range(g.order):
        if x in assigned:
            continue
        coset = sorted({g.table[g.table[a][x]][b] for a in k_set for b in k_set})
        idx = len(cosets)
        cosets.append(tuple(coset))
        for y in coset:
            assigned[y] = idx
    return tuple(cosets)


def hecke_algebra(g, k_elems):
    """The convolution algebra of K-bi-invariant functions on G.

    Basis element for a double coset D is the indicator of D divided by |K|;
    this normalization makes the inclusion into the group algebra
    multiplicative (it is the corner e_K Q[G] e_K, with e_K the averaging
    idempotent of K) and non-unital in general; hecke_inclusion(G, K, {e})
    is that inclusion.  For K = {e} it is Q[G], with the same table and
    unit as group_algebra(G).

    The product of two K-bi-invariant functions is K-bi-invariant, so it
    is constant on each double coset, and the double cosets partition G.
    So the coefficient of D_d in D_i * D_j is read at one point, the least
    element r_d of D_d: it is #{(x, y) in D_i x D_j : xy = r_d} / |K|.  The
    pairs are counted in ints, y = x^{-1} r_d for each x in D_i.
    """
    if not g.is_subgroup(k_elems):
        raise ValidationError(f"{sorted(set(k_elems))} is not a subgroup")
    k_size = len(set(k_elems))
    cosets = double_cosets(g, k_elems)
    coset_of = {x: d for d, coset in enumerate(cosets) for x in coset}
    counts = {}
    for i, coset in enumerate(cosets):
        inverses = [g.inverse(x) for x in coset]
        for d, other in enumerate(cosets):
            for x_inv in inverses:
                key = (i, coset_of[g.table[x_inv][other[0]]], d)
                counts[key] = counts.get(key, 0) + 1
    table = {}
    for (i, j, d), count in sorted(counts.items()):
        table.setdefault((i, j), {})[d] = QQ(count, k_size)
    labels = tuple(f"K{g.element_names[c[0]]}K" for c in cosets)
    return Algebra(len(cosets), table, unit={coset_of[g.identity]: ONE},
                   basis_labels=labels)


def hecke_inclusion(g, k_elems, kp_elems, source, target):
    """The inclusion source = hecke(G, K) -> target = hecke(G, K'), K' <= K.

    On functions this is the identity; in double-coset bases the basis element
    of a K-coset D expands over the K'-cosets D' contained in D with
    coefficient |K'|/|K|.
    """
    k_set, kp_set = set(k_elems), set(kp_elems)
    if not kp_set <= k_set:
        raise ValidationError("K' is not contained in K")
    big = double_cosets(g, k_elems)
    small = double_cosets(g, kp_elems)
    small_of = {}
    for d, coset in enumerate(small):
        for x in coset:
            small_of[x] = d
    coeff = QQ(len(kp_set)) / len(k_set)
    entries = []
    for dbig, coset in enumerate(big):
        inside = sorted({small_of[x] for x in coset})
        entries.extend((dsm, dbig, coeff) for dsm in inside)
    return AlgebraHom(source, target, SparseMatrix(target.dim, source.dim, entries))
