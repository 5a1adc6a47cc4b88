"""Finite-dimensional associative algebras, homomorphisms and finite groups.

Algebras are given by structure constants over Q: e_i e_j = sum_k c_{ij}^k
e_k with an optional unit vector.  They are stored as SparseMatrix stores
its entries, nonzero ints over one positive denominator, so checks and
the operator tables of mixed.py run on ints; product and multiply are the
rational view.  Constructors cover unitization, matrix algebras M_n(A),
group algebras, double-coset algebras of a finite group pair (G, K) under
convolution, and direct sums; all but change_of_basis build the integer
store directly.
"""

from itertools import permutations
from math import gcd, lcm

from .errors import ValidationError
from .linalg import ONE, QQ, SparseMatrix, as_rational, invert, rank


def _combination(terms):
    """sum_t c_t v_t over the pairs (c_t, v_t), v_t sparse int dicts, with
    zero sums dropped."""
    out = {}
    for c, vec in terms:
        for k, v in vec.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


class Algebra:
    """A finite-dimensional associative algebra over Q by structure constants.

    table maps a basis-index pair (i, j) to a dict {k: nonzero int}, and
    c_{ij}^k = table[i, j][k] / den; absent pairs and absent k's mean zero.
    The store is canonical as a SparseMatrix's is (den >= 1, the gcd of den
    and every stored int is 1, den == 1 for an empty table), so equal
    algebras over Q have equal stores.  product and multiply are the
    rational view.  unit, when present, is a sparse coordinate dict of
    rationals and is verified to be two-sided, in ints.  Associativity is
    not checked at construction (it costs dim^3 products); call
    check_associativity, as the file loaders do.

    The constructor takes the constants as rationals (ints, 'p/q' strings
    or Fractions; floats are refused) and range-checks every index.
    """

    __slots__ = ("dim", "basis_labels", "table", "den", "unit")

    def __init__(self, dim, table, unit=None, basis_labels=None):
        if dim < 0:
            raise ValidationError("negative dimension")
        clean = {}
        for (i, j), terms in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValidationError(f"structure constant index ({i}, {j}) out of range")
            vec = {}
            for k, c in terms.items():
                if not 0 <= k < dim:
                    raise ValidationError(f"structure constant target {k} out of range")
                if type(c) is not QQ:
                    c = as_rational(c)
                if c:
                    vec[k] = c
            if vec:
                clean[(i, j)] = vec
        den = lcm(*[c.denominator for vec in clean.values()
                    for c in vec.values()])
        ints = {key: {k: c.numerator * (den // c.denominator)
                      for k, c in vec.items()} for key, vec in clean.items()}
        if basis_labels is None:
            basis_labels = tuple(f"e{i}" for i in range(dim))
        if len(basis_labels) != dim:
            raise ValidationError("wrong number of basis labels")
        if unit is not None:
            unit = {k: q for k, c in unit.items() if (q := as_rational(c))}
        self._store(dim, ints, den, unit, basis_labels)

    def _store(self, dim, table, den, unit, basis_labels):
        if den != 1:
            g = gcd(den, *[v for vec in table.values() for v in vec.values()])
            if g != 1:
                den //= g
                table = {key: {k: v // g for k, v in vec.items()}
                         for key, vec in table.items()}
        self.dim = dim
        self.table = table
        self.den = den
        self.basis_labels = tuple(basis_labels)
        self.unit = unit
        if unit is not None:
            self._check_unit()

    @classmethod
    def _trusted(cls, dim, table, den, unit, basis_labels):
        """The algebra with constants table[i, j][k] / den, for table a dict
        {(i, j): {k: nonzero int}} with every index in range, den > 0 and
        dim labels.

        __init__ checks every index and coefficient; each caller builds a
        table that meets these by construction.  Only the common factor of
        den and the table is divided out here, and the unit is still
        checked.
        """
        a = cls.__new__(cls)
        a._store(dim, table, den, unit, basis_labels)
        return a

    def integer_unit(self):
        """(p, q) with unit = sum_k p_k e_k / q, q the lcm of its
        denominators."""
        q = lcm(*[c.denominator for c in self.unit.values()])
        return {k: c.numerator * (q // c.denominator)
                for k, c in self.unit.items()}, q

    def _check_unit(self):
        """Raise unless unit e_i = e_i = e_i unit for every i.  With t the
        table, unit e_i = sum_k p_k t[k, i] / (q den), so it is e_i exactly
        when sum_k p_k t[k, i] = q den e_i; likewise on the right."""
        p, q = self.integer_unit()
        get = self.table.get
        for i in range(self.dim):
            want = {i: q * self.den}
            left = _combination((c, get((k, i), {})) for k, c in p.items())
            right = _combination((c, get((i, k), {})) for k, c in p.items())
            if left != want or right != want:
                raise ValidationError(f"claimed unit fails on basis element {i}")

    def product(self, i, j):
        """e_i * e_j as a sparse coordinate dict of rationals."""
        return {k: QQ(c, self.den)
                for k, c in self.table.get((i, j), {}).items()}

    def multiply(self, u, v):
        """Product of two elements given as sparse coordinate dicts."""
        get = self.table.get
        out = _combination((a * b, get((i, j), {}))
                           for i, a in u.items() for j, b in v.items())
        return {k: QQ(s, self.den) for k, s in out.items()}

    def is_unital(self):
        return self.unit is not None

    def __repr__(self):
        return f"Algebra(dim={self.dim}, unital={self.is_unital()})"


def check_associativity(a):
    """Verify (e_i e_j) e_k = e_i (e_j e_k) for all dim^3 triples.

    Returns None when every triple associates, else the first failing
    triple (i, j, k) in lexicographic order.  The table holds den times
    each constant, so the difference of the two sides of a triple, summed
    in its ints, is den^2 times the rational one.
    """
    t = [[tuple(a.table.get((i, j), {}).items()) for j in range(a.dim)]
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

    The new element is the unit even when A already had one.  Its products
    are e_i and go over A's den as den e_i.
    """
    d, den = a.dim, a.den
    table = dict(a.table)
    for i in range(d):
        table[(d, i)] = {i: den}
        table[(i, d)] = {i: den}
    table[(d, d)] = {d: den}
    labels = tuple(a.basis_labels) + ("one",)
    return Algebra._trusted(d + 1, table, den, {d: ONE}, labels)


def forget_unit(a):
    """The algebra a with no unit recorded: same basis and table."""
    return Algebra._trusted(a.dim, a.table, a.den, None, a.basis_labels)


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
    return Algebra._trusted(d, table, a.den, unit, labels)


def direct_sum(a, b):
    """A + B with products across the summands equal to zero, over the lcm
    of the summands' denominators."""
    den = lcm(a.den, b.den)
    up_a, up_b = den // a.den, den // b.den
    table = {key: {k: c * up_a for k, c in vec.items()}
             for key, vec in a.table.items()}
    for (i, j), vec in b.table.items():
        table[(i + a.dim, j + a.dim)] = {k + a.dim: c * up_b
                                         for k, c in vec.items()}
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = dict(a.unit)
        for k, c in b.unit.items():
            unit[k + a.dim] = c
    labels = tuple(f"l:{x}" for x in a.basis_labels) + \
        tuple(f"r:{x}" for x in b.basis_labels)
    return Algebra._trusted(a.dim + b.dim, table, den, unit, labels)


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
        """Check f(e_i e_j) = f(e_i) f(e_j) on all basis pairs, in ints.

        With s and t the source's and target's tables and M = f.matrix,
        f(e_i e_j) = sum_k s[i,j][k] M[:,k] / (s.den M.den) and f(e_i) f(e_j)
        = sum_{k,l} M[k,i] M[l,j] t[k,l] / (M.den^2 t.den).  Times
        s.den M.den^2 t.den, the two sides are compared as
        sum_k s[i,j][k] M[:,k] M.den t.den and
        sum_{k,l} M[k,i] M[l,j] t[k,l] s.den.
        """
        m, source, target = self.matrix, self.source, self.target
        cols = m.integer_columns()
        scale = m.den * target.den
        s, t = source.table.get, target.table.get
        for i in range(source.dim):
            for j in range(source.dim):
                lhs = _combination((c * scale, cols[k])
                                   for k, c in s((i, j), {}).items())
                rhs = _combination((a * b * source.den, t((k, l), {}))
                                   for k, a in cols[i].items()
                                   for l, b in cols[j].items())
                if lhs != rhs:
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
    table = {(i, j): {g.table[i][j]: 1}
             for i in range(g.order) for j in range(g.order)}
    return Algebra._trusted(g.order, table, 1, {g.identity: ONE},
                            g.element_names)


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
    pairs are counted in ints, y = x^{-1} r_d for each x in D_i, and the
    counts are the table over den = |K|.
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
        table.setdefault((i, j), {})[d] = count
    labels = tuple(f"K{g.element_names[c[0]]}K" for c in cosets)
    return Algebra._trusted(len(cosets), table, k_size,
                            {coset_of[g.identity]: ONE}, labels)


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
    # |K'| over |K| at each (small coset, big coset) pair, once, and both
    # indices in range of the cosets; AlgebraHom checks the shape against
    # source and target
    data = {}
    for dbig, coset in enumerate(big):
        for dsm in sorted({small_of[x] for x in coset}):
            data[(dsm, dbig)] = len(kp_set)
    matrix = SparseMatrix._trusted(len(small), len(big), data, len(k_set))
    return AlgebraHom(source, target, matrix)
