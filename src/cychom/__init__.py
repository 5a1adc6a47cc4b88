"""cychom: exact-arithmetic Hochschild, cyclic and periodic cyclic homology.

A workbench for finite-dimensional associative algebras over the rationals:
builds Connes' normalized mixed complex, or the complex of noncommutative
differential forms, as exact sparse matrices, computes HH/HC dimensions by
rank, reports HP only behind a certificate that Hochschild homology vanishes,
verifies continuity along finite towers of algebra inclusions, and computes
invariant Betti numbers of torus quotients.
"""

__version__ = "0.1.0"
