"""Certificates, periodic dimensions, and an honest obstruction.

Two small algebras side by side: the group algebra Q[Z/3], whose
Hochschild homology vanishes in positive degrees and whose periodic
dimensions are therefore certified, and the dual numbers Q[x]/(x^2),
which never stabilize and where the lift of the class of x hits a
genuine obstruction.
"""

from cychom.catalog import cyclic_group_rationals, dual_numbers
from cychom.errors import NoCertificate
from cychom.homology import (ObstructedLift, TotChainIndex,
                             hochschild_and_cyclic, lift_to_periodic,
                             periodic_via_stabilization)
from cychom.linalg import QQ
from cychom.mixed import build_mixed_complex


def show(name, algebra, max_degree=5):
    mc = build_mixed_complex(algebra, max_degree + 1)
    hh, hc = hochschild_and_cyclic(mc, max_degree)
    print(f"{name}: HH dims {hh.dims}")
    try:
        hp, = periodic_via_stabilization([hh], [hc])
    except NoCertificate as e:
        print(f"{name}: HP refused ({e})")
        return mc
    cert = hp.certificate
    print(f"{name}: HP (even, odd) = {hp.dims}, certified by vanishing "
          f"above degree {cert.vanishing_bound}, read at degrees "
          f"({cert.even_degree}, {cert.odd_degree})")
    return mc


def main():
    show("Q[Z/3]", cyclic_group_rationals(3))
    print()
    mc = show("dual numbers", dual_numbers())
    # the class of x in Tot_0 = A cannot extend past the first square
    x_class = TotChainIndex(0, {0: {1: QQ(1)}})
    result = lift_to_periodic(x_class, mc)
    assert isinstance(result, ObstructedLift)
    print(f"dual numbers: lifting the class of x obstructs at degree "
          f"{result.degree}; the witness cycle in degree "
          f"{result.witness_degree} is {result.witness} and is not a "
          f"boundary, which certifies nonzero homology there")


if __name__ == "__main__":
    main()
