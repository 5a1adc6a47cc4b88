"""Engine dimensions replayed against the independent brute-force oracle.

oracles.py shares no code with the package: it computes ranks of the
standard Hochschild complex and the cyclic quotient complex directly over
Fractions.  These tests run it live and compare, so a regression in either
route surfaces as a disagreement rather than a silently stale table.
"""

import json

import pytest

import oracles
from cychom.algebra import (FiniteGroup, group_algebra,
                            symmetric_group_with_perms)
from cychom.cli import algebra_to_doc, main

CRITERION_HH = {
    "ground": (1, 0, 0, 0, 0),
    "dual": (2, 1, 1, 1, 1),
    "z2": (2, 0, 0, 0, 0),
    "z3": (3, 0, 0, 0, 0),
    "z4": (4, 0, 0, 0, 0),
}

ORACLE_DATA = {
    "ground": oracles.ground_field(),
    "dual": oracles.dual_numbers(),
    "z2": oracles.cyclic_group_algebra(2),
    "z3": oracles.cyclic_group_algebra(3),
    "z4": oracles.cyclic_group_algebra(4),
}


def test_hh_matches_oracle_live(homology_reports):
    for name, expected in CRITERION_HH.items():
        dim, mult = ORACLE_DATA[name]
        from_oracle = tuple(oracles.hh_oracle(dim, mult, 4))
        engine = homology_reports(name, "HH", 4).dims
        assert from_oracle == expected
        assert engine == expected


def test_hc_matches_oracle_live(homology_reports):
    for name in ("ground", "dual", "z2", "z3"):
        dim, mult = ORACLE_DATA[name]
        from_oracle = tuple(oracles.hc_oracle(dim, mult, 3))
        engine = homology_reports(name, "HC", 3).dims
        assert engine == from_oracle


def test_matrix_algebra_matches_oracle_live(homology_reports):
    dim, mult = oracles.m2_rationals()
    from_oracle = tuple(oracles.hh_oracle(dim, mult, 3))
    assert homology_reports("m2q", "HH", 3).dims == from_oracle == (1, 0, 0, 0)


@pytest.mark.parametrize("order", [2, 3, 4, "S3"])
def test_group_algebra_hp_counts_conjugacy_classes(order, tmp_path, capsys):
    # Burghelea (Loday, Cyclic Homology, 7.4): over Q, HH_0(Q[G]) has one
    # dimension per conjugacy class and HH_n = 0 for n > 0, so HP(Q[G]) is
    # (#classes, 0)
    g = (symmetric_group_with_perms(3)[0] if order == "S3"
         else FiniteGroup.cyclic(order))
    classes = len(g.conjugacy_classes())
    path = tmp_path / "group.json"
    path.write_text(json.dumps(algebra_to_doc(group_algebra(g))))
    code = main(["hp", str(path), "--max-degree", "3", "--certificate",
                 "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["hh_dims"] == [classes, 0, 0, 0]
    assert (report["hp_even"], report["hp_odd"]) == (classes, 0)
