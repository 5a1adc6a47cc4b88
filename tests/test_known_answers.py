"""Engine dimensions replayed against the independent brute-force oracle.

oracles.py shares no code with the package: it computes ranks of the
standard Hochschild complex and the cyclic quotient complex directly over
Fractions.  These tests run it live and compare, so a regression in either
route surfaces as a disagreement rather than a silently stale table.
"""

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import oracles
from cychom.algebra import (FiniteGroup, group_algebra,
                            symmetric_group_with_perms)
from cychom.cli import algebra_to_doc, main

DATA = Path(__file__).resolve().parent.parent / "data"
TOWERS = DATA / "towers"

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


def _tower(capsys, name, degree):
    code = main(["tower", str(TOWERS / f"{name}.json"), "--max-degree",
                 str(degree), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_diagonal_tower_into_matrices(capsys):
    # Q x Q -> M_2(Q), e0 -> E00, e1 -> E11.  HH_0 is 2 and then 1 (Morita:
    # HH(M_2(Q)) = HH(Q)), higher HH vanishes, and E00, E11 have the same
    # trace class, so both stages' HH_0 and HC_2 map onto one dimension.
    for degree, reason in (
            (1, "stage 0 has no vanishing certificate within 1"),
            (2, "common bound 0 stabilizes at degrees 2, 3, beyond "
                "truncation 2")):
        code, report = _tower(capsys, "diag_tower", degree)
        assert code == 3
        assert report["hp"] == {"status": "NOT_ESTABLISHED", "reason": reason}
    code, report = _tower(capsys, "diag_tower", 3)
    assert code == 0
    assert report["hh"]["filtration"] == [[1, 0, 0, 0], [1, 0, 0, 0]]
    hp = report["hp"]
    assert hp["status"] == "ESTABLISHED"
    assert (hp["common_bound"], hp["even_degree"], hp["odd_degree"]) == \
        (0, 2, 3)
    assert (hp["stage_even"], hp["stage_odd"]) == ([2, 1], [0, 0])
    assert (hp["even_filtration"], hp["odd_filtration"]) == ([1, 1], [0, 0])


def test_dual_numbers_into_quartic_truncation(capsys):
    # Q[x]/(x^2) -> Q[y]/(y^4), x -> y^2: HH_n(Q[y]/(y^m)) is m at n = 0 and
    # m - 1 above, the images keep every class of the dual numbers,
    # positive degrees included, and no stage has a vanishing certificate
    dim, mult = oracles.dual_numbers()
    for degree in (1, 2, 3):
        code, report = _tower(capsys, "dual_tower", degree)
        assert code == 3
        assert report["hp"] == {
            "status": "NOT_ESTABLISHED",
            "reason": f"stage 0 has no vanishing certificate within {degree}"}
        assert report["hh"]["filtration"] == [
            list(oracles.hh_oracle(dim, mult, degree)),
            [4] + [3] * degree]


# every data algebra but mat2 is Q[x]/(f) for some x; cyclic4 stops at
# -d5, where hh takes 0.07 s against about 0.5 s at -d6
ONE_GENERATOR = {"cyclic2": 6, "cyclic3": 6, "cyclic4": 5, "dual_numbers": 6,
                 "ground_field": 6, "hecke_s3_s2": 6, "random_dim3": 6}


def two_periodic_hh(name, max_degree):
    """oracles.one_generator_hh on the data file, its generator found among
    the basis vectors and then the sums of two of them."""
    doc = json.loads((DATA / "algebras" / f"{name}.json").read_text())
    dim = doc["dim"]
    mult = {(i, j): tuple((k, Fraction(c)) for k, c in terms)
            for i, row in enumerate(doc["table"])
            for j, terms in enumerate(row)}
    unit = {k: Fraction(c) for k, c in enumerate(doc["unit"]) if Fraction(c)}
    candidates = [{i: Fraction(1)} for i in range(dim)] + \
        [{i: Fraction(1), j: Fraction(1)}
         for i, j in combinations(range(dim), 2)]
    return next(dims for x in candidates if (dims := oracles.one_generator_hh(
        dim, mult, unit, x, max_degree)) is not None)


@pytest.mark.parametrize("name, degree", [
    *ONE_GENERATOR.items(), ("dual_numbers", 400)])
def test_hh_matches_the_two_periodic_resolution(name, degree, capsys):
    # HH_n of Q[x]/(f) is dim A - rank(f'(x) .) in every degree n >= 1; at
    # -d400 the dual numbers rank D_n whose dropped rows are already zero
    assert main(["hh", str(DATA / "algebras" / f"{name}.json"),
                 "--format", "json", "--max-degree", str(degree)]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == \
        two_periodic_hh(name, degree)
