"""The acceptance gate: every promised behavior, one printed line each.

Each check prints "[criterion N] <what it verifies>: PASS" (or FAIL right
before the assertion surfaces), so a verbose run doubles as a checklist of
the package's contract: exact operator identities, oracle-verified
dimension tables, certificate-gated periodic homology with working cycle
lifts, matrix-algebra invariance, tower continuity, orbifold Betti
numbers against an independent projector oracle, honest refusals, and
byte-deterministic reports.
"""

import contextlib
import json
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import oracles
from conftest import hh_dims, split_flat
from cychom.algebra import (symmetric_group_with_perms, FiniteGroup,
                            matrix_algebra)
from cychom.cli import main
from cychom.homology import (EvenLift, ObstructedLift, TotChainIndex,
                             lift_to_periodic, periodic_via_stabilization,
                             stabilization_certificate, total_differential)
from cychom.linalg import QQ, kernel_basis
from cychom.mixed import build_mixed_complex, verify_mixed_identities
from cychom.orbifold import (TorusComponent, averaged_projector_rank,
                             enumerate_group, invariant_betti)
from cychom.towers import continuity_check, hecke_tower, hp_continuity_check

DATA = Path(__file__).resolve().parent.parent / "data"

FIXTURES = ("ground", "dual", "z2", "z3", "z4", "m2q", "hecke_s3_s2",
            "rand3")
SEPARABLE = ("ground", "z2", "z3", "z4", "m2q", "hecke_s3_s2")


@contextlib.contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {summary}: FAIL")
        raise
    print(f"[criterion {number}] {summary}: PASS")


def test_criterion_1_operator_identities(algebras, mixed_complexes):
    with criterion(1, "mixed-complex operator identities on all fixtures"):
        for name in FIXTURES:
            # Omega(A), which hh and hc rank, and C(A), which hp ranks
            assert verify_mixed_identities(mixed_complexes(name, 5)).all_pass
            mc = build_mixed_complex(algebras[name], 5)
            assert verify_mixed_identities(mc).all_pass


def test_criterion_2_known_answers_vs_oracle(homology_reports):
    with criterion(2, "dimension tables replayed against the rank oracle"):
        expected = {"ground": (1, 0, 0, 0, 0),
                    "dual": (2, 1, 1, 1, 1),
                    "z2": (2, 0, 0, 0, 0),
                    "z3": (3, 0, 0, 0, 0),
                    "z4": (4, 0, 0, 0, 0)}
        data = {"ground": oracles.ground_field(),
                "dual": oracles.dual_numbers(),
                "z2": oracles.cyclic_group_algebra(2),
                "z3": oracles.cyclic_group_algebra(3),
                "z4": oracles.cyclic_group_algebra(4)}
        for name, dims in expected.items():
            assert tuple(oracles.hh_oracle(*data[name], 4)) == dims
            assert homology_reports(name, "HH", 4).dims == dims


def test_criterion_3_stabilized_degeneration(homology_reports):
    with criterion(3, "cyclic dimensions repeat and set the periodic pair"):
        for name in SEPARABLE:
            hc = homology_reports(name, "HC", 5)
            assert hc.dims[2] == hc.dims[4]
            assert hc.dims[3] == hc.dims[5]
            hh = homology_reports(name, "HH", 5)
            cert = stabilization_certificate(hh)
            assert cert is not None
            assert cert.vanishing_bound == 0
            hp, = periodic_via_stabilization([hh], [hc])
            assert hp.dims == (hc.dims[2], hc.dims[3])
            assert hp.certificate.vanishing_bound == cert.vanishing_bound


def test_criterion_4_lift_roundtrip(algebras, mixed_complexes,
                                    homology_reports):
    with criterion(4, "random cycles lift and truncate back; dual numbers "
                      "obstruct at a degree with nonzero homology"):
        rng = random.Random(20240822)
        lifted = 0
        for name in ("z2", "z3"):
            mc = mixed_complexes(name, 6)
            for degree in (2, 4):
                cycles = kernel_basis(total_differential(mc, degree))
                for _ in range(5):
                    flat = {}
                    while not flat:
                        flat = {}
                        for vec in rng.sample(cycles, min(3, len(cycles))):
                            c = rng.randrange(-3, 4)
                            if not c:
                                continue
                            for i, v in vec.items():
                                s = flat.get(i, QQ(0)) + c * v
                                if s:
                                    flat[i] = s
                                else:
                                    flat.pop(i, None)
                    chain = split_flat(mc, degree, flat)
                    lift = lift_to_periodic(chain, mc, top_degree=6)
                    assert isinstance(lift, EvenLift)
                    # exact equality: the lift keeps the cycle it started from
                    assert lift.truncate(degree).components == \
                        chain.components
                    lifted += 1
        assert lifted >= 20
        mc = mixed_complexes("dual", 6)
        hh = homology_reports("dual", "HH", 5)
        result = lift_to_periodic(TotChainIndex(0, {0: {1: QQ(1)}}), mc)
        assert isinstance(result, ObstructedLift)
        assert hh.dims[result.degree] != 0
        assert hh.dims[result.witness_degree] != 0


def test_criterion_5_matrix_invariance(algebras):
    with criterion(5, "dimensions agree between A and its 2x2 matrices"):
        for name in ("ground", "z2", "dual"):
            a = algebras[name]
            assert hh_dims(matrix_algebra(a, 2), 3) == hh_dims(a, 3)


def test_criterion_6_tower_continuity():
    with criterion(6, "Hecke towers: filtrations, final stages, periodic "
                      "dimensions"):
        g, perms = symmetric_group_with_perms(3)
        s2 = [i for i, p in enumerate(perms) if p[2] == 2]
        towers = [(hecke_tower(g, [s2, [g.identity]]), (2, 3)),
                  (hecke_tower(FiniteGroup.cyclic(4), [[0, 2], [0]]),
                   (2, 4))]
        for ds, hh0 in towers:
            cont = continuity_check(ds, 3)
            assert tuple(row[0] for row in cont.image_filtration) == hh0
            assert cont.monotone
            hp = hp_continuity_check(cont)
            assert hp.common_bound == 0
            assert hp.stage_even == hh0
            assert hp.stage_odd == (0,) * len(ds)
            assert hp.monotone
            # the final stage is the plain group-algebra computation
            assert cont.final_dims[0] == hh0[-1]
            assert hp.stage_even[-1] == hh0[-1]


def _perm_det(w):
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


def test_criterion_7_orbifold_oracle():
    with criterion(7, "Betti averages equal projector ranks plus the Euler "
                      "identity"):
        def transposition(k, t):
            perm = list(range(k))
            perm[t], perm[t + 1] = perm[t + 1], perm[t]
            return tuple(tuple(1 if c == perm[r] else 0 for c in range(k))
                         for r in range(k))

        swap = ((0, 1), (1, 0))
        s3 = (transposition(3, 0), transposition(3, 1))
        s4 = tuple(transposition(4, t) for t in range(3))
        named = [
            (TorusComponent(1, (((-1,),),)), (1, 0)),
            (TorusComponent(2, (swap,)), (1, 1, 0)),
            (TorusComponent(3, s3), (1, 1, 0, 0)),
            (TorusComponent(1, ()), (1, 1)),
            (TorusComponent(2, ()), (1, 2, 1)),
            (TorusComponent(3, ()), (1, 3, 3, 1)),
            (TorusComponent(4, ()), (1, 4, 6, 4, 1)),
            (TorusComponent(2, (swap, ((-1, 0), (0, -1)))), (1, 0, 0)),
            (TorusComponent(4, s4), None),
        ]
        for component, pinned in named:
            elements = enumerate_group(component)
            assert component.rank <= 4
            assert len(elements) <= 24
            betti = invariant_betti(component, cross_check=True)
            if pinned is not None:
                assert betti == pinned
            for p in range(component.rank + 1):
                assert averaged_projector_rank(elements, p) == betti[p]
            euler = sum((-1) ** p * b for p, b in enumerate(betti))
            fixed = sum(_perm_det(tuple(
                tuple((1 if i == j else 0) - w[i][j]
                      for j in range(component.rank))
                for i in range(component.rank))) for w in elements)
            assert QQ(fixed) / len(elements) == euler


def test_criterion_8_honest_refusal(capsys):
    with criterion(8, "periodic dimensions are refused without a "
                      "certificate"):
        path = str(DATA / "algebras" / "dual_numbers.json")
        code = main(["hp", path, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "NOT_ESTABLISHED"
        assert "hp_even" not in report
        assert "hp_odd" not in report
        assert report["hh_dims"] == [2, 1, 1, 1, 1]
        code = main(["hp", path])
        out = capsys.readouterr().out
        assert code == 3
        assert "hp_even" not in out
        assert "NOT_ESTABLISHED" in out


def test_criterion_9_deterministic_reports():
    with criterion(9, "reports are byte-identical across interpreter runs"):
        jobs = [
            ["hh", str(DATA / "algebras" / "cyclic3.json"),
             "--max-degree", "2"],
            ["hp", str(DATA / "algebras" / "ground_field.json")],
            ["orbifold", str(DATA / "components" / "torus_quotients.json")],
            ["tower", str(DATA / "towers" / "z4_tower.json"),
             "--max-degree", "3"],
        ]
        for args in jobs:
            outputs = []
            codes = []
            for seed in ("0", "7509"):
                env = {**os.environ, "PYTHONHASHSEED": seed}
                proc = subprocess.run(
                    [sys.executable, "-m", "cychom.cli", *args,
                     "--format", "json"],
                    capture_output=True, env=env)
                outputs.append(proc.stdout)
                codes.append(proc.returncode)
            assert outputs[0] == outputs[1]
            assert codes[0] == codes[1]
            json.loads(outputs[0])
