"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line once its assertions hold, so `pytest -v -s
tests/test_acceptance.py` doubles as the acceptance report.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from opsyslab import (
    OPT_TOL,
    UNITARY_PLATEAU,
    EvalConfig,
    UcpMap,
    block,
    canonicalize,
    clock_shift_unitaries,
    completion_witness,
    cs_inequality_residual,
    diagonal_algebra,
    dist_to_psd,
    full_matrix_algebra,
    haar_unitary,
    kadison_schwarz_defect,
    op_norm,
    pisier_check,
    product_closure_defect,
    random_contraction,
    random_hermitian,
    random_ucp,
    unitarity_score,
    unitary_average_decompose,
    unitary_defect,
    unitary_detect,
    unitary_span_defect,
    walter_matrix,
)

CONFIG = EvalConfig()  # the documented defaults drive every quantified criterion

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def test_criterion_1_row_identity():
    rng = np.random.default_rng(20_260_101)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        x = random_contraction(rng, d)
        z = random_contraction(rng, d)
        b = completion_witness(x, z)
        row = block([[2 * np.eye(d), x, z, b]])
        target = 4.0 + op_norm(x @ x.conj().T + z @ z.conj().T)
        worst = max(worst, abs(op_norm(row) ** 2 - target))
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 1 (row identity, 200 pairs, worst {worst:.2e}): PASS")


def test_criterion_2_closure_converse():
    started = time.perf_counter()
    fixtures = [
        ("M2", full_matrix_algebra(2), full_matrix_algebra(2)),
        ("diag(M2)", diagonal_algebra(2), full_matrix_algebra(2)),
        ("M3", full_matrix_algebra(3), full_matrix_algebra(3)),
    ]
    defects = {}
    for name, system, ambient in fixtures:
        report = product_closure_defect(system, ambient, CONFIG)
        defects[name] = report.defect
        assert report.defect <= 0.05, (name, report.defect)
    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0
    summary = ", ".join(f"{k}={v:.1e}" for k, v in defects.items())
    print(f"\nACCEPTANCE 2 (closure converse {summary}, {elapsed:.0f}s): PASS")


def test_criterion_3_closure_forward_bound():
    system = canonicalize([E12], 2)
    ambient = full_matrix_algebra(2)
    trace = []

    def probe(node, env, value):
        if {"x", "y", "z"} <= set(env):
            trace.append((env["x"], env["y"], env["z"], value))

    report = product_closure_defect(system, ambient, CONFIG, probe=probe)
    assert report.defect >= 1 / 64 - OPT_TOL
    assert trace, "probe recorded no inner evaluations"
    for x, y, z, eps in trace:
        delta = op_norm(x @ y.conj().T + z)
        assert delta <= 4 * np.sqrt(max(eps, 0.0)) + 1e-3
    print(f"\nACCEPTANCE 3 (forward defect {report.defect:.4f} >= 1/64 - tol, "
          f"{len(trace)} traced evaluations within the 4*sqrt(eps) bound): PASS")


def test_criterion_4_walter_criterion():
    rng = np.random.default_rng(424_242)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        u = haar_unitary(rng, d)
        v = haar_unitary(rng, d)
        assert dist_to_psd(walter_matrix(u, v, u @ v)) <= 1e-9
        p = random_hermitian(rng, d)
        assert dist_to_psd(walter_matrix(u, v, u @ v + 0.1 * p)) > 0.0
    fixed = dist_to_psd(walter_matrix(1, 1, -1))
    assert fixed == pytest.approx(1.0, abs=1e-10)
    print("\nACCEPTANCE 4 (positivity certificate, 100 unitary pairs + "
          f"fixed instance {fixed:.12f}): PASS")


def test_criterion_5_product_gap_identity():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        u, v, w = (haar_unitary(rng, d) for _ in range(3))
        gap = op_norm(block([[u, w], [np.eye(d), -v.conj().T]])) ** 2 - 2.0
        worst = max(worst, abs(gap - op_norm(u - w @ v)))
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 5 (unitary product gap identity, 200 triples, "
          f"worst {worst:.2e}): PASS")


def test_criterion_6_four_unitary_average():
    rng = np.random.default_rng(66_066)
    worst_rec, worst_unit = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        x = random_contraction(rng, d)
        units = unitary_average_decompose(x)
        worst_rec = max(worst_rec, op_norm(sum(units) / 2 - x))
        worst_unit = max(worst_unit, max(unitary_defect(u) for u in units))
    assert worst_rec <= 1e-9
    assert worst_unit <= 1e-9
    span_defect = unitary_span_defect(full_matrix_algebra(2), CONFIG)
    assert span_defect <= OPT_TOL
    print(f"\nACCEPTANCE 6 (decomposition rec {worst_rec:.1e}, unit {worst_unit:.1e}, "
          f"span defect {span_defect:.1e}): PASS")


def test_criterion_7_unitarity_plateau():
    rng = np.random.default_rng(777)
    c_star = UNITARY_PLATEAU
    unitaries = [haar_unitary(rng, int(rng.integers(1, 3))) for _ in range(20)]
    scores = [unitarity_score(u, n, CONFIG) for u in unitaries for n in (1, 2)]
    spread = max(abs(s - c_star) for s in scores)
    assert spread <= 2 * OPT_TOL

    off_plateau = unitarity_score(np.diag([1.0, 0.5]), 1, CONFIG)
    assert off_plateau <= c_star - 0.05

    contractions = []
    for _ in range(10):
        d = int(rng.integers(1, 3))
        u, v = haar_unitary(rng, d), haar_unitary(rng, d)
        sing = rng.uniform(0.3, 0.9, d)
        contractions.append(u @ np.diag(sing) @ v)
    for m in unitaries + contractions:
        assert unitary_detect(m, 2, CONFIG) == (unitary_defect(m) <= 1e-9)
    print(f"\nACCEPTANCE 7 (plateau spread {spread:.1e}, off-plateau "
          f"{off_plateau:.3f}, detection agrees on 30 cases): PASS")


def _homomorphism_fixtures(rng):
    fixtures = []
    for i in range(20):
        d = 2 + (i % 2)
        u = haar_unitary(rng, d)
        if i % 4 < 2:
            fixtures.append(UcpMap.conjugation(u))
        else:
            big = haar_unitary(rng, 2 * d)
            fixtures.append(UcpMap.from_function(
                lambda x, big=big: big.conj().T @ np.kron(np.eye(2), x) @ big, d, 2 * d))
    return fixtures


def test_criterion_8_ucp_inequalities():
    rng = np.random.default_rng(888)
    worst_ks, worst_cs = np.inf, np.inf
    for i in range(1000):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        phi = random_ucp(d, k, 800_000 + i)
        x = random_contraction(rng, d)
        y = random_contraction(rng, d)
        worst_ks = min(worst_ks, kadison_schwarz_defect(phi, x))
        worst_cs = min(worst_cs, cs_inequality_residual(phi, x, y))
    assert worst_ks >= -1e-9
    assert worst_cs >= -1e-9

    for phi in _homomorphism_fixtures(rng):
        d = phi.dom_dim
        pairs = [(random_contraction(rng, d), random_contraction(rng, d))
                 for _ in range(4)]
        rep = pisier_check(phi, clock_shift_unitaries(d), pairs)
        assert rep.unitary_preservation_defect <= 1e-8
        assert rep.hom_defect <= 1e-8

    expectation = UcpMap.diagonal_expectation(2)
    rep = pisier_check(expectation, clock_shift_unitaries(2), [(E12, E12.conj().T)])
    assert rep.unitary_preservation_defect >= 0.99
    print(f"\nACCEPTANCE 8 (1000 maps: KS >= {worst_ks:.1e}, CS >= {worst_cs:.1e}; "
          f"20 homomorphism fixtures clean; expectation preservation "
          f"{rep.unitary_preservation_defect:.2f}): PASS")


def test_criterion_9_cli_determinism(tmp_path):
    from opsyslab import matrix_to_json, sentence_to_json, system_to_json, ucp_to_json
    from opsyslab.logic import Ball, DotMinus, Lit, Norm, Sup, Var

    for name, system in [("diag2", diagonal_algebra(2)), ("m2", full_matrix_algebra(2))]:
        (tmp_path / f"{name}.json").write_text(json.dumps(system_to_json(system)), "utf-8")
    with open(tmp_path / "halfdiag.json", "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(np.diag([1.0, 0.5])), fh)
    with open(tmp_path / "one.json", "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(np.eye(2)), fh)
    (tmp_path / "expectation.json").write_text(
        json.dumps(ucp_to_json(UcpMap.diagonal_expectation(2))), "utf-8")
    sentence = Sup((("x", Ball("A", 1.0)),), DotMinus(Norm(Var("x")), Lit(1.0)))
    with open(tmp_path / "sentence.json", "w", encoding="utf-8") as fh:
        json.dump(sentence_to_json(sentence), fh)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    commands = [
        ["check-closure", str(tmp_path / "diag2.json"), str(tmp_path / "m2.json"),
         "--multistart", "8", "--max-iter", "400"],
        ["eval", str(tmp_path / "sentence.json"),
         "--structure", f"A={tmp_path / 'm2.json'}", "--multistart", "8"],
        ["detect-unitary", str(tmp_path / "halfdiag.json"), "--n-max", "1"],
        ["walter", str(tmp_path / "one.json"), str(tmp_path / "one.json"),
         str(tmp_path / "one.json")],
        ["decompose", str(tmp_path / "halfdiag.json")],
        ["ucp-suite", "--samples", "60"],
        ["pisier", str(tmp_path / "expectation.json")],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "opsyslab.cli", *argv,
                                   "--seed", "193"],
                                  capture_output=True, text=True, env=env, check=True)
            runs.append(json.dumps(json.loads(proc.stdout)["result"], sort_keys=True))
        assert runs[0] == runs[1], f"nondeterministic result for {argv[0]}"
    print(f"\nACCEPTANCE 9 (byte-identical result sections for "
          f"{len(commands)} commands): PASS")
