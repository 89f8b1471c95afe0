"""Tests of the benchmark harness: checks, span accounting, traced counts, exit codes.

Run with the package on the path:  PYTHONPATH=src python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracer as tr
import workloads as wk
from opsyslab.cli import main as cli_main

HERE = Path(__file__).resolve().parent
EPS = 1e-3


def test_every_listed_workload_exists():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(wk.WORKLOADS)


# ---------------------------------------------------------------------------
# Every check rejects a value perturbed by 1e-3
# ---------------------------------------------------------------------------

def test_distance_check_rejects_perturbed_values():
    rng = np.random.default_rng(3)
    gens = [wk.non_normal(rng, 3)]
    x = wk.ginibre(rng, 3)
    frame = oracles.span_frame(gens, 3)
    lower, upper = oracles.dist_lower_bound(frame, x), oracles.dist_feasible(frame, x)
    assert 0 < lower <= upper
    assert oracles.check_distance(upper, lower, upper) == []
    assert oracles.check_distance(lower, lower, upper) == []
    assert oracles.check_distance(upper + EPS, lower, upper)
    assert oracles.check_distance(lower - EPS, lower, upper)


def test_reference_closure_oracle_matches_construction():
    rng = np.random.default_rng(4)
    for blocks in [(1, 1, 1), (2, 1), (2, 2)]:
        frame = oracles.span_frame(wk.conjugated_algebra(rng, blocks), sum(blocks))
        assert oracles.closure_residual(frame, sum(blocks)) <= oracles.CLOSED_RESIDUAL
    for d in (2, 3, 4):
        frame = oracles.span_frame([wk.non_normal(rng, d)], d)
        assert frame.shape[1] == 3
        assert oracles.closure_residual(frame, d) > 0.1


def test_closure_report_check_rejects_perturbed_values():
    rng = np.random.default_rng(5)
    x, y, z = (wk.ginibre(rng, 2) for _ in range(3))
    exact = float(np.linalg.norm(x @ y.conj().T + z, 2))
    # the smallest defect for which both acceptance-3 inequalities hold
    defect = max(1 / 64 - EPS, ((exact - 1e-3) / 4) ** 2 + 1e-12)
    assert oracles.check_closure_report(defect, exact, x, y, z, EPS) == []
    assert oracles.check_closure_report(defect - EPS, exact, x, y, z, EPS)
    assert oracles.check_closure_report(defect, exact + EPS, x, y, z, EPS)
    assert oracles.check_closure_report(defect, exact - EPS, x, y, z, EPS)


def test_detect_and_product_checks_reject_perturbed_values(tmp_path):
    rng = np.random.default_rng(6)
    u = wk.haar(rng, 2)
    assert oracles.unitary_defect(u) <= 1e-9
    bent = u + EPS * np.eye(2)
    assert oracles.check_verdict(True, oracles.unitary_defect(bent) <= 1e-9)
    ops = {op.kind: op for op in wk.Oracle(1, tmp_path).round(0)}
    prod = ops["product_distance.m2c"]
    value = prod.run()
    assert prod.check(value) == []
    assert prod.check(value + EPS) and prod.check(value - EPS)
    assert oracles.check_at_most("span defect", wk.OPT_TOL + EPS, wk.OPT_TOL)


def cli_perturbations(wl):
    """Per command: (key path, perturbed value) for every value its expectations check.

    Threshold checks get the threshold moved by 1e-3 past the limit; checks
    against a reference value get the reported value moved by 1e-3.
    """
    smin = float(np.linalg.svd(wl.contraction, compute_uv=False)[-1])
    up = lambda v: v + EPS  # noqa: E731
    down = lambda v: v - EPS  # noqa: E731
    return {
        "check-closure": [(("oracle_defect",), lambda v: 1e-9 + EPS),
                          (("defect",), lambda v: 0.05 + EPS),
                          (("bound_check",), up), (("bound_check",), down)],
        "eval": [(("value",), up), (("value",), down)],
        "detect-unitary": [(("exact_defect",), up), (("plateau_constant",), down),
                           (("scores", "1"), lambda v: smin ** 2 + 1e-9 + EPS)],
        "walter": [(("lambda_min",), up), (("defect",), up)],
        "decompose": [(("reconstruction_error",), lambda v: 1e-9 + EPS)],
        "ucp-suite": [(("min_kadison_schwarz",), lambda v: -1e-9 - EPS),
                      (("min_cs_residual",), lambda v: -1e-9 - EPS),
                      (("max_cp_defect",), lambda v: 1e-9 + EPS),
                      (("max_unital_defect",), lambda v: 1e-9 + EPS)],
        "pisier": [(("unitary_preservation_defect",), lambda v: 1e-8 + EPS),
                   (("hom_defect",), lambda v: 1e-8 + EPS)],
    }


def test_cli_expectations_reject_perturbed_results(tmp_path, capsys):
    wl = wk.Cli(7, tmp_path)
    wl.prepare()
    perturb = cli_perturbations(wl)
    for argv in wl.commands:
        cmd = argv[0]
        assert cli_main([*argv, "--seed", "7"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert wl.expect(cmd, result) == [], cmd
        for path, fn in perturb[cmd]:
            bad = json.loads(json.dumps(result))
            node = bad
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = fn(node[path[-1]])
            assert wl.expect(cmd, bad), (cmd, path)
        # the repeat must be byte-identical to the first run
        out = {"code": 0, "stdout": json.dumps({"result": result}), "stderr": ""}
        assert wl.check(cmd, out) == []
        changed = dict(result, defect=result["defect"] + EPS)
        assert wl.check(cmd, {**out, "stdout": json.dumps({"result": changed})})
    unitaries = [wk.matrix_json(np.eye(2))] * 4
    assert wl.expect("decompose", {"reconstruction_error": 0.0, "unitaries": unitaries})


# ---------------------------------------------------------------------------
# Span accounting
# ---------------------------------------------------------------------------

def _children(spans):
    kids = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s[1] >= 0:
            kids[s[1]].append(i)
    return kids


def _assert_self_plus_children_is_total(spans):
    own = tr.self_times(spans)
    kids = _children(spans)
    for i, s in enumerate(spans):
        total = s[4] - s[3]
        assert own[i] >= 0
        assert own[i] + sum(spans[k][4] - spans[k][3] for k in kids[i]) == total


def test_self_times_add_up_on_a_synthetic_tree():
    t = tr.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        t.call("systems.leaf", leaf)
        time.sleep(0.001)
        t.call("systems.leaf", leaf)

    t.run_op(0, lambda: t.call("logic.middle", middle))
    _assert_self_plus_children_is_total(t.spans)
    stats = tr.summarize(t)
    assert stats["systems.leaf.calls"] == 2
    assert stats["logic.middle.calls"] == 1
    root = t.spans[0][4] - t.spans[0][3]
    layers = sum(stats[f"{layer}.self_s"] for layer in (*tr.LAYERS, "bench"))
    assert layers == pytest.approx(root / 1e9, abs=1e-9)


def _small_ops(seed, tmp_path):
    detect = {op.kind: op for op in wk.Detect(seed, tmp_path).round(0)}
    oracle = wk.Oracle(seed, tmp_path)
    closed = {op.kind: op for op in oracle.round(0)}
    dist = {op.kind: op for op in oracle.defect_probe()}
    return [detect["detect.contraction1"], detect["detect.unitary1"],
            dist["dist.span3"], dist["spandist.span2"], closed["closed.diag2"]]


def _traced_counts(seed, tmp_path):
    t = tr.Tracer()
    t.install()
    try:
        outs = [t.run_op(i, op.run) for i, op in enumerate(_small_ops(seed, tmp_path))]
    finally:
        t.uninstall()
    return t, outs


def test_traced_ops_keep_results_and_add_up(tmp_path):
    import opsyslab

    originals = (np.linalg.norm, opsyslab.dist_to_system, opsyslab.logic.minimize)
    plain = [op.run() for op in _small_ops(11, tmp_path)]
    t, traced = _traced_counts(11, tmp_path)
    assert traced == plain
    assert (np.linalg.norm, opsyslab.dist_to_system, opsyslab.logic.minimize) == originals
    _assert_self_plus_children_is_total(t.spans)


def _counts(t):
    return {k: v for k, v in tr.summarize(t).items()
            if k.endswith((".calls", "steps", "stops", "exhausted")) or ".calls." in k}


def test_two_traced_runs_on_one_seed_give_identical_counts(tmp_path):
    first, _ = _traced_counts(12, tmp_path)
    second, _ = _traced_counts(12, tmp_path)
    a = _counts(first)
    assert a == _counts(second)
    for key in ("systems.dist_to_system.calls", "systems.dist_to_system.calls.from_bench",
                "systems.dist_to_system.calls.from_logic", "matrices.norm2.calls",
                "logic.evaluate.calls", "logic.polish.calls", "systems.newton_steps"):
        assert a[key] > 0, key


def test_calibration_scales_a_time_by_the_samples_that_bracket_it():
    cal = run.Calibration()
    before = cal.last
    scaled = cal.scaled(2.0, seconds=0.05)
    assert sum(cal.samples[1:]) >= 0.05
    assert scaled == pytest.approx(2.0 * run.CAL_REF_S / ((before + cal.last) / 2))
    assert cal.factors == [scaled / 2.0]


def test_known_defect_probe_is_apart_from_the_rounds(tmp_path):
    oracle = wk.Oracle(1, tmp_path)
    timed = {op.kind for op in oracle.round(0)}
    probe = {op.kind for op in oracle.defect_probe()}
    assert probe and not timed & probe
    assert all(kind.startswith(("dist.", "spandist.")) for kind in probe)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_fails_without_printing_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
