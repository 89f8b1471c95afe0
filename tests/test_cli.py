"""Command line front end: exit codes, report shape, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from opsyslab import (
    UcpMap,
    canonicalize,
    diagonal_algebra,
    full_matrix_algebra,
    matrix_to_json,
    sentence_to_json,
    system_to_json,
    ucp_to_json,
)
from opsyslab.cli import main
from opsyslab.logic import Ball, DotMinus, Lit, Norm, Sup, Var

E12 = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, system in [
        ("m2", full_matrix_algebra(2)),
        ("diag2", diagonal_algebra(2)),
        ("open3", canonicalize([E12], 2)),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps(system_to_json(system)), "utf-8")
    for name, mat in [
        ("swap", np.array([[0, 1], [1, 0]])),
        ("halfdiag", np.diag([1.0, 0.5])),
        ("one", np.eye(2)),
        ("minus_one", -np.eye(2)),
    ]:
        with open(tmp_path / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(matrix_to_json(mat), fh)
    (tmp_path / "expectation.json").write_text(
        json.dumps(ucp_to_json(UcpMap.diagonal_expectation(2))), "utf-8")
    sentence = Sup((("x", Ball("A", 1.0)),), DotMinus(Norm(Var("x")), Lit(1.0)))
    with open(tmp_path / "sentence.json", "w", encoding="utf-8") as fh:
        json.dump(sentence_to_json(sentence), fh)
    with open(tmp_path / "broken.json", "w", encoding="utf-8") as fh:
        fh.write("{not json")
    for p in tmp_path.iterdir():
        paths[p.stem] = str(p)
    return paths


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_check_closure_closed(files, capsys):
    code, report = _run(capsys, [
        "check-closure", files["diag2"], files["m2"],
        "--multistart", "8", "--max-iter", "400", "--assert", "0.05",
    ])
    assert code == 0
    assert report["result"]["oracle_closed"] is True
    assert report["result"]["defect"] <= 0.05


def test_check_closure_open_fails_assert(files, capsys):
    code, report = _run(capsys, [
        "check-closure", files["open3"], files["m2"],
        "--multistart", "8", "--max-iter", "400", "--assert", "0.01",
    ])
    assert code == 1
    assert report["result"]["oracle_closed"] is False
    assert report["result"]["defect"] >= 1 / 64 - 1e-3


def test_parse_error_exit_2(files, capsys):
    code, _ = _run(capsys, ["check-closure", files["broken"], files["m2"]])
    assert code == 2


@pytest.mark.parametrize("command, content", [
    ("eval", ["norm"]),
    ("eval", ["norm", ["var"]]),
    ("eval", ["norm", ["block", 5]]),
    ("eval", ["lit", None]),
    ("eval", ["sup", [["x", "A", 1.0]], ["lit"]]),
    ("eval", ["sup", [["x", "A", 1.0]], ["norm", ["lit", 1.0]]]),
    ("eval", ["lit", 10 ** 400]),
    ("decompose", {"rows": 1, "cols": 1, "data": [[None, 0]]}),
    ("decompose", {"rows": 1, "cols": 1, "data": [[10 ** 400, 0]]}),
    ("check-closure", {"ambient_dim": float("inf"), "basis": []}),
    ("pisier", {"dom_dim": float("inf"), "cod_dim": 1, "choi": {"rows": 1, "cols": 1,
                                                               "data": [[1, 0]]}}),
    ("eval", ["lit", float("nan")]),
    ("eval", ["times", float("nan"), ["lit", 1.0]]),
    ("eval", ["sup", [["x", "A", 1.0]], ["lit", float("nan")]]),
    ("eval", ["sup", [["x", "A", float("inf")]], ["norm", ["var", "x"]]]),
    # integers must be JSON integers and numbers JSON numbers in every file
    ("decompose", {"rows": 1.9, "cols": 1, "data": [[0.5, 0]]}),
    ("decompose", {"rows": "1", "cols": 1, "data": [[0.5, 0]]}),
    ("decompose", {"rows": 1, "cols": 1, "data": [[True, "0"]]}),
    ("check-closure", {"ambient_dim": 2.7, "basis": []}),
    ("check-closure", {"ambient_dim": 2, "basis": {}}),
    ("pisier", {"dom_dim": 1.5, "cod_dim": True, "choi": {"rows": 1, "cols": 1,
                                                         "data": [[1, 0]]}}),
    # dimensions are counts: (-1)(-1) matching the 1 x 1 Choi matrix does not make them valid
    ("pisier", {"dom_dim": -1, "cod_dim": -1, "choi": {"rows": 1, "cols": 1,
                                                       "data": [[1, 0]]}}),
    # sentences have no "pred" tag: they are composed by Python builders
    ("eval", ["pred", "P", [["var", "x"]]]),
])
def test_malformed_input_exit_2(files, capsys, tmp_path, command, content):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(content))
    extra = {"eval": ["--structure", f"A={files['m2']}"], "check-closure": [files["m2"]]}
    code, _ = _run(capsys, [command, str(path), *extra.get(command, [])])
    assert code == 2


@pytest.mark.parametrize("command, flag", [
    ("check-closure", "--multistart"),
    ("check-closure", "--max-iter"),
    ("detect-unitary", "--n-max"),
    ("ucp-suite", "--samples"),
    ("ucp-suite", "--max-dim"),
    ("pisier", "--pairs"),
])
def test_count_flag_below_one_exit_2(files, capsys, command, flag):
    inputs = {"check-closure": [files["diag2"], files["m2"]], "detect-unitary": [files["swap"]],
              "pisier": [files["expectation"]]}
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs.get(command, []), flag, "0"])
    assert exc.value.code == 2
    assert "integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ucp-suite", "eval"])
def test_negative_seed_exit_2(files, capsys, command):
    # one seed type on every command: the flag rejects -1 before any command runs
    inputs = {"eval": [files["sentence"], "--structure", f"A={files['m2']}"]}
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs.get(command, []), "--seed", "-1"])
    assert exc.value.code == 2
    assert "integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_non_finite_assert_exit_2(capsys, threshold):
    with pytest.raises(SystemExit) as exc:
        main(["ucp-suite", "--samples", "1", "--assert", threshold])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_unwritable_out_exit_2(files, capsys, tmp_path):
    out = tmp_path / "missing" / "r.json"
    assert main(["decompose", files["halfdiag"], "--assert", "10", "--out", str(out)]) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("depth", [600, 5000])  # the evaluator's reader, then json.load
def test_deeply_nested_input_exit_2(files, capsys, tmp_path, depth):
    path = tmp_path / "deep.json"
    term = '["adj", ' * depth + '["var", "x"]' + "]" * depth
    path.write_text(f'["sup", [["x", "A", 1.0]], ["norm", {term}]]')
    assert main(["eval", str(path), "--structure", f"A={files['m2']}"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_precondition_error_exit_3(files, capsys):
    # span(M2) is not inside span(diag)
    code, _ = _run(capsys, ["check-closure", files["m2"], files["diag2"]])
    assert code == 3


def test_eval_command(files, capsys):
    code, report = _run(capsys, [
        "eval", files["sentence"], "--structure", f"A={files['m2']}",
        "--multistart", "8", "--max-iter", "200",
    ])
    assert code == 0
    assert report["result"]["value"] <= 1e-3
    assert report["result"]["bound_kind"] == "lower-estimate"


def test_detect_unitary_command(files, capsys):
    code, report = _run(capsys, ["detect-unitary", files["swap"], "--n-max", "1"])
    assert code == 0
    assert report["result"]["is_unitary"] is True
    code, report = _run(capsys, [
        "detect-unitary", files["halfdiag"], "--n-max", "1", "--assert", "0.04",
    ])
    assert code == 1
    assert report["result"]["is_unitary"] is False


def test_walter_command(files, capsys):
    code, report = _run(capsys, [
        "walter", files["one"], files["one"], files["minus_one"],
    ])
    assert code == 0
    assert report["result"]["dist_to_psd"] == pytest.approx(1.0, abs=1e-10)


def test_decompose_command(files, capsys):
    code, report = _run(capsys, ["decompose", files["halfdiag"], "--assert", "1e-9"])
    assert code == 0
    assert report["result"]["reconstruction_error"] <= 1e-9
    assert report["result"]["max_unitary_defect"] <= 1e-9
    assert len(report["result"]["unitaries"]) == 4


def test_ucp_suite_command(capsys):
    code, report = _run(capsys, ["ucp-suite", "--samples", "40", "--assert", "1e-8"])
    assert code == 0
    assert report["result"]["min_kadison_schwarz"] >= -1e-9
    assert report["result"]["min_cs_residual"] >= -1e-9


def test_pisier_command(files, capsys):
    code, report = _run(capsys, ["pisier", files["expectation"]])
    assert code == 0
    assert report["result"]["unitary_preservation_defect"] >= 0.99


def test_out_flag_writes_report(files, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, report = _run(capsys, [
        "walter", files["one"], files["one"], files["one"], "--out", str(target),
    ])
    assert code == 0
    on_disk = json.loads(target.read_text())
    assert on_disk["result"] == report["result"]


def test_subprocess_determinism(files):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "opsyslab.cli", "check-closure",
           files["diag2"], files["m2"], "--multistart", "8", "--max-iter", "400",
           "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    r1 = json.dumps(json.loads(first.stdout)["result"], sort_keys=True)
    r2 = json.dumps(json.loads(second.stdout)["result"], sort_keys=True)
    assert r1 == r2



_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import opsyslab
from opsyslab.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_import_and_non_search_commands_load_no_scipy(files):
    # a fresh interpreter: scipy loads only where a unitary-ball hint is charted
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    commands = [
        ["walter", files["swap"], files["minus_one"], files["halfdiag"]],
        ["decompose", files["halfdiag"]],
        ["ucp-suite", "--samples", "2", "--max-dim", "2"],
        ["pisier", files["expectation"], "--pairs", "2"],
    ]
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(commands)],
                         capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(run.stdout)
    assert loaded == {name: [] for name in ("import", "walter", "decompose", "ucp-suite", "pisier")}


def test_search_commands_load_no_scipy(files, tmp_path):
    # the search's Powell method is in the package, and scipy.linalg loads only
    # where a unitary-ball hint is charted (matrices.unitary_log's Schur form),
    # which no command does
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def loaded(script, *args):
        run = subprocess.run([sys.executable, "-c", script, *args],
                             capture_output=True, text=True, env=env, check=True)
        return json.loads(run.stdout)

    commands = [
        ["check-closure", files["diag2"], files["m2"], "--multistart", "2", "--max-iter", "100"],
        ["eval", files["sentence"], "--structure", f"A={files['m2']}", "--multistart", "2"],
        ["detect-unitary", files["halfdiag"], "--n-max", "1"],
    ]
    assert loaded(_NO_SCIPY_SCRIPT, json.dumps(commands)) == {
        name: [] for name in ("import", "check-closure", "eval", "detect-unitary")}
    unitary = tmp_path / "unitary.json"
    unitary.write_text('["sup", [["u", "A", "U"]], ["norm", ["var", "u"]]]', "utf-8")
    commands = [["eval", str(unitary), "--structure", f"A={files['m2']}",
                 "--multistart", "2", "--max-iter", "100"]]
    assert loaded(_NO_SCIPY_SCRIPT, json.dumps(commands))["eval"] == []
    modules = loaded("import json, sys, opsyslab as o\n"
                     "o.unitary_span_defect(o.full_matrix_algebra(2), o.EvalConfig(2, 100))\n"
                     "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))")
    assert "scipy.linalg" in modules
    assert not [m for m in modules if m.startswith("scipy.optimize")]
