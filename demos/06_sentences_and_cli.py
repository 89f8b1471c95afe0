"""Building sentences programmatically, saving them as JSON, running the CLI.

Sentences are tagged nested arrays on disk; structures and matrices use the
repo-wide JSON formats.  Everything the CLI reports is reproducible from the
inputs, the flags, and the seed alone.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from opsyslab import (
    Ball,
    DotMinus,
    Lit,
    NormSq,
    Sup,
    Var,
    diagonal_algebra,
    evaluate,
    full_matrix_algebra,
    sentence_from_json,
    sentence_to_json,
    system_to_json,
)

# the largest squared norm available inside the unit ball of a structure
sentence = Sup((("x", Ball("A", 1.0)),), DotMinus(NormSq(Var("x")), Lit(0.0)))

payload = sentence_to_json(sentence)
print("sentence as JSON:")
print(json.dumps(payload, indent=1))

round_tripped = sentence_from_json(payload)
result = evaluate(round_tripped, {"A": full_matrix_algebra(2)})
print(f"\nevaluated over M2: value {result.value:.6f} ({result.bound_kind})")
print("witness x:")
print(result.witnesses["x"].round(4))

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    for name, system in [("diag2", diagonal_algebra(2)), ("m2", full_matrix_algebra(2))]:
        (tmp / f"{name}.json").write_text(json.dumps(system_to_json(system)), "utf-8")
    with open(tmp / "sentence.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)

    print("\nrunning the CLI twice with the same seed:")
    cmd = [sys.executable, "-m", "opsyslab.cli", "check-closure",
           str(tmp / "diag2.json"), str(tmp / "m2.json"),
           "--multistart", "8", "--max-iter", "400", "--seed", "99"]
    results = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        results.append(json.dumps(json.loads(proc.stdout)["result"], sort_keys=True))
    print(f"  result sections byte-identical: {results[0] == results[1]}")
    print(f"  headline defect: {json.loads(results[0])['defect']:.2e}")
