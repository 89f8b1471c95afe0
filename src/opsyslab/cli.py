"""Batch command line front end: load JSON inputs, run one operation, emit a report.

Exit codes: 0 success, 1 defect above the --assert threshold, 2 input parse
failure or an --out path that cannot be written, 3 operation precondition
failure.  All randomness flows from --seed, and the report's "result" section
is byte-identical across reruns with the same inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .defects import (
    UNITARY_PLATEAU,
    product_closure_defect,
    unitarity_score,
    unitary_average_decompose,
    walter_matrix,
)
from .logic import OPT_TOL, EvalConfig, evaluate, sentence_from_json
from .matrices import (
    _count,
    _number,
    lambda_min,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    random_contraction,
    unitary_defect,
)
from .systems import is_product_closed, system_from_json
from .ucp import (
    clock_shift_unitaries,
    cs_inequality_residual,
    kadison_schwarz_defect,
    pisier_check,
    random_ucp,
    ucp_from_json,
)

__all__ = ["main"]


class _ParseFailure(Exception):
    pass


def _load(path, parse):
    """Read a JSON file and parse it; any failure is an input parse failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise _ParseFailure(f"cannot parse {path}: {exc}") from exc


def _config(args) -> EvalConfig:
    return EvalConfig(
        multistart=args.multistart,
        max_iter=args.max_iter,
        rng_seed=args.seed,
    )


def _cmd_check_closure(args):
    system = _load(args.system, system_from_json)
    ambient = _load(args.ambient, system_from_json)
    report = product_closure_defect(system, ambient, _config(args))
    closed, oracle_defect = is_product_closed(system)
    result = {
        "defect": report.defect,
        "bound_check": report.bound_check,
        "worst_pair": [matrix_to_json(report.worst_pair[0]),
                       matrix_to_json(report.worst_pair[1])],
        "best_z": matrix_to_json(report.best_z),
        "oracle_closed": bool(closed),
        "oracle_defect": oracle_defect,
    }
    return result, [args.system, args.ambient]


def _cmd_eval(args):
    sentence = _load(args.sentence, sentence_from_json)
    structures = {}
    inputs = [args.sentence]
    for item in args.structure or ():
        if "=" not in item:
            raise _ParseFailure(f"--structure expects NAME=FILE, got {item!r}")
        name, path = item.split("=", 1)
        structures[name] = _load(path, system_from_json)
        inputs.append(path)
    res = evaluate(sentence, structures, _config(args))
    result = {
        "defect": res.value,
        "value": res.value,
        "bound_kind": res.bound_kind,
        "converged": bool(res.converged),
        "witnesses": {k: matrix_to_json(v) for k, v in sorted(res.witnesses.items())},
    }
    return result, inputs


def _cmd_detect_unitary(args):
    u = _load(args.matrix, matrix_from_json)
    config = _config(args)
    scores = {str(n): unitarity_score(u, n, config) for n in range(1, args.n_max + 1)}
    flag = all(v >= UNITARY_PLATEAU - OPT_TOL for v in scores.values())
    result = {
        "defect": max(0.0, UNITARY_PLATEAU - min(scores.values())),
        "is_unitary": bool(flag),
        "scores": scores,
        "plateau_constant": UNITARY_PLATEAU,
        "exact_defect": unitary_defect(u),
    }
    return result, [args.matrix]


def _cmd_walter(args):
    u = _load(args.u, matrix_from_json)
    v = _load(args.v, matrix_from_json)
    x = _load(args.x, matrix_from_json)
    lam = lambda_min(walter_matrix(u, v, x))
    dist = max(0.0, -lam)
    result = {"defect": dist, "dist_to_psd": dist, "lambda_min": lam}
    return result, [args.u, args.v, args.x]


def _cmd_decompose(args):
    x = _load(args.matrix, matrix_from_json)
    units = unitary_average_decompose(x)
    rec = sum(units) / 2
    err = op_norm(rec - x)
    result = {
        "defect": err,
        "reconstruction_error": err,
        "max_unitary_defect": max(unitary_defect(u) for u in units),
        "unitaries": [matrix_to_json(u) for u in units],
    }
    return result, [args.matrix]


def _cmd_ucp_suite(args):
    rng = np.random.default_rng(args.seed)
    worst_ks = np.inf
    worst_cs = np.inf
    worst_cp = 0.0
    worst_unital = 0.0
    for i in range(args.samples):
        d = int(rng.integers(1, args.max_dim + 1))
        k = int(rng.integers(1, args.max_dim + 1))
        phi = random_ucp(d, k, args.seed + 7919 * (i + 1))
        worst_cp = max(worst_cp, phi.cp_defect)
        worst_unital = max(worst_unital, phi.unital_defect)
        x = random_contraction(rng, d)
        y = random_contraction(rng, d)
        worst_ks = min(worst_ks, kadison_schwarz_defect(phi, x))
        worst_cs = min(worst_cs, cs_inequality_residual(phi, x, y))
    result = {
        "defect": max(0.0, -worst_ks, -worst_cs, worst_cp, worst_unital),
        "samples": args.samples,
        "min_kadison_schwarz": worst_ks,
        "min_cs_residual": worst_cs,
        "max_cp_defect": worst_cp,
        "max_unital_defect": worst_unital,
    }
    return result, []


def _cmd_pisier(args):
    phi = _load(args.map, ucp_from_json)
    rng = np.random.default_rng(args.seed)
    trials = clock_shift_unitaries(phi.dom_dim)
    pairs = [
        (random_contraction(rng, phi.dom_dim), random_contraction(rng, phi.dom_dim))
        for _ in range(args.pairs)
    ]
    report = pisier_check(phi, trials, pairs)
    result = {
        "defect": report.hom_defect,
        "unitary_preservation_defect": report.unitary_preservation_defect,
        "hom_defect": report.hom_defect,
    }
    return result, [args.map]


def _flag(parse):
    """An argparse type that runs parse on the flag's text; its ValueError exits 2."""
    def flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return flag


_count_flag = _flag(lambda text: _count(int(text), "a count"))  # an integer >= 1
_seed_flag = _flag(lambda text: _count(int(text), "seed", least=0))  # an integer >= 0
_threshold_flag = _flag(lambda text: _number(float(text)))  # a finite number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opsyslab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed_flag, default=EvalConfig.rng_seed)
    common.add_argument("--assert", dest="assert_threshold", type=_threshold_flag, default=None,
                        help="exit 1 when the result defect exceeds this threshold")
    common.add_argument("--out", type=str, default=None,
                        help="also write the report to this path")
    # the search budget, for the commands that run quantifier searches
    search = argparse.ArgumentParser(add_help=False, parents=[common])
    search.add_argument("--multistart", type=_count_flag, default=EvalConfig.multistart)
    search.add_argument("--max-iter", type=_count_flag, default=EvalConfig.max_iter)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-closure", parents=[search],
                       help="closure sentence for a subsystem inside an ambient algebra")
    p.add_argument("system")
    p.add_argument("ambient")
    p.set_defaults(fn=_cmd_check_closure)

    p = sub.add_parser("eval", parents=[search], help="evaluate a sentence file")
    p.add_argument("sentence")
    p.add_argument("--structure", action="append", metavar="NAME=FILE")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("detect-unitary", parents=[search],
                       help="unitarity scores and plateau test for a contraction")
    p.add_argument("matrix")
    p.add_argument("--n-max", type=_count_flag, default=2)
    p.set_defaults(fn=_cmd_detect_unitary)

    p = sub.add_parser("walter", parents=[common],
                       help="PSD distance of the 3x3 product certificate")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("x")
    p.set_defaults(fn=_cmd_walter)

    p = sub.add_parser("decompose", parents=[common],
                       help="write a contraction as an average of four unitaries")
    p.add_argument("matrix")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("ucp-suite", parents=[common],
                       help="inequality suite over a random u.c.p. population")
    p.add_argument("--samples", type=_count_flag, default=200)
    p.add_argument("--max-dim", type=_count_flag, default=3)
    p.set_defaults(fn=_cmd_ucp_suite)

    p = sub.add_parser("pisier", parents=[common],
                       help="unitary preservation versus multiplicativity of a map")
    p.add_argument("map")
    p.add_argument("--pairs", type=_count_flag, default=8)
    p.set_defaults(fn=_cmd_pisier)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result, inputs = args.fn(args)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "command": args.command,
        "inputs": inputs,
        "config": {name: getattr(args, name) for name in ("multistart", "max_iter")
                   if hasattr(args, name)},
        "result": result,
        "elapsed_ms": elapsed_ms,
        "seed": args.seed,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    if args.assert_threshold is not None and result["defect"] > args.assert_threshold:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
