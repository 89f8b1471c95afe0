"""The four benchmark workloads: inputs from the seed, timed calls, checks.

A workload is a fixed sequence of rounds.  Round r draws its inputs from
``numpy.random.default_rng([seed, r, tag])`` with plain numpy, outside any
timing; each round has the same composition, so a run's operation mix does
not depend on how many rounds fit in its time.  Every operation builds its
structures fresh with ``canonicalize``, as a caller with a new system does,
so the per-object ``is_cstar`` cache never carries from one operation to
the next.  Checks run after the timed loop and use only `oracles`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

import opsyslab
from opsyslab.logic import Const, SpanDist

OPT_TOL = 1e-3  # EvalConfig's default, which every quantified call here uses


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# Inputs (numpy only)
# ---------------------------------------------------------------------------

def ginibre(rng, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def haar(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, d))
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def non_normal(rng, d: int) -> np.ndarray:
    """A Ginibre matrix far from normal, so span{1, g, g*} is 3-dim and not closed."""
    while True:
        g = ginibre(rng, d)
        if np.linalg.norm(g @ g.conj().T - g.conj().T @ g) > 0.1 * np.linalg.norm(g) ** 2:
            return g


def algebra_units(blocks) -> list[np.ndarray]:
    """Matrix units of the block-diagonal algebra M_b1 + M_b2 + ..."""
    d = sum(blocks)
    units, off = [], 0
    for b in blocks:
        for i in range(b):
            for j in range(b):
                e = np.zeros((d, d), dtype=complex)
                e[off + i, off + j] = 1.0
                units.append(e)
        off += b
    return units


def conjugated_algebra(rng, blocks) -> list[np.ndarray]:
    """Generators of u (M_b1 + M_b2 + ...) u* for a seeded Haar unitary u."""
    u = haar(rng, sum(blocks))
    return [u @ e @ u.conj().T for e in algebra_units(blocks)]


def contraction_in(rng, gens, d: int) -> np.ndarray:
    """A random element of span(gens) rescaled to operator norm 1/2."""
    x = sum((rng.standard_normal() + 1j * rng.standard_normal()) * g for g in gens)
    return 0.5 * x / np.linalg.norm(x, 2)


def strict_contraction(rng, d: int) -> np.ndarray:
    """u diag(s) v with singular values s uniform in [0.3, 0.9] (acceptance 7)."""
    return haar(rng, d) @ np.diag(rng.uniform(0.3, 0.9, d)) @ haar(rng, d)


def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def matrix_from(obj) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["data"]])
    return flat.reshape(obj["rows"], obj["cols"])


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    in_process = True
    min_rounds = 1  # also the number of rounds a traced run repeats
    tag = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r, self.tag])

    def prepare(self) -> None:
        """Set-up beyond round 0's inputs; nothing for in-process workloads."""

    def defect_probe(self) -> list[Op]:
        """Operations that fail on a known program defect; run apart from the rounds."""
        return []

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class Closure(Workload):
    """product_closure_defect(u span{1, e12, e21} u*, u M_2 u*) at the default EvalConfig.

    Every 3-dim operator system in M_2 is of this form for some unitary u.
    Conjugating both structures by the seeded Haar unitary u leaves every
    coordinate the search sees unchanged, so each seed repeats the same search
    work on different matrices.  With span{1, g, g*} for a seeded g instead,
    the coordinates change with the seed, one operation takes 13-17 s
    depending on g, and ten seeds spread wider than 0.25, the largest bound
    BENCHMARK.json admits.
    """

    name = "closure"
    tag = 1

    def round(self, r):
        u = haar(self.rng(r), 2)
        units = algebra_units((2,))  # E_11, E_12, E_21, E_22
        g = u @ units[1] @ u.conj().T
        b_gens = [u @ e @ u.conj().T for e in units]

        def run():
            a = opsyslab.canonicalize([g], 2)
            b = opsyslab.canonicalize(b_gens, 2)
            return opsyslab.product_closure_defect(a, b, opsyslab.EvalConfig())

        def check(rep):
            frame = oracles.span_frame([g], 2)
            out = []
            if oracles.closure_residual(frame, 2) <= oracles.CLOSED_RESIDUAL:
                out.append("reference oracle finds span{1, g, g*} closed")
            x, y = rep.worst_pair
            return out + oracles.check_closure_report(rep.defect, rep.bound_check,
                                                      x, y, rep.best_z, OPT_TOL)

        return [Op("closure", run, check)]


def _dist_op(kind, gens, x, d, via_sentence):
    def run():
        a = opsyslab.canonicalize(gens, d)
        if via_sentence:
            return opsyslab.evaluate(SpanDist(Const(x), "A"), {"A": a}).value
        return opsyslab.dist_to_system(x, a)

    def check(value):
        frame = oracles.span_frame(gens, d)
        return oracles.check_distance(value, oracles.dist_lower_bound(frame, x),
                                      oracles.dist_feasible(frame, x))

    return Op(kind, run, check)


def _closed_op(kind, gens, d, expected):
    def run():
        return opsyslab.is_product_closed(opsyslab.canonicalize(gens, d))

    def check(out):
        return oracles.check_verdict(out[0], expected)

    return Op(kind, run, check)


def _product_distance_op(kind, gens, d, rng):
    x, y, z = (contraction_in(rng, gens, d) for _ in range(3))

    def run():
        return opsyslab.product_distance(x, y, z, opsyslab.canonicalize(gens, d))

    def check(value):
        return oracles.check_close("product distance", value,
                                   float(np.linalg.norm(x @ y - z, 2)))

    return Op(kind, run, check)


class Oracle(Workload):
    """Exact oracles over closed algebras and non-closed spans in M_2..M_4.

    A round is one is_product_closed call per system, three for M_2 + C, and
    one product_distance.
    M_4 itself is left out: is_product_closed(M_4) makes 256 solver calls
    (13-18 s), one call would fill a whole run, and every distance to it is 0.

    Distance queries are not in the rounds: the solver returns values above a
    feasible point's norm on most queries with d >= 3 (ROADMAP item 1).  They
    run once per run in `defect_probe`, untimed, with the same checks, and
    their failures are reported on their own.
    """

    name = "oracle"
    tag = 2
    probe_systems = ("span2", "span3", "span4", "diag3", "diag4")

    @staticmethod
    def systems(rng) -> dict:
        """name -> (generators, ambient dim, product-closed by construction)."""
        return {
            "span2": ([non_normal(rng, 2)], 2, False),
            "span3": ([non_normal(rng, 3)], 3, False),
            "span4": ([non_normal(rng, 4)], 4, False),
            "diag2": (conjugated_algebra(rng, (1, 1)), 2, True),
            "diag3": (conjugated_algebra(rng, (1, 1, 1)), 3, True),
            "diag4": (conjugated_algebra(rng, (1, 1, 1, 1)), 4, True),
            "m2c": (conjugated_algebra(rng, (2, 1)), 3, True),
            "m2m2": (conjugated_algebra(rng, (2, 2)), 4, True),
        }

    def round(self, r):
        rng = self.rng(r)
        systems = self.systems(rng)
        # two more conjugates of M_2 + C, whose solver work does not depend on
        # the seed: with three, the median latency sits inside their cluster
        # instead of on its edge, where it jumped between clusters run to run
        for extra in ("m2c_b", "m2c_c"):
            systems[extra] = (conjugated_algebra(rng, (2, 1)), 3, True)
        ops = [_closed_op(f"closed.{name}", gens, d, closed)
               for name, (gens, d, closed) in systems.items()]
        gens, d, _ = systems["m2c"]
        ops.append(_product_distance_op("product_distance.m2c", gens, d, rng))
        return ops

    def defect_probe(self):
        """One direct and one SpanDist distance query to each probed system."""
        rng = np.random.default_rng([self.seed, 0, self.tag, 1])
        ops = []
        for name, (gens, d, _) in self.systems(rng).items():
            if name in self.probe_systems:
                ops.append(_dist_op(f"dist.{name}", gens, ginibre(rng, d), d, False))
                ops.append(_dist_op(f"spandist.{name}", gens, ginibre(rng, d), d, True))
        return ops


class Detect(Workload):
    """unitary_detect at n_max=2 (acceptance 7) and unitary_span_defect."""

    name = "detect"
    tag = 3

    def round(self, r):
        rng = self.rng(r)
        mats = [("detect.unitary1", haar(rng, 1)), ("detect.unitary2", haar(rng, 2)),
                ("detect.contraction1", strict_contraction(rng, 1)),
                ("detect.contraction2", strict_contraction(rng, 2))]
        ops = []
        for kind, m in mats:
            expected = oracles.unitary_defect(m) <= 1e-9

            def check(flag, expected=expected):
                return oracles.check_verdict(flag, expected)

            ops.append(Op(kind, lambda m=m: opsyslab.unitary_detect(m, 2), check))
        gens = conjugated_algebra(rng, (2,))
        ops.append(Op(
            "span_defect.m2",
            lambda: opsyslab.unitary_span_defect(opsyslab.canonicalize(gens, 2)),
            lambda v: oracles.check_at_most("unitary span defect", v, OPT_TOL)))
        return ops


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """This process's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_process(argv, env, cwd) -> dict:
    """Run one child to completion; returns exit code, stdout and its peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    out, err = proc.stdout.read(), proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"pid": proc.pid, "code": proc.returncode, "stdout": out.decode(),
            "stderr": err.decode(), "wall_s": time.perf_counter() - start,
            "maxrss_kb": usage.ru_maxrss}


class Cli(Workload):
    """The seven acceptance-9 commands, each a fresh `python -m opsyslab.cli`."""

    name = "cli"
    in_process = False
    min_rounds = 2  # the second round is the byte-identity repeat
    tag = 4
    shim: list | None = None  # argv prefix replacing `-m opsyslab.cli` when traced

    def prepare(self):
        rng = self.rng(0)
        w = self.workdir
        w.mkdir(parents=True, exist_ok=True)

        def dump(name, obj):
            (w / name).write_text(json.dumps(obj), encoding="utf-8")
            return str(w / name)

        self.c = float(rng.uniform(0.2, 0.8))
        self.contraction = strict_contraction(rng, 2)
        self.u, self.v = haar(rng, 2), haar(rng, 2)
        h = ginibre(rng, 2)
        h = (h + h.conj().T) / 2
        self.x = self.u @ self.v + 0.1 * h / np.linalg.norm(h, 2)
        conj = haar(rng, 2)
        units = algebra_units((2,))  # E_ij at index 2 * i + j
        choi = np.block([[conj.conj().T @ units[2 * i + j] @ conj for j in range(2)]
                         for i in range(2)])
        files = {
            "system": dump("system.json", {"ambient_dim": 2, "basis": [
                matrix_json(g) for g in conjugated_algebra(rng, (1, 1))]}),
            "m2": dump("m2.json", {"ambient_dim": 2,
                                   "basis": [matrix_json(e) for e in algebra_units((2,))]}),
            "sentence": dump("sentence.json", [
                "sup", [["x", "A", 1.0]], ["dotminus", ["norm", ["var", "x"]], ["lit", self.c]]]),
            "contraction": dump("contraction.json", matrix_json(self.contraction)),
            "u": dump("u.json", matrix_json(self.u)),
            "v": dump("v.json", matrix_json(self.v)),
            "x": dump("x.json", matrix_json(self.x)),
            "map": dump("map.json", {"dom_dim": 2, "cod_dim": 2, "choi": matrix_json(choi)}),
        }
        self.commands = [
            ["check-closure", files["system"], files["m2"], "--multistart", "8",
             "--max-iter", "400"],
            ["eval", files["sentence"], "--structure", f"A={files['m2']}",
             "--multistart", "8"],
            ["detect-unitary", files["contraction"], "--n-max", "1"],
            ["walter", files["u"], files["v"], files["x"]],
            ["decompose", files["contraction"]],
            ["ucp-suite", "--samples", "60"],
            ["pisier", files["map"]],
        ]
        self.first: dict[str, str] = {}

    def round(self, r):
        ops = []
        for argv in self.commands:
            prefix = self.shim or ["-m", "opsyslab.cli"]
            full = [sys.executable, *prefix, *argv, "--seed", str(self.seed)]
            ops.append(Op(f"cli.{argv[0]}",
                          lambda full=full: run_process(full, child_env(), ROOT),
                          lambda out, cmd=argv[0]: self.check(cmd, out)))
        return ops

    def check(self, cmd, out) -> list:
        if out["code"] != 0:
            return [f"{cmd} exited {out['code']}: {out['stderr'].strip()[-300:]}"]
        result = json.loads(out["stdout"])["result"]
        text = json.dumps(result, sort_keys=True)
        first = self.first.setdefault(cmd, text)
        fails = [] if text == first else [f"{cmd} result differs from its first run"]
        return fails + self.expect(cmd, result)

    def expect(self, cmd, res) -> list:
        """Expected `result` values, from the generated inputs and numpy alone."""
        o = oracles
        if cmd == "check-closure":
            x, y = (matrix_from(m) for m in res["worst_pair"])
            return (o.check_verdict(res["oracle_closed"], True)
                    + o.check_at_most("oracle_defect", res["oracle_defect"], 1e-9)
                    + o.check_at_most("defect", res["defect"], 0.05)
                    + o.check_at_most("bound_check", res["bound_check"],
                                      4 * np.sqrt(max(res["defect"], 0.0)) + 1e-3)
                    + o.check_close("bound_check", res["bound_check"], float(np.linalg.norm(
                        x @ y.conj().T + matrix_from(res["best_z"]), 2))))
        if cmd == "eval":
            wit = float(np.linalg.norm(matrix_from(res["witnesses"]["x"]), 2))
            return (o.check_at_least("value", res["value"], 1 - self.c - OPT_TOL)
                    + o.check_at_most("value", res["value"], 1 - self.c + 1e-9)
                    + o.check_close("value at the witness", res["value"],
                                    max(0.0, wit - self.c)))
        if cmd == "detect-unitary":
            smin = float(np.linalg.svd(self.contraction, compute_uv=False)[-1])
            return (o.check_verdict(res["is_unitary"], False)
                    + o.check_close("exact_defect", res["exact_defect"],
                                    o.unitary_defect(self.contraction))
                    + o.check_close("plateau_constant", res["plateau_constant"], 1.0)
                    + o.check_at_most("score", res["scores"]["1"], smin ** 2 + 1e-9))
        if cmd == "walter":
            w = np.block([[np.eye(2), self.u, self.x],
                          [self.u.conj().T, np.eye(2), self.v],
                          [self.x.conj().T, self.v.conj().T, np.eye(2)]])
            lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
            return (o.check_close("lambda_min", res["lambda_min"], lam)
                    + o.check_close("defect", res["defect"], max(0.0, -lam)))
        if cmd == "decompose":
            units = [matrix_from(m) for m in res["unitaries"]]
            rec = float(np.linalg.norm(sum(units) / 2 - self.contraction, 2))
            return (o.check_at_most("reconstruction", rec, 1e-9)
                    + o.check_at_most("reconstruction_error", res["reconstruction_error"], 1e-9)
                    + o.check_at_most("unitarity", max(map(o.unitary_defect, units)), 1e-9))
        if cmd == "ucp-suite":
            return (o.check_close("samples", res["samples"], 60, 0)
                    + o.check_at_least("min_kadison_schwarz", res["min_kadison_schwarz"], -1e-9)
                    + o.check_at_least("min_cs_residual", res["min_cs_residual"], -1e-9)
                    + o.check_at_most("max_cp_defect", res["max_cp_defect"], 1e-9)
                    + o.check_at_most("max_unital_defect", res["max_unital_defect"], 1e-9))
        if cmd == "pisier":
            return (o.check_at_most("unitary_preservation_defect",
                                    res["unitary_preservation_defect"], 1e-8)
                    + o.check_at_most("hom_defect", res["hom_defect"], 1e-8))
        return [f"no expectation for {cmd}"]


WORKLOADS = {w.name: w for w in (Closure, Oracle, Detect, Cli)}
