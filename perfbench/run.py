"""Benchmark runner: one workload, one client, a closed loop, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 25 --trace 0

Operations run one after another from this single process (the `cli`
workload waits on one child process at a time).  Rounds of operations run
until the next round is predicted to end past ``--seconds`` of measured
operation time, with at least the workload's minimum number of rounds.
Every output is then checked against references in `oracles`, which never
call the package under test.

A workload may also have a known-defect probe: operations that fail their
checks on a known program defect.  They run once, untimed and untraced, after
the measurement; their failures are printed on ``# KNOWN DEFECT`` lines and
counted apart from ``failed``.

``--trace 0`` prints the end-to-end metrics.  Each of their times is scaled
to the reference box's speed by a fixed numpy kernel timed around it and,
for in-process operations, inside it (see `Calibration`).  ``--trace 1`` runs the
workload's minimum number of rounds twice, first untraced and then with
`tracer.Tracer` installed, and prints the per-layer metrics and the tracing
overhead; its counts depend only on the seed.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # the matrices are at most 16 x 16; threads only add noise
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
CAL_REF_S = 0.02  # the calibration kernel's typical time on the reference box
CAL_SHARE = 0.05  # calibration time after an operation, as a share of its time
CAL_TICK_S = 1.0  # interval of the calibration samples inside an in-process operation
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def load_spec() -> dict:
    """BENCHMARK.json: the one list of workloads and of metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


class Calibration:
    """Times a fixed numpy kernel between operations to track the machine's speed.

    The reference box (2 shared vCPUs) runs identical work up to 1.8 times
    slower in phases that last from seconds to minutes, and CPU time slows as
    much as wall time.  The kernel makes the calls the package spends its time
    in (norm(., 2), inv, cholesky and eigvalsh of small matrices, each behind
    Python overhead) and never calls the package, so its time changes with
    the machine's speed and not with the code under test.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.a = g[:4, :4]
        self.b = g @ g.conj().T + 8 * np.eye(8)
        self.samples: list[float] = []
        self.factors: list[float] = []
        self.inside: list[float] = []  # samples taken inside the running operation
        self.inside_s = 0.0  # wall time those samples took
        self.sample()

    def kernel(self) -> float:
        la = self.np.linalg
        start = time.perf_counter()
        for _ in range(300):
            la.norm(self.a, 2)
            la.inv(self.b)
            la.cholesky(self.b)
            la.eigvalsh(self.b)
        dt = time.perf_counter() - start
        self.samples.append(dt)
        return dt

    def sample(self, seconds: float = 0.0) -> None:
        """Time the kernel once, and again until `seconds` have been spent on it."""
        spent, count = 0.0, 0
        while count == 0 or spent < seconds:
            spent += self.kernel()
            count += 1
        self.last = spent / count

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.inside.append(self.kernel())
        self.inside_s += time.perf_counter() - start

    @contextmanager
    def ticking(self):
        """Sample the kernel every CAL_TICK_S inside the block, from a SIGALRM handler.

        Python runs the handler in this thread between bytecodes, so the block
        pauses while the kernel runs; `scaled` takes that time back out.  Only
        for in-process work: a child process would not pause.
        """
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_TICK_S, CAL_TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scaled(self, dt: float, seconds: float = 0.0) -> float:
        """`dt`, just measured, in reference-box seconds.

        Removes the time of the samples taken inside `dt`, then samples the
        kernel again for `seconds`.  The mean kernel time over the samples just
        before, inside and just after `dt` gives the machine's speed during it.
        """
        before, inside, dt = self.last, self.inside, dt - self.inside_s
        self.inside, self.inside_s = [], 0.0
        self.sample(seconds)
        factor = CAL_REF_S / statistics.mean([before, *inside, self.last])
        self.factors.append(factor)
        return dt * factor


def setup_probes(workload: str, seed: int, workdir: Path, cal: Calibration) -> list[dict]:
    """Import plus input construction, each in a fresh interpreter."""
    from workloads import child_env

    out = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(workdir / f"probe{i}")],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_s"] = cal.scaled(probe["import_s"] + probe["inputs_s"])
        out.append(probe)
    return out


def attempt(run):
    """(output, None), or (None, message) for an operation that raised."""
    try:
        return run(), None
    except Exception as exc:  # an operation that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def run_rounds(wl, seconds: float | None, rounds: int | None, tracer=None, cal=None):
    """Time operations round by round, in reference-box seconds if `cal` is given.

    Returns the per-operation latencies, the (op, output, error) results and
    the number of rounds run.
    """
    latencies, results = [], []
    busy, r = 0.0, 0
    while True:
        ops = wl.round(r)  # input generation, untimed
        for op in ops:
            idx = len(results)
            start = time.perf_counter()
            with cal.ticking() if cal is not None and wl.in_process else nullcontext():
                out, err = attempt(op.run if tracer is None
                                   else lambda: tracer.run_op(idx, op.run))
            dt = time.perf_counter() - start
            busy += dt
            latencies.append(dt if cal is None else cal.scaled(dt, CAL_SHARE * dt))
            results.append((op, out, err))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif r >= wl.min_rounds and busy + busy / r > seconds:
            break
    return latencies, results, r


def check_all(results) -> list[tuple[str, list]]:
    failures = []
    for op, out, err in results:
        msgs = [err] if err is not None else op.check(out)
        if msgs:
            failures.append((op.kind, msgs))
    return failures


def run_defect_probe(wl) -> int:
    """Run the workload's known-defect probe; print and count its failures."""
    ops = wl.defect_probe()
    if not ops:
        return 0
    failures = check_all([(op, *attempt(op.run)) for op in ops])
    print(f"# known-defect probe: {len(failures)} of {len(ops)} operations fail "
          f"their check (not counted in failed)")
    for kind, msgs in failures:
        print(f"# KNOWN DEFECT {kind}: {'; '.join(msgs)}")
    return len(failures)


def peak_rss_mb(wl, results) -> float:
    if wl.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max((out["maxrss_kb"] for _, out, _ in results if out), default=0) / 1024.0


def end_to_end(spec, wl, seconds, setup_s, cal) -> tuple[dict, list, list]:
    lat, results, rounds = run_rounds(wl, seconds, None, cal=cal)
    rss = peak_rss_mb(wl, results)
    failures = check_all(results)
    run_defect_probe(wl)
    n = len(lat)
    print(f"# measured {n} operations in {rounds} rounds, {sum(lat):.3f} s busy (scaled)")
    print(f"# failed {len(failures)} of {n} (failed_frac {len(failures) / n:.4f})")
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat, n=10)[-1]
        print(f"# latency_p90_s {p90:.6f} s ({n} samples)")
    else:
        print(f"# latency_p90_s not reported: {n} samples, needs {P90_MIN_SAMPLES}")
    by_kind: dict[str, list] = {}
    for (op, _, _), t in zip(results, lat):
        by_kind.setdefault(op.kind, []).append(t)
    for kind, ts in by_kind.items():
        print(f"#   {kind:28s} n={len(ts):3d} median {statistics.median(ts):.4f} s")
    values = {
        "setup_s": setup_s,
        # each kind runs once per round: this is the throughput of a round made
        # of median operations, which resists outlier inputs and bursts of
        # slowness on a shared machine
        "ops_per_s": len(by_kind) / sum(statistics.median(ts) for ts in by_kind.values()),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": rss,
    }
    print(f"# calibration: {len(cal.samples)} kernel samples, median "
          f"{statistics.median(cal.samples):.5f} s (reference {CAL_REF_S} s); "
          f"times scaled by {min(cal.factors):.3f} to {max(cal.factors):.3f}, "
          f"median {statistics.median(cal.factors):.3f}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return metrics, failures, lat


def per_layer(spec, wl, import_s, out_dir: Path, tag: str) -> tuple[dict, list, int]:
    from tracer import Tracer, summarize

    rounds = wl.min_rounds
    plain_lat, plain_results, _ = run_rounds(wl, None, rounds)
    tracer = Tracer()
    if wl.in_process:
        tracer.install()
        try:
            lat, results, _ = run_rounds(wl, None, rounds, tracer)
        finally:
            tracer.uninstall()
    else:
        shim_dir = wl.workdir / "spans"
        shim_dir.mkdir(parents=True, exist_ok=True)
        wl.shim = [str(HERE / "cli_shim.py"), str(shim_dir)]
        lat, results, _ = run_rounds(wl, None, rounds, tracer)
        absorb_children(tracer, results, shim_dir)
    failures = check_all(plain_results + results)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"spans-{tag}.npz")

    stats = summarize(tracer)
    stats["systems.dist_to_system.probe_failed"] = run_defect_probe(wl)
    stats["cli.import_s"] = import_s
    stats["cli.commands"] = 0 if wl.in_process else len(results)
    if not wl.in_process:
        reports = [(json.loads(out["stdout"]), out["wall_s"])
                   for _, out, _ in plain_results if out and out["code"] == 0]
        stats["cli.command_s"] = statistics.median(r["elapsed_ms"] / 1e3 for r, _ in reports)
        stats["cli.startup_s"] = statistics.median(w - r["elapsed_ms"] / 1e3 for r, w in reports)
    busy, plain_busy = sum(lat), sum(plain_lat)
    overhead = busy / plain_busy
    print(f"# traced {len(lat)} operations in {rounds} rounds: {busy:.3f} s traced, "
          f"{plain_busy:.3f} s untraced, overhead {100 * (overhead - 1):.1f}%")
    print(f"# spans: {len(tracer.spans)} written to {out_dir / f'spans-{tag}.npz'}")
    print("# layer table (name, value):")
    for key in sorted(stats):
        print(f"#   {key:50s} {stats[key]:.6g}")
    stats["trace.overhead_ratio"] = overhead
    # a count absent from stats was never incremented; every other per-layer
    # metric must have been measured, since a time that reads 0 on every run
    # cannot be told apart from one that was never taken
    metrics = {m["name"]: {"value": int(stats.get(m["name"], 0)) if m["unit"] == "count"
                           else stats[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return metrics, failures, len(plain_lat) + len(lat)


def absorb_children(tracer, results, shim_dir: Path) -> None:
    """Merge the spans each traced CLI process wrote under that op's root span."""
    import numpy as np

    roots = {s[2]: i for i, s in enumerate(tracer.spans) if tracer.names[s[0]] == "bench.op"}
    for idx, (_, out, _) in enumerate(results):
        if not out:
            continue
        path = shim_dir / f"{out['pid']}.npz"
        if path.exists():
            with np.load(path) as data:
                tracer.absorb(data["rows"], data["names"], idx, roots[idx])
            for key, val in json.loads((shim_dir / f"{out['pid']}.json").read_text()).items():
                tracer.counters[key] += val


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before anything imports numpy; children inherit it
        os.environ[var] = str(BLAS_THREADS)

    if not (SRC / "opsyslab" / "__init__.py").is_file():
        print(f"error: no opsyslab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-s{args.seed}"
    workdir = ROOT / ".perfbench_tmp" / f"{tag}-{os.getpid()}"
    try:
        cal = Calibration()
        probes = setup_probes(args.workload, args.seed, workdir, cal)
        setup_s = statistics.median(p["setup_s"] for p in probes)
        import_s = statistics.median(p["import_s"] for p in probes)

        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, workdir / "inputs")
        wl.prepare()
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# machine {json.dumps(machine_facts(), sort_keys=True)}")
        print(f"# setup probes (import_s, inputs_s): "
              + ", ".join(f"({p['import_s']:.3f}, {p['inputs_s']:.3f})" for p in probes))
        if args.trace:
            metrics, failures, attempted = per_layer(
                spec, wl, import_s, ROOT / ".perfbench_out", tag)
        else:
            metrics, failures, lat = end_to_end(spec, wl, args.seconds, setup_s, cal)
            attempted = len(lat)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for kind, msgs in failures:
        print(f"# FAILED {kind}: {'; '.join(msgs)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
