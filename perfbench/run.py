"""Layered benchmark of hawkeslob: end-to-end metrics, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-prob --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --parity          # numba vs numpy digests

One invocation builds the workload from ``--seed`` in this process (timed
as set-up), repeats the set-up in fresh child processes so ``setup_s`` is
a median, then runs whole units until ``--seconds`` have passed. With
``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
spends half the time untraced and half with per-layer wrappers installed
(see ``tracing.py``), and prints the per-layer metrics and the tracing
overhead. Every unit's outputs are checked; a unit run twice must give the
same digest.

Every time it reports is rescaled to a reference host speed (see
``hostspeed.py``): the host this runs on changes speed by up to half from
one minute to the next, and that moves every timing alike. The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record (backend,
versions, BLAS, commit, seeds, config hashes, digests, host times as
measured).

The benchmark does not set BLAS thread variables; it records them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import MARK_EVERY_NS, REF_TASK_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Named here, not read from workloads.py: importing that imports the program,
# which belongs inside the timed set-up.
WORKLOAD_NAMES = ("eval-prob", "train-ppo", "sim-powerlaw")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# Set-up is mostly imports, and the marks of hostspeed.py do not track
# them: set-up time as measured rose by a third between two sets of runs
# twenty minutes apart while the marks moved by 6%. So set-up is rescaled
# by a reference import instead, timed in a fresh process beside each
# set-up child: numpy and scipy.linalg, the libraries the program's import
# spends most of its time in, without the program. REF_IMPORT_S lies
# between the 0.34 and 0.50 s it took in fast and slow spells of the host
# the notes' figures come from.
REF_IMPORT = ("import time; t0 = time.perf_counter(); import numpy, "
              "scipy.linalg; print(time.perf_counter() - t0)")
REF_IMPORT_S = 0.45
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# name -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_s": "1/s",
    "steps_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
}


def build(name: str, seed: int):
    """Import the program and build the workload, with a new ``HostSpeed``.

    Returns (workload, host seconds).
    """
    t0 = time.perf_counter()
    import workloads  # imports hawkeslob: part of set-up

    meter = HostSpeed()
    workload = workloads.WORKLOADS[name](seed, meter)
    return workload, time.perf_counter() - t0


def reference_import() -> float:
    """Seconds a fresh process takes to run the reference import."""
    proc = subprocess.run([sys.executable, "-c", REF_IMPORT], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reference import failed:\n{proc.stderr}")
    return float(proc.stdout)


def spawn_child(name: str, seed: int, units: int = 0, env=None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", name, "--seed", str(seed), "--units", str(units)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(lines[-1])


class Ledger:
    """Attempted and failed operations, and the digest of every unit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        print(f"perfbench: failed: {why}", file=sys.stderr)

    def run_unit(self, workload, k: int):
        try:
            unit = workload.run_unit(k)
        except Exception:
            self.attempted += 1
            self.fail(1, f"unit {k} raised\n{traceback.format_exc()}")
            return None
        self.attempted += unit.ops
        first = self.digests.setdefault(k, unit.digest)
        if first != unit.digest:
            unit.error = unit.error or (
                f"unit {k} digest {unit.digest} differs from {first}")
        if unit.error:
            self.fail(unit.ops, f"unit {k}: {unit.error}")
        return unit


def run_phase(workload, ledger: Ledger, seconds: float, after_first=None,
              every_ns=MARK_EVERY_NS):
    """Run whole units 0, 1, ... until ``seconds`` have passed.

    Marks host speed around every unit, and between steps every
    ``every_ns`` if set, then converts each unit's times: ``seconds`` and
    ``step_ns`` at the reference speed, ``host_seconds`` as measured.
    """
    deadline = time.perf_counter() + seconds
    units, k = [], 0
    meter = workload.meter
    meter.every_ns = every_ns
    meter.mark()
    while k == 0 or time.perf_counter() < deadline:
        unit = ledger.run_unit(workload, k)
        if k == 0 and after_first is not None:
            after_first(unit)
        meter.mark()
        if unit is not None:
            span = unit.start_ns, unit.end_ns
            unit.seconds = meter.convert(*span)
            unit.host_seconds = meter.convert(*span, scaled=False)
            unit.step_ns = [meter.convert(a, b) * 1e9
                            for a, b in unit.step_ns]
            units.append(unit)
        k += 1
    meter.every_ns = None
    return units


def totals(units):
    """Seconds at the reference speed, steps and events of ``units``."""
    seconds = sum(u.seconds for u in units)
    steps = sum(u.steps for u in units)
    events = sum(u.events for u in units)
    return seconds, steps, events


def end_to_end(units, setup_s: float) -> dict:
    seconds, steps, events = totals(units)
    samples = [ns for u in units for ns in u.step_ns]
    cuts = statistics.quantiles(samples, n=100)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "events_per_s": events / seconds,
        "steps_per_s": steps / seconds,
        "step_p50_us": cuts[49] / 1e3,
        "step_p99_us": cuts[98] / 1e3,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def traced(workload, ledger: Ledger, seconds: float):
    """Half untraced, half traced; returns (per-layer metrics, units)."""
    import tracing  # imports numpy, so not at the top: set-up must pay for it

    # Marks inside a step would count in the traced layers' times, so the
    # traced half marks between units only, and so does the half it is
    # compared with.
    before = run_phase(workload, ledger, seconds / 2, every_ns=None)
    tracer = tracing.Tracer()
    tracer.install()
    first = {}

    def snapshot(unit):
        first["counts"] = tracer.counts()
        first["steps"] = unit.steps if unit else 0
        first["events"] = unit.events if unit else 0

    after = run_phase(workload, ledger, seconds / 2, after_first=snapshot,
                      every_ns=None)
    # Same units on both sides: unit k has the same inputs in both phases.
    n = min(len(before), len(after))
    overhead = totals(after[:n])[0] / totals(before[:n])[0] if n else 0.0
    events = totals(after)[2]
    speed = statistics.median(u.seconds / u.host_seconds for u in after)
    metrics = tracing.layer_metrics(tracer, first["counts"], first["steps"],
                                    first["events"], events, overhead, speed)
    return metrics, before + after


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown: unresolved {ref}"


def run_record(workload, seed: int, units, setup_host, import_s) -> dict:
    import numpy
    import scipy
    from hawkeslob.backend import BACKEND

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    samples = sum(len(u.step_ns) for u in units)
    host_s = sum(u.host_seconds for u in units)
    return {
        "workload": workload.name,
        "seed": seed,
        "unit_seeds": [workload.unit_seed(k) for k in range(len(units))],
        "config_hash": workload.config_hash,
        "backend": BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset (library default)")
                         for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "ref_task_s": REF_TASK_S,
        "ref_import_s": REF_IMPORT_S,
        "setup_host_s": setup_host,
        "reference_import_s": import_s,
        "host_events_per_s": sum(u.events for u in units) / host_s,
        "host_steps_per_s": sum(u.steps for u in units) / host_s,
        "marks": len(workload.meter.task_s),
        "units": len(units),
        "unit_seconds": [u.seconds for u in units],
        "unit_host_seconds": [u.host_seconds for u in units],
        "unit_steps": [u.steps for u in units],
        "unit_events": [u.events for u in units],
        "step_samples": samples,
        "unit_digests": [u.digest for u in units],
        "warmup_digest": workload.warmup_digest,
    }


def bench(args) -> int:
    workload, setup = build(args.workload, args.seed)
    ledger = Ledger()
    setup_host = [setup]
    import_s = []
    for _ in range(SETUP_SAMPLES - 1):
        ledger.attempted += 1
        try:
            import_s.append(reference_import())
            child = spawn_child(args.workload, args.seed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            ledger.fail(1, f"set-up child: {exc}")
            continue
        setup_host.append(child["setup_s"])
        if child["warmup_digest"] != workload.warmup_digest:
            ledger.fail(1, "warm-up digest differs between processes")

    if args.trace:
        metrics, units = traced(workload, ledger, args.seconds)
    else:
        units = run_phase(workload, ledger, args.seconds)
        # Check that unit 0 repeats byte for byte; not part of the timing.
        ledger.run_unit(workload, 0)
        if not units:
            print("perfbench: no unit completed", file=sys.stderr)
            return 1
        setup_s = (statistics.median(setup_host) * REF_IMPORT_S
                   / statistics.median(import_s))
        metrics = end_to_end(units, setup_s)

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        value = "unavailable" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<{width}}  {value:>12}  {m['unit']}")
    print(json.dumps({"run_record": run_record(workload, args.seed, units,
                                               setup_host, import_s)}))
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def child(args) -> int:
    workload, setup = build(args.workload, args.seed)
    from hawkeslob.backend import BACKEND

    digests = [workload.run_unit(k).digest for k in range(args.units)]
    print(json.dumps({"setup_s": setup, "backend": BACKEND,
                      "warmup_digest": workload.warmup_digest,
                      "unit_digests": digests}))
    return 0


def parity(seed: int) -> int:
    """Compare eval-prob and sim-powerlaw digests across the two backends."""
    import importlib.util

    if importlib.util.find_spec("numba") is None:
        print(json.dumps({"parity": "skipped: numba not importable"}))
        return 0
    mismatched = []
    for name in ("eval-prob", "sim-powerlaw"):
        got = {}
        for backend in ("numba", "numpy"):
            env = dict(os.environ, HAWKESLOB_BACKEND=backend)
            out = spawn_child(name, seed, units=1, env=env)
            got[backend] = (out["warmup_digest"], out["unit_digests"])
        if got["numba"] != got["numpy"]:
            mismatched.append(name)
        print(json.dumps({"workload": name, "digests": got}))
    print(json.dumps({"parity": "mismatch: " + ", ".join(mismatched)
                      if mismatched else "ok"}))
    return 1 if mismatched else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parity", action="store_true",
                        help="compare numba and numpy backend digests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--units", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.parity and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "hawkeslob" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'hawkeslob'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.parity:
        return parity(args.seed)
    return child(args) if args.child else bench(args)


if __name__ == "__main__":
    sys.exit(main())
