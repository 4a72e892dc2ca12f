"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly, twice untraced and twice
traced, with one seed. Checks that each run reports every metric the
benchmark declares, with its unit; that no operation fails; that the
traced count metrics are exactly equal between the two runs; that the
parity mode exits cleanly; and that the benchmark refuses to run without
the program's source. Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "2"
SEED = "3"
COUNT_UNITS = ("calls/event", "calls/step")


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"FAIL {what}", flush=True)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(checks: Checks, label: str, proc, declared) -> dict:
    checks.expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n"
                  f"{proc.stderr}")
    if proc.returncode != 0:
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    backend = json.loads(lines[-2])["run_record"]["backend"]
    checks.expect(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{label}: keys {set(result)}")
    checks.expect(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    checks.expect(got == units, f"{label}: metrics/units {got} != {units}")
    for name, m in result["metrics"].items():
        if m["value"] is None and backend == "numba" \
                and name.startswith("kernels."):
            continue  # compiled kernels cannot be wrapped
        checks.expect(isinstance(m["value"], (int, float))
                      and math.isfinite(m["value"]),
                      f"{label}: {name} = {m['value']!r}")
    return result["metrics"]


def main() -> int:
    checks = Checks()
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            runs = []
            for i in range(2):
                label = f"{name} trace={trace} run {i + 1}"
                proc = run("--workload", name, "--seed", SEED, "--seconds",
                           SECONDS, "--trace", str(trace))
                runs.append(check_result(checks, label, proc, declared))
                print(f"ran {label}", flush=True)
            if trace == 0:
                for metric in runs[0]:
                    checks.expect(runs[0][metric]["value"] > 0,
                                  f"{name}: {metric} is 0")
            else:
                counts = [{k: m["value"] for k, m in r.items()
                           if m["unit"] in COUNT_UNITS} for r in runs]
                checks.expect(bool(counts[0]) and counts[0] == counts[1],
                              f"{name}: traced counts differ {counts}")

    proc = run("--parity")
    checks.expect(proc.returncode == 0 and '"parity"' in proc.stdout,
                  f"parity mode: exit {proc.returncode} {proc.stdout}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "eval-prob", "--seed", SEED, "--seconds",
                   SECONDS, cwd=bare)
        checks.expect(proc.returncode != 0 and not proc.stdout.strip(),
                      "without src/ the benchmark must fail without a result")

    print("selftest: " + ("ok" if not checks.failures
                          else f"{len(checks.failures)} failure(s)"))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
