"""Smoke test of the benchmark: every workload, both modes, at a tiny size.

    python3 perfbench/smoke.py

Checks that each run exits 0 and ends with the result line, that the line
holds exactly the metrics BENCHMARK.json names for its mode, with their
units, that the full report holds every other metric the benchmark
documents, and that a directory holding only the benchmark (no src/)
makes the run fail without a result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from bench import END_TO_END, PER_LAYER, REPORT_ONLY  # noqa: E402
from run import report_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = "1"

#: Report-only metrics of an untraced run; a traced run reports the others.
UNTRACED_EXTRA = ["failure_rate", "polycyclic.rounds"]


class SmokeFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_definition(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys: {sorted(spec)}")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end differs from bench.END_TO_END")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer differs from bench.PER_LAYER")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "a bound is outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s needs the largest bound")


def check_run(proc: subprocess.CompletedProcess, spec: dict, workload: str, trace: int) -> None:
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['correct']=}, {result['failed']=}, {result['attempted']=}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{label}: metrics {got} differ from BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        check(type(m["value"]) in (int, float), f"{label}: {name} is not a number")
    report = json.loads(report_path(workload, SEED, trace).read_text())
    extra = UNTRACED_EXTRA if not trace else [n for n in REPORT_ONLY if n not in UNTRACED_EXTRA]
    missing = [n for n in extra if n not in report["metrics"]]
    check(not missing, f"{label}: report lacks {missing}")
    for name, m in report["metrics"].items():
        check(m["n"] >= 1 and m["unit"], f"{label}: {name} lacks a unit or sample count")


def check_without_program() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, next(iter(WORKLOADS)), 0)
        check(proc.returncode != 0, "run without src/ exited 0")
        check('"correct"' not in proc.stdout, "run without src/ printed a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_definition(spec)
        for workload in WORKLOADS:
            for trace in (0, 1):
                check_run(run(ROOT, workload, trace), spec, workload, trace)
                print(f"ok {workload} --trace {trace}", flush=True)
        check_without_program()
        print("ok without src/: fails without a result")
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
