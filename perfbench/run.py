"""orderproof benchmark: seeded campaign workloads, end to end and per layer.

Run from the root of a checkout.  One workload, one seed, in this process:

    python3 perfbench/run.py --workload commit-3msg --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and its overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The
full report (context, sample counts, checks) is written to
perfbench/out/, with the spans of a traced run beside it.

Every workload, each in its own process, one after another, with the
determinism self-check (two untraced runs of the same seed) and a traced
run:

    python3 perfbench/run.py --all --seed 1 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_program() -> None:
    """Put this checkout's src/ first on the path; exit if it is missing."""
    package = SRC / "orderproof"
    if not (package / "__init__.py").is_file():
        sys.exit(f"no orderproof sources at {package}: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import orderproof

    if Path(orderproof.__file__).resolve().parent != package.resolve():
        sys.exit(f"imported orderproof from {orderproof.__file__}, not from {package}")


def report_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def print_report(report: dict) -> None:
    ctx = report["context"]
    print(f"# orderproof benchmark: workload {ctx['workload']}, seed {ctx['seed']}, "
          f"{ctx['seconds']} s, trace {ctx['trace']}")
    print(f"# machine: {ctx['host']} {ctx['machine']}, nproc {ctx['nproc']}, "
          f"{ctx['implementation']} {ctx['python']}")
    for name, m in report["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']:8s} n={m['n']} {m['of']}")
    for check, result in report["checks"].items():
        print(f"# check {check}: {result}")
    for failure in report["first_failures"]:
        print(f"# failed trial: {failure}")
    print(f"# attempted {report['attempted']}, failed {report['failed']}, "
          f"correct {report['correct']}")


def run_one(workload_name: str, seed: int, seconds: float, trace: int) -> None:
    from bench import END_TO_END, PER_LAYER, Bench
    from workloads import WORKLOADS

    bench = Bench(WORKLOADS[workload_name], seed, seconds)
    report = bench.run_traced() if trace else bench.run()
    OUT.mkdir(exist_ok=True)
    report_path(workload_name, seed, trace).write_text(json.dumps(report, indent=1) + "\n")
    if trace:
        bench.tracer.write(str(OUT / f"{workload_name}-seed{seed}.spans.ndjson"))
    print_report(report)
    names = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name]["value"], "unit": report["metrics"][name]["unit"]}
            for name in names
        },
    }))


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced twice and traced once, in its own process."""
    from bench import DETERMINISTIC, END_TO_END
    from workloads import WORKLOADS

    summary, ok = {}, True
    for name in WORKLOADS:
        reports = []
        for trace in (0, 0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if subprocess.run(cmd, timeout=900).returncode != 0:
                print(f"# {name}: {' '.join(cmd)} failed")
                return 1
            reports.append(json.loads(report_path(name, seed, trace).read_text()))
        first, second, traced = reports
        unequal = [k for k in DETERMINISTIC
                   if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        unequal += [k for k in ("tower", "transcript_digest") if first[k] != second[k]]
        ok &= first["correct"] and second["correct"] and traced["correct"] and not unequal
        summary[name] = {
            "context": first["context"],
            "correct": [first["correct"], second["correct"], traced["correct"]],
            "determinism": f"differs: {unequal}" if unequal else "ok",
            "metrics": first["metrics"],
            "trace": {k: v for k, v in traced["metrics"].items() if k.startswith("trace.")},
        }

    print(f"# summary, seed {seed}, {seconds} s per run")
    for name, s in summary.items():
        print(f"## {name}: correct {s['correct']}, determinism {s['determinism']}")
        for metric in list(END_TO_END) + ["failure_rate"]:
            m = s["metrics"][metric]
            print(f"{name:14s} {metric:28s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']} {m['of']}")
        t = s["trace"]
        print(f"{name:14s} {'tracing overhead':28s} {t['trace.overhead']['value']:>14.3%} "
              f"({t['trace.traced_trials_per_s']['value']:.4g} traced vs "
              f"{t['trace.untraced_trials_per_s']['value']:.4g} untraced trials/s)")
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="workload name")
    target.add_argument("--all", action="store_true", help="every workload, with self-checks")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    from workloads import WORKLOADS

    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
